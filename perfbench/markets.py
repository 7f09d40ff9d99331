"""Seeded scenario-tree generator for the benchmark.

Every market is a non-recombining tree with a fixed branching per period.
Each node draws its own multiplicative moves, so the geometry differs from
node to node.  A market is labelled ``EQUIVALENT`` when every node admits a
strictly positive one-step martingale weight (so an equivalent martingale
measure exists), or ``DEGENERATE`` when one designated node is built so that
only some of its children can carry martingale mass (dead leaves below the
others; the martingale polytope is still non-empty).

The generator keeps the tree in its own arrays so that the reference solvers
in :mod:`reference` never depend on the package under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EQUIVALENT = "EQUIVALENT"
DEGENERATE = "DEGENERATE"


class Draw:
    """Random draws from a fixed base generator, moved by a run's generator.

    A continuous draw is the base draw plus ``jitter`` times a uniform draw
    from ``noise`` on [-1, 1], as a share of its range and clipped to it;
    discrete choices come from the base alone.  The base fixes a market's
    shape and difficulty, the noise makes every run's inputs differ.
    """

    def __init__(self, base, noise, jitter):
        self.base = base
        self.noise = noise
        self.jitter = jitter

    def uniform(self, lo, hi, size=None):
        u = self.base.uniform(size=size)
        u = np.clip(u + self.jitter * self.noise.uniform(-1.0, 1.0, size=size), 0.0, 1.0)
        return lo + (hi - lo) * u

    def integers(self, lo, hi):
        return int(self.base.integers(lo, hi))

    def permutation(self, n):
        return self.base.permutation(n)


@dataclass(frozen=True, eq=False)
class Market:
    """A generated market: scenario document plus its own tree arrays."""

    doc: dict                    # scenario document accepted by market_from_dict
    label: str                   # EQUIVALENT | DEGENERATE
    n_assets: int
    ids: tuple[str, ...]         # node ids, parents before children
    parent: tuple[int, ...]      # parent index, -1 at the root
    children: tuple[tuple[int, ...], ...]
    live: tuple[tuple[int, ...], ...]  # children that can carry martingale mass
    prices: np.ndarray           # (n_nodes, n_assets)
    prob: np.ndarray             # branch probability given the parent
    leaves: tuple[int, ...]      # node indices of the leaves, depth-first
    degenerate_node: int | None

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        return tuple(self.ids[i] for i in self.leaves)

    def leaf_prob(self) -> np.ndarray:
        """Reference probability of each leaf (product of branch probabilities)."""
        out = np.ones(len(self.ids))
        for k in range(1, len(self.ids)):
            out[k] = out[self.parent[k]] * self.prob[k]
        return out[list(self.leaves)]

    def leaf_prices(self) -> np.ndarray:
        return self.prices[list(self.leaves)]

    def subtree_leaves(self, node: int) -> list[int]:
        """Positions (in ``leaves``) of the leaves below ``node``."""
        pos = {n: i for i, n in enumerate(self.leaves)}
        out, stack = [], [node]
        while stack:
            n = stack.pop()
            if n in pos:
                out.append(pos[n])
            stack.extend(self.children[n])
        return sorted(out)

    def dead_leaves(self) -> list[int]:
        """Leaf positions that no martingale measure can charge."""
        dead = []
        for n, kids in enumerate(self.children):
            for c in kids:
                if c not in self.live[n]:
                    dead.extend(self.subtree_leaves(c))
        return sorted(dead)


def _moves_1d(draw, n):
    """n multiplicative moves with at least one above and one below 1."""
    n_up = draw.integers(1, n)
    ups = draw.uniform(1.05, 1.6, size=n_up)
    downs = draw.uniform(0.65, 0.95, size=n - n_up)
    moves = np.concatenate([ups, downs])
    return moves[draw.permutation(n)][:, None]


def _moves_2d(draw, n):
    """n planar moves whose largest angular gap stays below pi.

    Angles sit at evenly spaced slots with a jitter of at most 0.4*pi/n, so
    the largest gap is at most 2.8*pi/n <= 0.94*pi for n >= 3; the origin is
    then strictly inside the hull and strictly positive one-step martingale
    weights exist.
    """
    if n < 3:
        raise ValueError("two assets need at least three children per node")
    base = draw.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n) / n
    angles = base + draw.uniform(-0.4, 0.4, size=n) * math.pi / n
    radii = draw.uniform(0.1, 0.35, size=n)
    moves = 1.0 + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    return moves[draw.permutation(n)]


def _moves_degenerate(draw, n, n_assets):
    """One unmoved child plus n-1 children on one open side of it.

    Any martingale weighting at this node puts all mass on the unmoved child,
    so the other children and their subtrees are dead.
    """
    if n_assets == 1:
        others = draw.uniform(1.05, 1.6, size=(n - 1, 1))
    else:
        centre = draw.uniform(0.0, 2.0 * math.pi)
        angles = centre + draw.uniform(-0.4, 0.4, size=n - 1) * math.pi
        radii = draw.uniform(0.1, 0.35, size=n - 1)
        others = 1.0 + radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    moves = np.vstack([np.ones((1, n_assets)), others])
    flat = draw.integers(0, n)
    moves[[0, flat]] = moves[[flat, 0]]
    return moves, flat


def _branch_probs(draw, n):
    raw = draw.uniform(0.2, 1.0, size=n)
    probs = np.round(raw / raw.sum(), 12)
    probs[-1] = 1.0 - probs[:-1].sum()
    return probs


def build_market(draw: Draw, branching, n_assets, degenerate_depth=None) -> Market:
    """Random market with the given branching per period.

    With ``degenerate_depth`` set, the first node at that depth gets
    degenerate moves and the market is labelled DEGENERATE.
    """
    s0 = draw.uniform(0.8, 1.2, size=n_assets)
    ids = ["r"]
    parent = [-1]
    prices = [s0]
    prob = [1.0]
    children: list[list[int]] = [[]]
    live: list[tuple[int, ...]] = [()]
    frontier = [0]
    degenerate_node = None
    for t, n in enumerate(branching):
        new_frontier = []
        for k in frontier:
            if degenerate_depth == t and degenerate_node is None:
                moves, flat = _moves_degenerate(draw, n, n_assets)
                degenerate_node = k
            else:
                moves = _moves_1d(draw, n) if n_assets == 1 else _moves_2d(draw, n)
                flat = None
            probs = _branch_probs(draw, n)
            kids = []
            for j in range(n):
                c = len(ids)
                ids.append(f"{ids[k]}.{j}")
                parent.append(k)
                prices.append(prices[k] if flat == j else prices[k] * moves[j])
                prob.append(float(probs[j]))
                children.append([])
                live.append(())
                kids.append(c)
            children[k] = kids
            live[k] = tuple(kids) if flat is None else (kids[flat],)
            new_frontier.extend(kids)
        frontier = new_frontier

    leaves = []
    stack = [0]
    while stack:
        k = stack.pop()
        if not children[k]:
            leaves.append(k)
        stack.extend(reversed(children[k]))

    doc = {
        "version": 1,
        "assets": [f"S{i}" for i in range(n_assets)],
        "nodes": [{"id": ids[k],
                   "parent": None if parent[k] < 0 else ids[parent[k]],
                   "t": ids[k].count("."),
                   "prices": [repr(float(x)) for x in prices[k]],
                   "prob": "1" if k == 0 else repr(prob[k])}
                  for k in range(len(ids))],
    }
    # the document's decimal strings are what the program reads; keep the
    # reference arrays bit-identical to them
    arr_prices = np.array([[float(s) for s in nd["prices"]] for nd in doc["nodes"]])
    arr_prob = np.array([float(nd["prob"]) for nd in doc["nodes"]])
    return Market(
        doc=doc,
        label=EQUIVALENT if degenerate_node is None else DEGENERATE,
        n_assets=n_assets,
        ids=tuple(ids),
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        live=tuple(live),
        prices=arr_prices,
        prob=arr_prob,
        leaves=tuple(leaves),
        degenerate_node=degenerate_node,
    )


def leaf_map(market: Market, values) -> dict[str, str]:
    """Leaf-id -> decimal-string map as the scenario format expects."""
    return {lid: repr(float(v)) for lid, v in zip(market.leaf_ids, values)}


def random_endowment(draw: Draw, market: Market) -> np.ndarray:
    return draw.uniform(-1.0, 1.0, size=market.n_leaves)


def random_claim(draw: Draw, market: Market) -> np.ndarray:
    """A call or put on the first asset, struck near its initial price."""
    s_t = market.leaf_prices()[:, 0]
    strike = market.prices[0, 0] * draw.uniform(0.9, 1.1)
    if draw.integers(0, 2):
        return np.maximum(s_t - strike, 0.0)
    return np.maximum(strike - s_t, 0.0)


def one_step_weights(market: Market, node: int) -> np.ndarray | None:
    """Strictly positive martingale weights on the node's children, or None.

    Uses SciPy's HiGHS LP (maximize the smallest weight), which shares no
    code with the package under test.
    """
    from scipy.optimize import linprog

    kids = market.children[node]
    n = len(kids)
    d_s = np.array([market.prices[c] - market.prices[node] for c in kids])  # (n, d)
    # variables: w (n), t; maximize t s.t. d_s^T w = 0, sum w = 1, w - t >= 0
    a_eq = np.zeros((market.n_assets + 1, n + 1))
    a_eq[:market.n_assets, :n] = d_s.T
    a_eq[market.n_assets, :n] = 1.0
    b_eq = np.zeros(market.n_assets + 1)
    b_eq[-1] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0 or res.x[-1] <= 1e-9:
        return None
    return res.x[:n]
