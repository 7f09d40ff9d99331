"""Market generators shared by the unit and acceptance tests.

Random trees are built so that an equivalent martingale measure exists by
construction: every node's children carry multiplicative moves whose convex
hull straddles zero (per asset for one asset, as a planar hull for two), so
strictly positive one-step martingale weights exist at every node and
compose into a full-support martingale measure.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from treedual import market_from_dict

DATA = Path(__file__).parent / "data"  # scenario files of pinned instances


def bin1_dict():
    return {
        "version": 1, "assets": ["S"],
        "nodes": [
            {"id": "root", "parent": None, "t": 0, "prices": ["1"], "prob": "1"},
            {"id": "u", "parent": "root", "t": 1, "prices": ["2"], "prob": "0.5"},
            {"id": "d", "parent": "root", "t": 1, "prices": ["0.5"], "prob": "0.5"},
        ],
        "endowment": {"u": "0", "d": "0"},
        "claims": {"call": {"u": "1", "d": "0"}},
    }


def tri1_dict():
    third = "0.3333333333333333"
    last = "0.3333333333333334"
    return {
        "version": 1, "assets": ["S"],
        "nodes": [
            {"id": "root", "parent": None, "t": 0, "prices": ["1"], "prob": "1"},
            {"id": "a", "parent": "root", "t": 1, "prices": ["2"], "prob": third},
            {"id": "b", "parent": "root", "t": 1, "prices": ["1"], "prob": third},
            {"id": "c", "parent": "root", "t": 1, "prices": ["0.5"], "prob": last},
        ],
        "endowment": {"a": "0", "b": "0", "c": "0"},
        "claims": {"up": {"a": "1", "b": "0", "c": "0"}},
    }


def bin1():
    return market_from_dict(bin1_dict())


def tri1():
    return market_from_dict(tri1_dict())


def product_market(move_lists, prob_lists=None, s0=1.0):
    """Non-recombining product tree: one list of multiplicative moves per period.

    A move is a number (one asset) or a tuple with one factor per asset, in
    which case ``s0`` may be a tuple of initial prices.
    """
    s0 = np.broadcast_to(np.asarray(s0, dtype=float),
                         np.shape(move_lists[0][0]) or (1,))
    n_assets = s0.size
    nodes = [{"id": "r", "parent": None, "t": 0,
              "prices": [repr(float(x)) for x in s0], "prob": "1"}]
    frontier = [("r", s0)]
    for t, moves in enumerate(move_lists, start=1):
        probs = (prob_lists[t - 1] if prob_lists is not None
                 else [1.0 / len(moves)] * len(moves))
        new_frontier = []
        for pid, price in frontier:
            for k, (m, pr) in enumerate(zip(moves, probs)):
                nid = f"{pid}.{k}"
                child = price * np.asarray(m, dtype=float)
                nodes.append({"id": nid, "parent": pid, "t": t,
                              "prices": [repr(float(x)) for x in child],
                              "prob": repr(pr)})
                new_frontier.append((nid, child))
        frontier = new_frontier
    assets = ["S"] if n_assets == 1 else [f"S{i}" for i in range(n_assets)]
    return market_from_dict({"version": 1, "assets": assets, "nodes": nodes})


def _straddling_moves_1d(rng, n_children):
    """Multiplicative moves with at least one above and one below 1."""
    ups = rng.uniform(1.05, 1.9, size=max(1, n_children // 2))
    downs = rng.uniform(0.5, 0.95, size=n_children - len(ups))
    moves = np.concatenate([ups, downs])
    rng.shuffle(moves)
    return moves[:, None]


def _straddling_moves_2d(rng):
    """Three planar moves whose hull strictly contains the origin.

    Each angle lies within less than pi/6 of 0, 2pi/3 or 4pi/3, so every
    angular gap between neighbours is below pi.
    """
    jitter = np.pi / 6
    angles = np.array([rng.uniform(-jitter, jitter),
                       2 * np.pi / 3 + rng.uniform(-jitter, jitter),
                       4 * np.pi / 3 + rng.uniform(-jitter, jitter)])
    radii = rng.uniform(0.15, 0.4, size=3)
    z = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    return 1.0 + z  # multiplicative move per asset


def random_market(rng, max_periods=3, n_assets=1):
    """Random full-support tree with an equivalent martingale measure."""
    T = int(rng.integers(1, max_periods + 1))
    nodes = []
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    s0 = rng.uniform(0.8, 1.2, size=n_assets)
    root = fresh()
    nodes.append({"id": root, "parent": None, "t": 0,
                  "prices": [repr(float(x)) for x in s0], "prob": "1"})
    frontier = [(root, s0)]
    for t in range(1, T + 1):
        new_frontier = []
        for pid, price in frontier:
            if n_assets == 1:
                n_children = int(rng.integers(2, 4))
                moves = _straddling_moves_1d(rng, n_children)
            else:
                moves = _straddling_moves_2d(rng)
            raw = rng.uniform(0.2, 1.0, size=len(moves))
            probs = raw / raw.sum()
            probs = np.round(probs, 12)
            probs[-1] = 1.0 - probs[:-1].sum()
            for m, pr in zip(moves, probs):
                nid = fresh()
                child_price = price * m
                nodes.append({"id": nid, "parent": pid, "t": t,
                              "prices": [repr(float(x)) for x in child_price],
                              "prob": repr(float(pr))})
                new_frontier.append((nid, child_price))
        frontier = new_frontier
    return market_from_dict({"version": 1,
                             "assets": [f"S{i}" for i in range(n_assets)],
                             "nodes": nodes})


def random_endowment(rng, tree, scale=1.0):
    return rng.uniform(-scale, scale, size=tree.n_leaves)


def sample_measures(tree, n, seed=0):
    """Seeded random martingale probabilities on the maximal support, a
    stack (n, L) in leaf order: each multiplies, along the paths, a
    uniformly random mixture of each node's valid one-step vertices."""
    from treedual.geometry import _support_structure

    geo, lay = _support_structure(tree), tree.layout
    rng = np.random.default_rng(seed)
    out = np.empty((n, tree.n_leaves))
    for row in out:
        mass = geo.one_step(rng.exponential(size=geo.node.size))
        for a, b in zip(lay.level_starts[1:-1], lay.level_starts[2:]):
            mass[a:b] *= mass[lay.parent[a:b]]
        row[:] = mass[lay.level_starts[-2]:]
    return out


def dead_leaf_market():
    """One-period market where one leaf is charged by no martingale measure.

    Children prices 2 and 1 around 1: any martingale weighting must put all
    mass on the unmoved branch, so the up leaf is dead and no equivalent
    measure exists (but the polytope is non-empty).
    """
    return market_from_dict({
        "version": 1, "assets": ["S"],
        "nodes": [
            {"id": "root", "parent": None, "t": 0, "prices": ["1"], "prob": "1"},
            {"id": "up", "parent": "root", "t": 1, "prices": ["2"], "prob": "0.5"},
            {"id": "flat", "parent": "root", "t": 1, "prices": ["1"], "prob": "0.5"},
        ],
    })


def caterpillar_market(depth=40, jump=1e10):
    """One asset, spine s0 .. s{depth}: spine node s{t-1}, at price
    (t - 1) jump, has two children of probability 0.5, s{t} at t jump and a
    side child x{t} one below its parent, which continues at its own price
    as a probability-1 chain to the horizon.  Every node's one-step
    martingale weight on the spine is 1/(jump + 1), so with the defaults the
    deepest path products (~1e-400) underflow, though every leaf is charged
    by an equivalent martingale measure (depth + 1 leaves)."""
    nodes = [{"id": "s0", "parent": None, "t": 0, "prices": ["0.0"], "prob": "1"}]
    for t in range(1, depth + 1):
        side = repr((t - 1) * jump - 1.0)
        nodes += [{"id": f"s{t}", "parent": f"s{t - 1}", "t": t,
                   "prices": [repr(t * jump)], "prob": "0.5"},
                  {"id": f"x{t}", "parent": f"s{t - 1}", "t": t,
                   "prices": [side], "prob": "0.5"}]
        nodes += [{"id": f"x{t}.{u}", "parent": f"x{t}" if u == t + 1 else f"x{t}.{u - 1}",
                   "t": u, "prices": [side], "prob": "1"} for u in range(t + 1, depth + 1)]
    return market_from_dict({"version": 1, "assets": ["S"], "nodes": nodes})


def arbitrage_market():
    """Both children strictly above the root price: no martingale measure."""
    return market_from_dict({
        "version": 1, "assets": ["S"],
        "nodes": [
            {"id": "root", "parent": None, "t": 0, "prices": ["1"], "prob": "1"},
            {"id": "u", "parent": "root", "t": 1, "prices": ["2"], "prob": "0.5"},
            {"id": "d", "parent": "root", "t": 1, "prices": ["1.5"], "prob": "0.5"},
        ],
    })


def acceptance_suite(n_instances=50, seed=20240801):
    """The random instance suite used by the acceptance criteria.

    Alternates utility families and asset counts; every instance has a
    full-support martingale measure by construction.
    """
    from treedual import exponential_utility, two_power_utility

    rng = np.random.default_rng(seed)
    out = []
    for k in range(n_instances):
        n_assets = 2 if k % 4 == 3 else 1
        tree = random_market(rng, max_periods=3, n_assets=n_assets)
        if k % 2 == 0:
            pair = exponential_utility(float(rng.uniform(0.5, 2.0)), 2.0)
        else:
            pair = two_power_utility(float(rng.uniform(0.3, 0.7)),
                                     float(rng.uniform(0.5, 1.5)), 1.0)
        endow = random_endowment(rng, tree)
        out.append((tree, pair, endow))
    return out
