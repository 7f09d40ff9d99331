"""Finite scenario-tree markets.

A market is an event tree: each node carries a time index, a vector of asset
prices and a branch probability conditional on its parent.  Leaves live at the
common horizon ``T`` and carry the terminal information; endowments and claim
payoffs are leaf-indexed random variables.

Scenario file schema (JSON, documented in the README):

.. code-block:: json

    {
      "version": 1,
      "assets": ["S"],
      "nodes": [
        {"id": "root", "parent": null, "t": 0, "prices": ["1"], "prob": "1"},
        {"id": "u", "parent": "root", "t": 1, "prices": ["2"], "prob": "0.5"},
        {"id": "d", "parent": "root", "t": 1, "prices": ["0.5"], "prob": "0.5"}
      ],
      "endowment": {"u": "0", "d": "0"},
      "claims": {"call": {"u": "1", "d": "0"}}
    }

Prices and probabilities are decimal strings, converted to binary floats once
at load time; the original strings are kept so that serialization round-trips
bit-exactly.  Unknown fields are rejected.  Trees are immutable after
construction and safe to share across threads.

Each tree also carries a level-order layout (:class:`TreeLayout`): nodes are
numbered ``nonleaf_ids + leaf_ids``, so time levels are contiguous, every
node's children are consecutive, and the leaves come last in leaf order.
With each node's parent index, prices, branch probability and leaf slice
as arrays, every per-node conditional expectation is a subtree sum
(:meth:`MarketTree.subtree_sums`, :meth:`MarketTree.one_step_expectation`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError, InvalidTreeError, ParseError, ZeroMassError

MAX_LEAVES_DEFAULT = 100_000

_SCENARIO_FIELDS = {"version", "assets", "nodes", "endowment", "claims"}
_NODE_FIELDS = {"id", "parent", "t", "prices", "prob"}
_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class NodeRecord:
    """One event-tree node; retains the decimal strings it was parsed from."""

    id: str
    parent: str | None
    t: int
    prices: tuple[float, ...]
    prob: float
    price_strs: tuple[str, ...]
    prob_str: str


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A leaf-indexed (terminal) quantity: endowments and claim payoffs.

    Supports pointwise addition/subtraction with other random variables on
    the same leaf set, and addition/multiplication by scalars.
    """

    values: Mapping[str, float]

    def as_array(self, tree: "MarketTree") -> np.ndarray:
        """Values in the tree's canonical leaf order; validates coverage."""
        missing = [l for l in tree.leaf_ids if l not in self.values]
        if missing:
            raise ParseError(f"random variable missing leaves: {missing[:5]}")
        extra = set(self.values) - set(tree.leaf_ids)
        if extra:
            raise ParseError(f"random variable has unknown leaves: {sorted(extra)[:5]}")
        return np.array([float(self.values[l]) for l in tree.leaf_ids])

    @staticmethod
    def constant(tree: "MarketTree", c: float) -> "RandomVariable":
        return RandomVariable({l: float(c) for l in tree.leaf_ids})

    @staticmethod
    def from_array(tree: "MarketTree", arr) -> "RandomVariable":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (tree.n_leaves,):
            raise ValueError(f"expected shape ({tree.n_leaves},), got {arr.shape}")
        return RandomVariable(dict(zip(tree.leaf_ids, arr.tolist())))

    def _combine(self, other, op):
        if isinstance(other, RandomVariable):
            if set(self.values) != set(other.values):
                raise ValueError("random variables live on different leaf sets")
            return RandomVariable({k: op(v, other.values[k]) for k, v in self.values.items()})
        if isinstance(other, (int, float)):
            return RandomVariable({k: op(v, float(other)) for k, v in self.values.items()})
        return NotImplemented

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return RandomVariable({k: v * float(other) for k, v in self.values.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


@dataclass(frozen=True, eq=False)
class TreeLayout:
    """Level-order numbering of a tree's N nodes; arrays are read-only."""

    ids: tuple[str, ...]           # nonleaf_ids + leaf_ids
    parent: np.ndarray             # (N,) parent index; 0 at the root
    level_starts: tuple[int, ...]  # time-t nodes: level_starts[t]:level_starts[t + 1]
    first_child: np.ndarray        # (N - L,) first child of each non-leaf node
    prices: np.ndarray             # (N, d)
    prob: np.ndarray               # (N,) branch probability given the parent; 1 at the root
    lo: np.ndarray                 # (N,) leaf slice [lo, hi) of each node
    hi: np.ndarray

    def __post_init__(self):
        for a in (self.parent, self.first_child, self.prices, self.prob, self.lo, self.hi):
            a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class AdaptedProcess:
    """Node-indexed values known at that node (wealth, strategies, prices).

    Values may be scalars or per-node vectors (e.g. a strategy in d assets).
    """

    values: Mapping[str, object]

    def at(self, node_id: str):
        return self.values[node_id]

    def __contains__(self, node_id):
        return node_id in self.values


class MarketTree:
    """Immutable finite scenario-tree market.

    Construct via :func:`load_market` or :func:`market_from_dict`; direct
    instantiation is internal.  Leaves are stored in depth-first order so
    every node's subtree occupies a contiguous leaf slice.
    """

    __slots__ = (
        "assets", "nodes", "endowment", "claims", "layout",
        "_by_id", "_children", "_root", "_horizon",
        "_leaf_ids", "_leaf_pos", "_pos", "_p_leaf", "_node_prob", "_nodes_at",
    )

    def __init__(self, assets, nodes, endowment, claims, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use load_market or market_from_dict to build trees")
        self.assets = assets
        self.nodes = nodes
        self.endowment = endowment
        self.claims = claims

    # -- structure accessors ------------------------------------------------

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def root_id(self) -> str:
        return self._root

    @property
    def leaf_ids(self) -> tuple[str, ...]:
        return self._leaf_ids

    @property
    def n_leaves(self) -> int:
        return len(self._leaf_ids)

    @property
    def nonleaf_ids(self) -> tuple[str, ...]:
        """Non-leaf node ids, by time then depth-first order."""
        return self.layout.ids[:self.layout.level_starts[-2]]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def node(self, node_id: str) -> NodeRecord:
        return self._by_id[node_id]

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def parent(self, node_id: str) -> str | None:
        return self._by_id[node_id].parent

    def time(self, node_id: str) -> int:
        return self._by_id[node_id].t

    def is_leaf(self, node_id: str) -> bool:
        return not self._children[node_id]

    def price(self, node_id: str) -> np.ndarray:
        return np.array(self._by_id[node_id].prices)

    def nodes_at(self, t: int) -> tuple[str, ...]:
        return self._nodes_at[t]

    def leaf_slice(self, node_id: str) -> tuple[int, int]:
        """Contiguous [lo, hi) range of leaf indices under ``node_id``."""
        k = self._pos[node_id]
        return int(self.layout.lo[k]), int(self.layout.hi[k])

    def leaves_under(self, node_id: str) -> tuple[str, ...]:
        lo, hi = self.leaf_slice(node_id)
        return self._leaf_ids[lo:hi]

    def leaf_index(self, leaf_id: str) -> int:
        return self._leaf_pos[leaf_id]

    def node_probability(self, node_id: str) -> float:
        """Unconditional probability of passing through ``node_id``."""
        return self._node_prob[node_id]

    @property
    def leaf_probability_array(self) -> np.ndarray:
        return self._p_leaf

    def subtree_sums(self, v) -> np.ndarray:
        """Sums of a leaf array, or of a stack (..., L) of them, over every
        node's leaf slice: shape (..., N) in layout order, one
        ``np.add.reduceat`` per level."""
        v, lay = np.asarray(v, dtype=float), self.layout
        return np.concatenate(
            [np.add.reduceat(v, lay.lo[a:b], axis=-1)
             for a, b in zip(lay.level_starts, lay.level_starts[1:])], axis=-1)

    def one_step_expectation(self, x, q):
        """``(E_q[x_child | n], q-mass of n)`` for every non-leaf node n.

        ``x`` is node-indexed in layout order, (N,) or (N, k); ``q`` is a leaf
        measure or a stack (..., L) of them.  Returns arrays of shape
        (..., n[, k]) and (..., n) over the non-leaf nodes in layout order;
        the expectation is NaN (0/0) where the mass of a measure is 0.
        """
        lay, x = self.layout, np.asarray(x, dtype=float)
        mass = self.subtree_sums(q)
        inner, tail = lay.level_starts[-2], (...,) + (None,) * (x.ndim - 1)
        num = np.add.reduceat(mass[..., 1:][tail] * x[1:], lay.first_child - 1,
                              axis=mass.ndim - 1)
        m = mass[..., :inner]
        with np.errstate(invalid="ignore"):  # 0/0 at nodes without mass
            return num / m[tail], m

    def gains(self, h) -> np.ndarray:
        """Gains (N,) at every node of a strategy ``h`` (n, d) on the non-leaf
        nodes, in layout order: 0 at the root, then one step per level,
        ``G[child] = G[parent] + h[parent].(S_child - S_parent)``."""
        lay, g = self.layout, np.zeros(len(self.layout.ids))
        for a, b in zip(lay.level_starts[1:], lay.level_starts[2:]):
            n = lay.parent[a:b]
            g[a:b] = g[n] + np.einsum("nd,nd->n", h[n], lay.prices[a:b] - lay.prices[n])
        return g

    def __repr__(self):
        return (f"MarketTree(T={self.horizon}, assets={list(self.assets)}, "
                f"nodes={len(self.nodes)}, leaves={self.n_leaves})")


_BUILD_TOKEN = object()


def _finish_tree(tree: MarketTree) -> None:
    by_id = {n.id: n for n in tree.nodes}
    children: dict[str, list[str]] = {n.id: [] for n in tree.nodes}
    root = None
    for n in tree.nodes:
        if n.parent is None:
            root = n.id
        else:
            children[n.parent].append(n.id)
    tree._by_id = by_id
    tree._children = {k: tuple(v) for k, v in children.items()}
    tree._root = root
    tree._horizon = max(n.t for n in tree.nodes)

    # depth-first leaf order, child order as in the file; each level in that
    # order; an explicit stack, so depth is not bounded by Python recursion
    leaf_ids: list[str] = []
    node_prob: dict[str, float] = {root: 1.0}
    levels: list[list[str]] = [[] for _ in range(tree._horizon + 1)]
    stack = [root]
    while stack:
        nid = stack.pop()
        levels[by_id[nid].t].append(nid)
        kids = tree._children[nid]
        if not kids:
            leaf_ids.append(nid)
        for c in kids:
            node_prob[c] = node_prob[nid] * by_id[c].prob
        stack.extend(reversed(kids))
    tree._leaf_ids = tuple(leaf_ids)
    tree._leaf_pos = {l: i for i, l in enumerate(leaf_ids)}
    tree._node_prob = node_prob
    p = np.array([node_prob[l] for l in leaf_ids])
    p.setflags(write=False)
    tree._p_leaf = p
    tree._nodes_at = {t: tuple(level) for t, level in enumerate(levels)}

    ids = tuple(nid for level in levels for nid in level)
    tree._pos = pos = {nid: k for k, nid in enumerate(ids)}
    parent = np.array([0] + [pos[by_id[nid].parent] for nid in ids[1:]], dtype=np.intp)
    starts = tuple(np.cumsum([0] + [len(level) for level in levels]).tolist())
    first = np.searchsorted(parent[1:], np.arange(starts[-2])) + 1
    # leaf slices, bottom up: a node spans its first child's lo to its last child's hi
    lo = np.arange(len(ids), dtype=np.intp) - starts[-2]
    hi, last = lo + 1, np.append(first[1:], len(ids)) - 1
    for a, b in zip(starts[-3::-1], starts[-2:0:-1]):
        lo[a:b], hi[a:b] = lo[first[a:b]], hi[last[a:b]]
    tree.layout = TreeLayout(
        ids, parent, starts, first, np.array([by_id[nid].prices for nid in ids]),
        np.array([by_id[nid].prob for nid in ids]), lo, hi)


def _decimal(value, where):
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a decimal string, got {type(value).__name__}")
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"{where}: not a decimal string: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"{where}: non-finite value {value!r}")
    return x


def _leaf_map(raw, leaf_set, where):
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object mapping leaf ids to decimals")
    out = {}
    for k, v in raw.items():
        if k not in leaf_set:
            raise ParseError(f"{where}: unknown leaf id {k!r}")
        if isinstance(v, str):
            out[k] = _decimal(v, f"{where}[{k}]")
        elif isinstance(v, (int, float)) and math.isfinite(v):
            out[k] = float(v)
        else:
            raise ParseError(f"{where}[{k}]: expected a finite decimal")
    missing = leaf_set - set(out)
    if missing:
        raise ParseError(f"{where}: missing leaves {sorted(missing)[:5]}")
    return out


def market_from_dict(doc: dict, max_leaves: int = MAX_LEAVES_DEFAULT) -> MarketTree:
    """Validate a scenario document and build an immutable market tree."""
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be an object")
    unknown = set(doc) - _SCENARIO_FIELDS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    if doc.get("version") != 1:
        raise ParseError(f"unsupported version: {doc.get('version')!r}")
    assets = doc.get("assets")
    if (not isinstance(assets, list) or not assets
            or not all(isinstance(a, str) for a in assets)):
        raise ParseError("assets must be a non-empty list of names")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ParseError("nodes must be a non-empty list")

    records = []
    seen = set()
    for i, rn in enumerate(raw_nodes):
        if not isinstance(rn, dict):
            raise ParseError(f"nodes[{i}]: expected an object")
        unknown = set(rn) - _NODE_FIELDS
        if unknown:
            raise ParseError(f"nodes[{i}]: unknown fields {sorted(unknown)}")
        missing = _NODE_FIELDS - set(rn)
        if missing:
            raise ParseError(f"nodes[{i}]: missing fields {sorted(missing)}")
        nid = rn["id"]
        if not isinstance(nid, str) or not nid:
            raise ParseError(f"nodes[{i}]: id must be a non-empty string")
        if nid in seen:
            raise InvalidTreeError(f"duplicate node id {nid!r}", node_id=nid)
        seen.add(nid)
        parent = rn["parent"]
        if parent is not None and not isinstance(parent, str):
            raise ParseError(f"node {nid!r}: parent must be a string or null")
        t = rn["t"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ParseError(f"node {nid!r}: t must be a non-negative integer")
        prices = rn["prices"]
        if not isinstance(prices, list) or len(prices) != len(assets):
            raise ParseError(f"node {nid!r}: prices must list one decimal per asset")
        price_vals = tuple(_decimal(s, f"node {nid!r} price") for s in prices)
        prob = _decimal(rn["prob"], f"node {nid!r} prob")
        records.append(NodeRecord(nid, parent, t, price_vals, prob,
                                  tuple(prices), rn["prob"]))

    # structural invariants
    by_id = {n.id: n for n in records}
    roots = [n for n in records if n.parent is None]
    if len(roots) != 1:
        raise InvalidTreeError(f"expected exactly one root, found {len(roots)}",
                               node_id=roots[1].id if len(roots) > 1 else None)
    root = roots[0]
    if root.t != 0:
        raise InvalidTreeError("root must have t=0", node_id=root.id)
    if not (root.prob == 1.0):
        raise InvalidTreeError("root prob must be 1", node_id=root.id)
    children: dict[str, list[str]] = {n.id: [] for n in records}
    for n in records:
        if n.parent is None:
            continue
        p = by_id.get(n.parent)
        if p is None:
            raise InvalidTreeError(f"node {n.id!r}: parent {n.parent!r} does not exist",
                                   node_id=n.id)
        if n.t != p.t + 1:
            raise InvalidTreeError(
                f"node {n.id!r}: time {n.t} is not parent time {p.t} plus one",
                node_id=n.id)
        children[n.parent].append(n.id)
    horizon = max(n.t for n in records)
    if horizon == 0:
        raise InvalidTreeError("tree has no trading period: the root is its only node",
                               node_id=root.id)
    for n in records:
        if not children[n.id] and n.t != horizon:
            raise InvalidTreeError(
                f"leaf {n.id!r} at time {n.t}, but horizon is {horizon}", node_id=n.id)
        if not (0.0 < n.prob <= 1.0):
            raise InvalidTreeError(
                f"node {n.id!r}: branch probability {n.prob} outside (0, 1]",
                node_id=n.id)
    for n in records:
        kids = children[n.id]
        if kids:
            s = math.fsum(by_id[c].prob for c in kids)
            if abs(s - 1.0) > _PROB_SUM_TOL:
                raise InvalidTreeError(
                    f"node {n.id!r}: child probabilities sum to {s!r}, not 1 "
                    "(probabilities sum != 1)", node_id=n.id)
    n_leaves = sum(1 for n in records if not children[n.id])
    if n_leaves > max_leaves:
        raise InvalidTreeError(
            f"tree has {n_leaves} leaves, above the configured cap {max_leaves}")

    leaf_set = {n.id for n in records if not children[n.id]}
    endow_raw = doc.get("endowment")
    endowment = (RandomVariable(_leaf_map(endow_raw, leaf_set, "endowment"))
                 if endow_raw is not None
                 else RandomVariable({l: 0.0 for l in leaf_set}))
    claims_raw = doc.get("claims", {})
    if not isinstance(claims_raw, dict):
        raise ParseError("claims must be an object of named leaf maps")
    claims = {name: RandomVariable(_leaf_map(v, leaf_set, f"claims[{name}]"))
              for name, v in claims_raw.items()}

    tree = MarketTree(tuple(assets), tuple(records), endowment, claims,
                      _token=_BUILD_TOKEN)
    _finish_tree(tree)
    # derived leaf probabilities must form a probability vector
    total = float(tree._p_leaf.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvalidTreeError(f"leaf probabilities sum to {total!r}, not 1")
    return tree


def load_market(path, max_leaves: int = MAX_LEAVES_DEFAULT) -> MarketTree:
    """Load and validate a scenario file; see the module docstring for schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return market_from_dict(doc, max_leaves=max_leaves)


def market_to_dict(tree: MarketTree) -> dict:
    """Inverse of :func:`market_from_dict`; decimal strings are preserved."""
    return {
        "version": 1,
        "assets": list(tree.assets),
        "nodes": [
            {"id": n.id, "parent": n.parent, "t": n.t,
             "prices": list(n.price_strs), "prob": n.prob_str}
            for n in tree.nodes
        ],
        "endowment": {l: repr(v) for l, v in tree.endowment.values.items()},
        "claims": {name: {l: repr(v) for l, v in rv.values.items()}
                   for name, rv in tree.claims.items()},
    }


def save_market(tree: MarketTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(market_to_dict(tree), fh, indent=2, sort_keys=False)
        fh.write("\n")


# -- leaf-indexed helpers ----------------------------------------------------

def leaf_values(tree: MarketTree, x) -> np.ndarray:
    """Coerce a RandomVariable / mapping / array / scalar to leaf order."""
    if isinstance(x, RandomVariable):
        return x.as_array(tree)
    if isinstance(x, Mapping):
        return RandomVariable(dict(x)).as_array(tree)
    if isinstance(x, (int, float)):
        return np.full(tree.n_leaves, float(x))
    arr = np.asarray(x, dtype=float)
    if arr.shape != (tree.n_leaves,):
        raise ValueError(f"expected {tree.n_leaves} leaf values, got shape {arr.shape}")
    return arr


def leaf_probabilities(tree: MarketTree) -> dict[str, float]:
    """Reference probabilities of the leaves (products of branch probabilities)."""
    return dict(zip(tree.leaf_ids, tree.leaf_probability_array.tolist()))


_RAISE = object()


def condition(tree: MarketTree, x, q, node: str, on_zero_mass=_RAISE) -> float:
    """Weighted conditional average of ``x`` given the subtree at ``node``.

    ``q`` is a non-negative leaf weighting (a measure, not necessarily
    normalized).  Returns ``sum(q*x)/sum(q)`` over the leaves under ``node``.
    If the subtree mass vanishes, raises :class:`ZeroMassError` unless the
    caller supplies ``on_zero_mass`` as the value of the 0/0 convention.
    """
    xs = leaf_values(tree, x)
    qs = leaf_values(tree, q)
    lo, hi = tree.leaf_slice(node)
    sub = qs[lo:hi]
    if np.any(sub < 0):
        raise DomainError(f"negative weights on subtree at {node!r}")
    mass = float(sub.sum())
    if mass <= 0.0:
        if on_zero_mass is _RAISE:
            raise ZeroMassError(
                f"subtree at {node!r} has zero mass; conditional expectation undefined")
        return float(on_zero_mass)
    return float(np.dot(sub, xs[lo:hi]) / mass)
