"""Finite scenario-tree markets.

A market is an event tree: each node carries a time index, a vector of asset
prices and a branch probability conditional on its parent.  Leaves live at the
common horizon ``T`` and carry the terminal information; the endowment and the
claim payoffs are random variables on the leaves.  Scenario data and results
are arrays in the tree's order: (L,) in leaf order on the leaves, (N,) in
layout order on the nodes.

Scenario file schema (JSON).  Each node has exactly the fields ``id``,
``parent`` (null at the one root), ``t`` (0 at the root, else the parent's
plus one), ``prices`` (one per asset) and ``prob`` (in (0, 1], 1 at the root,
summing to 1 over siblings); every leaf is at the horizon.  The optional
``endowment`` and each of the ``claims`` map every leaf id, and no other key,
to a decimal string or a finite number:

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

A tree's structure is its level-order layout (:class:`TreeLayout`), built
once from the file's columns: nodes are numbered ``nonleaf_ids + leaf_ids``,
so time levels are contiguous, every node's children are consecutive, and
the leaves come last in leaf order.  With each node's parent index, prices,
branch probability and leaf slice as arrays, a measure's exact form is its
node log masses l (:meth:`MarketTree.log_subtree_sums`), and conditional
expectations weigh by exp(l_c - l_n), without division
(:meth:`MarketTree.one_step_expectation`, ``conditional_expectation``).  The
endowment (zero when the file has none) and each claim are read-only (L,)
arrays; for the round trip the tree keeps each file row's layout position
and decimal strings.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter
from typing import Mapping

import numpy as np

from .errors import DomainError, InvalidTreeError, ParseError

MAX_LEAVES_DEFAULT = 100_000

_SCENARIO_FIELDS = {"version", "assets", "nodes", "endowment", "claims"}
_NODE_FIELDS = {"id", "parent", "t", "prices", "prob"}
_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A mapping from leaf id to value, one input form of :func:`leaf_values`;
    inside the package leaf data are (L,) arrays."""

    values: Mapping[str, float]

    @staticmethod
    def from_array(tree: "MarketTree", arr) -> "RandomVariable":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (tree.n_leaves,):
            raise ValueError(f"expected shape ({tree.n_leaves},), got {arr.shape}")
        return RandomVariable(dict(zip(tree.leaf_ids, arr.tolist())))


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


class MarketTree:
    """Immutable finite scenario-tree market.

    Construct via :func:`load_market` or :func:`market_from_dict`; direct
    instantiation is internal.  The level-order :attr:`layout` is the one
    structural representation, and every accessor reads it.  A node is its
    layout position; ids (``layout.ids`` and the id tuples) serve files and
    reports, with no lookup by id.  ``endowment``, each of ``claims`` (by
    name) and :attr:`leaf_probability_array` are read-only (L,) arrays in
    leaf order; :attr:`node_probability_array` is (N,) in layout order.
    The file's columns, for :func:`market_to_dict`, are each row's layout
    position and decimal strings.  Leaves are in depth-first order, so every
    node's subtree occupies a contiguous leaf slice.
    """

    __slots__ = ("assets", "endowment", "claims", "layout", "_leaf_ids",
                 "_node_prob", "_file_pos", "_price_strs", "_prob_strs")

    def __init__(self, assets, endowment, claims, layout, node_prob, file_pos,
                 price_strs, prob_strs, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use load_market or market_from_dict to build trees")
        self.assets = assets
        self.endowment = endowment
        self.claims = claims
        self.layout = layout
        self._leaf_ids = layout.ids[layout.level_starts[-2]:]
        for a in (node_prob, file_pos, price_strs, endowment, *claims.values()):
            a.setflags(write=False)
        self._node_prob = node_prob  # (N,) unconditional, in layout order
        # file order: each row's layout position, price strings (an (N, d)
        # object array) and prob string
        self._file_pos, self._price_strs, self._prob_strs = file_pos, price_strs, prob_strs

    # -- structure accessors ------------------------------------------------

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def horizon(self) -> int:
        return len(self.layout.level_starts) - 2

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
        """Node ids in file order."""
        return tuple(map(self.layout.ids.__getitem__, self._file_pos.tolist()))

    @property
    def node_probability_array(self) -> np.ndarray:
        """Unconditional node probabilities (N,) in layout order."""
        return self._node_prob

    @property
    def leaf_probability_array(self) -> np.ndarray:
        return self._node_prob[self.layout.level_starts[-2]:]

    def subtree_sums(self, v) -> np.ndarray:
        """Sums of a leaf array, or of a stack (..., L) of them, over every
        node's leaf slice: shape (..., N) in layout order, one
        ``np.add.reduceat`` per level."""
        v, lay = np.asarray(v, dtype=float), self.layout
        return np.concatenate(
            [np.add.reduceat(v, lay.lo[a:b], axis=-1)
             for a, b in zip(lay.level_starts, lay.level_starts[1:])], axis=-1)

    def log_subtree_sums(self, log_v) -> np.ndarray:
        """Node log masses (..., N) of leaf log masses, -inf without mass:
        the twin of :meth:`subtree_sums` by ``np.logaddexp``."""
        log_v, lay = np.asarray(log_v, dtype=float), self.layout
        return np.concatenate(
            [np.logaddexp.reduceat(log_v, lay.lo[a:b], axis=-1)
             for a, b in zip(lay.level_starts, lay.level_starts[1:])], axis=-1)

    def one_step_expectation(self, x, ell) -> np.ndarray:
        """E[x_child | n] (..., n[, k]) at the non-leaf nodes of ``x`` (N,) or
        (N, k) under node log masses ``ell`` (..., N), all in layout order:
        weights exp(l_c - l_n), NaN exactly where l_n = -inf."""
        lay, x, ell = self.layout, np.asarray(x, dtype=float), np.asarray(ell, dtype=float)
        top, tail = ell[..., :lay.level_starts[-2]], (...,) + (None,) * (x.ndim - 1)
        w = np.exp(ell[..., 1:] - np.where(top > -np.inf, top, 0.0)[..., lay.parent[1:]])
        num = np.add.reduceat(w[tail] * x[1:], lay.first_child - 1, axis=ell.ndim - 1)
        return np.where((top > -np.inf)[tail], num, np.nan)

    def conditional_expectation(self, v, ell) -> np.ndarray:
        """E[v | n] (..., N) of a leaf array ``v`` under node log masses ``ell``
        (..., N), weights exp(l_leaf - l_n); NaN exactly where l_n = -inf.
        One sum over each level's leaves, which every level covers in order."""
        ell, size = np.asarray(ell, dtype=float), self.layout.hi - self.layout.lo
        on, leaf = ell > -np.inf, np.tile(np.arange(self.n_leaves), self.horizon + 1)
        w = np.exp(ell[..., leaf - self.n_leaves]
                   - np.where(on, ell, 0.0)[..., np.repeat(np.arange(size.size), size)])
        wv = w * np.asarray(v, dtype=float)[leaf]
        return np.where(on, np.add.reduceat(wv, np.cumsum(size) - size, axis=-1), np.nan)

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
                f"nodes={len(self.layout.ids)}, leaves={self.n_leaves})")


_BUILD_TOKEN = object()


def _build_layout(ids, prices, par, t, prob, horizon):
    """The level-order layout, the unconditional node probabilities and each
    node's layout position, from file-order columns (``par``: the file index
    of each node's parent).

    The nodes are grouped by time, and each level is sorted stably by its
    parents' positions: depth-first order, with siblings as in the file.
    """
    n = len(ids)
    order = np.argsort(t, kind="stable")
    starts = np.searchsorted(t[order], np.arange(horizon + 2))
    pos, parent = np.empty(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    pos[order[0]] = 0
    node_prob = np.ones(n)
    for a, b in zip(starts[1:-1], starts[2:]):
        up = pos[par[order[a:b]]]
        sort = np.argsort(up, kind="stable")
        order[a:b], parent[a:b] = order[a:b][sort], up[sort]
        pos[order[a:b]] = np.arange(a, b)
        node_prob[a:b] = node_prob[parent[a:b]] * prob[order[a:b]]
    starts = tuple(starts.tolist())
    first = np.searchsorted(parent[1:], np.arange(starts[-2])) + 1
    # leaf slices, bottom up: a node spans its first child's lo to its last child's hi
    lo = np.arange(n, dtype=np.intp) - starts[-2]
    hi, last = lo + 1, np.append(first[1:], n) - 1
    for a, b in zip(starts[-3::-1], starts[-2:0:-1]):
        lo[a:b], hi[a:b] = lo[first[a:b]], hi[last[a:b]]
    layout = TreeLayout(tuple(map(ids.__getitem__, order.tolist())), parent, starts,
                        first, prices[order], prob[order], lo, hi)
    return layout, node_prob, pos


def _with_assets(tree: MarketTree, names, columns) -> MarketTree:
    """``tree`` with assets ``names`` added, priced by ``columns`` (N, k) in
    layout order; the file rows get ``repr`` strings."""
    extra = [list(map(repr, x)) for x in columns[tree._file_pos].tolist()]
    price_strs = np.hstack([tree._price_strs, np.array(extra, dtype=object)])
    layout = replace(tree.layout, prices=np.hstack([tree.layout.prices, columns]))
    return MarketTree(tree.assets + tuple(names), tree.endowment, tree.claims, layout,
                      tree._node_prob, tree._file_pos, price_strs, tree._prob_strs,
                      _token=_BUILD_TOKEN)


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


def _finite_floats(values, types):
    """``float()`` of every entry of the list ``values`` as one array, or
    None when an entry's type is not in ``types`` (exact types: ``bool`` is
    not ``int``) or it does not convert to a finite float.  On ``str``
    entries this is exactly :func:`_decimal`'s grammar."""
    if not set(map(type, values)) <= types:
        return None
    try:
        x = np.array(list(map(float, values)))
    except (ValueError, OverflowError):
        return None
    return x if np.isfinite(x).all() else None


def _leaf_value(v, where):
    if isinstance(v, str):
        return _decimal(v, where)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError(f"{where}: expected a finite decimal")


def _leaf_array(raw, leaf_pos, where):
    """A leaf map as an (L,) array in the leaf order of ``leaf_pos``.

    When the map's keys are the leaves and every value is a decimal string
    or a finite int or float, one :func:`_finite_floats` pass reads the
    values in leaf order.  Otherwise the per-leaf loop, in the map's order,
    raises for the first unknown leaf or bad value (booleans and ints beyond
    the float range included), then for missing leaves.
    """
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected an object mapping leaf ids to decimals")
    if raw.keys() == leaf_pos.keys():
        out = _finite_floats(list(map(raw.__getitem__, leaf_pos)), {str, int, float})
        if out is not None:
            return out
    vals = []
    for k, v in raw.items():
        if k not in leaf_pos:
            raise ParseError(f"{where}: unknown leaf id {k!r}")
        vals.append(_leaf_value(v, f"{where}[{k}]"))
    if len(vals) < len(leaf_pos):
        missing = sorted(l for l in leaf_pos if l not in raw)
        raise ParseError(f"{where}: missing leaves {missing[:5]}")
    out = np.empty(len(vals))
    out[list(map(leaf_pos.__getitem__, raw))] = vals
    return out


_NODE_GETTERS = tuple(map(itemgetter, ("id", "parent", "t", "prices", "prob")))


def _bulk_columns(raw_nodes, n_assets):
    """The file-order node columns of :func:`_node_columns` from C-level
    passes over the node list (``map``, ``set`` of types, one
    :func:`_finite_floats` per string column), or None when a check refuses
    some node: a node that is not a dict with exactly the node fields, an id
    that is not a non-empty str or repeats, a parent neither str nor None, a
    t not an int >= 0, prices not a list of ``n_assets`` decimal strings, or
    a prob not one.  Exact types throughout: a subclass goes to the loop."""
    if set(map(type, raw_nodes)) != {dict} or set(map(len, raw_nodes)) != {len(_NODE_FIELDS)}:
        return None
    try:  # with five keys each, a node has exactly the fields iff it has them all
        ids, parents, ts, prices, prob_strs = [list(map(g, raw_nodes)) for g in _NODE_GETTERS]
    except KeyError:
        return None
    if set(map(type, ids)) != {str}:  # before hashing them
        return None
    index = dict(zip(ids, range(len(ids))))
    if ("" in index or len(index) < len(ids)
            or not set(map(type, parents)) <= {str, type(None)}
            or set(map(type, ts)) != {int} or min(ts) < 0
            or set(map(type, prices)) != {list} or set(map(len, prices)) != {n_assets}):
        return None
    price_strs = list(chain.from_iterable(prices))
    price_vals, probs = _finite_floats(price_strs, {str}), _finite_floats(prob_strs, {str})
    if price_vals is None or probs is None:
        return None
    return (index, parents, ts, price_vals.reshape(-1, n_assets), probs,
            np.array(price_strs, dtype=object).reshape(-1, n_assets), tuple(prob_strs))


def _node_columns(raw_nodes, n_assets):
    """The node columns in file order: the id -> file row index, parents,
    times, prices (n, d), probabilities and the decimal strings.  The
    per-node loop behind :func:`_bulk_columns`: its checks raise for the
    first bad node in file order."""
    parents, ts, price_vals, probs, price_strs, prob_strs = [], [], [], [], [], []
    index = {}  # file row of each id
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
        if nid in index:
            raise InvalidTreeError(f"duplicate node id {nid!r}", node_id=nid)
        index[nid] = i
        parent = rn["parent"]
        if parent is not None and not isinstance(parent, str):
            raise ParseError(f"node {nid!r}: parent must be a string or null")
        t = rn["t"]
        if not isinstance(t, int) or isinstance(t, bool) or t < 0:
            raise ParseError(f"node {nid!r}: t must be a non-negative integer")
        prices = rn["prices"]
        if not isinstance(prices, list) or len(prices) != n_assets:
            raise ParseError(f"node {nid!r}: prices must list one decimal per asset")
        price_vals.append(tuple(_decimal(s, f"node {nid!r} price") for s in prices))
        probs.append(_decimal(rn["prob"], f"node {nid!r} prob"))
        parents.append(parent)
        ts.append(t)
        price_strs.extend(prices)
        prob_strs.append(rn["prob"])
    return (index, parents, ts, np.array(price_vals), np.array(probs),
            np.array(price_strs, dtype=object).reshape(-1, n_assets), tuple(prob_strs))


def market_from_dict(doc: dict, max_leaves: int = MAX_LEAVES_DEFAULT) -> MarketTree:
    """Validate a scenario document and build an immutable market tree.

    The node columns come from :func:`_bulk_columns`, and from the per-node
    loop :func:`_node_columns` when it refuses, which raises for the first
    bad node in file order (or accepts a node the bulk checks were too
    strict for, such as a ``str`` subclass); the structural checks then run
    on the columns.
    """
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
    index, parents, ts, price_vals, prob, price_strs, prob_strs = (
        _bulk_columns(raw_nodes, len(assets)) or _node_columns(raw_nodes, len(assets)))

    # structural invariants, on the columns; each check names the first
    # offending node in file order
    ids, n = list(index), len(index)
    child = np.fromiter(map(operator.is_not, parents, repeat(None)), bool, n)
    roots = np.flatnonzero(~child)
    if len(roots) != 1:
        raise InvalidTreeError(f"expected exactly one root, found {len(roots)}",
                               node_id=ids[roots[1]] if len(roots) > 1 else None)
    root = roots[0]
    if ts[root] != 0:
        raise InvalidTreeError("root must have t=0", node_id=ids[root])
    if not (prob[root] == 1.0):
        raise InvalidTreeError("root prob must be 1", node_id=ids[root])
    horizon = max(ts)
    # a time beyond int64 is wrong, but exactly so: the check names where
    t = np.array(ts, dtype=np.int64 if horizon < 2**62 else object)
    par = np.fromiter(map(index.get, parents, repeat(-1)), np.intp, n)
    bad = np.flatnonzero(child & ((par < 0) | (t != t[par] + 1)))
    if bad.size:
        k = bad[0]
        if par[k] < 0:
            raise InvalidTreeError(f"node {ids[k]!r}: parent {parents[k]!r} does not exist",
                                   node_id=ids[k])
        raise InvalidTreeError(
            f"node {ids[k]!r}: time {ts[k]} is not parent time {ts[par[k]]} "
            "plus one", node_id=ids[k])
    if horizon == 0:
        raise InvalidTreeError("tree has no trading period: the root is its only node",
                               node_id=ids[root])
    kids = np.bincount(par[child], minlength=len(ids))
    bad = np.flatnonzero(((kids == 0) & (t != horizon)) | ~((0.0 < prob) & (prob <= 1.0)))
    if bad.size:
        k = bad[0]
        if kids[k] == 0 and ts[k] != horizon:
            raise InvalidTreeError(
                f"leaf {ids[k]!r} at time {ts[k]}, but horizon is {horizon}", node_id=ids[k])
        raise InvalidTreeError(
            f"node {ids[k]!r}: branch probability {float(prob[k])} outside (0, 1]", node_id=ids[k])
    # bincount screens the child sums within its rounding error; fsum decides
    sums = np.bincount(par[child], prob[child], minlength=len(ids))
    for k in np.flatnonzero((kids > 0)
                            & (np.abs(sums - 1.0) > _PROB_SUM_TOL - 1e-15 * kids)):
        s = math.fsum(prob[par == k])
        if abs(s - 1.0) > _PROB_SUM_TOL:
            raise InvalidTreeError(
                f"node {ids[k]!r}: child probabilities sum to {s!r}, not 1 "
                "(probabilities sum != 1)", node_id=ids[k])
    n_leaves = int((kids == 0).sum())
    if n_leaves > max_leaves:
        raise InvalidTreeError(
            f"tree has {n_leaves} leaves, above the configured cap {max_leaves}")

    layout, node_prob, pos = _build_layout(ids, price_vals, par, t, prob, horizon)
    leaf_pos = dict(zip(layout.ids[layout.level_starts[-2]:], range(n_leaves)))
    endow_raw = doc.get("endowment")
    endowment = (_leaf_array(endow_raw, leaf_pos, "endowment") if endow_raw is not None
                 else np.zeros(n_leaves))
    claims_raw = doc.get("claims", {})
    if not isinstance(claims_raw, dict):
        raise ParseError("claims must be an object of named leaf maps")
    claims = {name: _leaf_array(v, leaf_pos, f"claims[{name}]")
              for name, v in claims_raw.items()}

    tree = MarketTree(tuple(assets), endowment, claims, layout, node_prob, pos,
                      price_strs, prob_strs, _token=_BUILD_TOKEN)
    # derived leaf probabilities must form a probability vector
    total = float(tree.leaf_probability_array.sum())
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
    lay, pos = tree.layout, tree._file_pos.tolist()
    parent = [None] + list(map(lay.ids.__getitem__, lay.parent[1:].tolist()))
    t = np.repeat(np.arange(tree.horizon + 1), np.diff(lay.level_starts)).tolist()

    def leaf_map(v):  # repr of Python floats, as the loader parses them
        return dict(zip(tree.leaf_ids, map(repr, v.tolist())))

    return {
        "version": 1,
        "assets": list(tree.assets),
        "nodes": [
            {"id": lay.ids[k], "parent": parent[k], "t": t[k],
             "prices": ps, "prob": pr}
            for k, ps, pr in zip(pos, tree._price_strs.tolist(), tree._prob_strs)
        ],
        "endowment": leaf_map(tree.endowment),
        "claims": {name: leaf_map(v) for name, v in tree.claims.items()},
    }


def save_market(tree: MarketTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(market_to_dict(tree), fh, indent=2, sort_keys=False)
        fh.write("\n")


# -- leaf-indexed helpers ----------------------------------------------------

def log_masses(q: np.ndarray) -> np.ndarray:
    """ln of a leaf measure, or of a stack of them: -inf where a mass is 0."""
    return np.log(q, out=np.full(q.shape, -np.inf), where=q > 0)


def leaf_values(tree: MarketTree, x) -> np.ndarray:
    """Coerce an array / scalar / mapping (or :class:`RandomVariable`) from
    leaf id to value to an (L,) array in leaf order; a mapping must name
    every leaf and no other key.  Raises :class:`DomainError` on a NaN or
    infinite value."""
    if isinstance(x, RandomVariable):
        x = x.values
    if isinstance(x, Mapping):
        ids = tree.leaf_ids
        try:
            arr = np.fromiter(map(float, map(x.__getitem__, ids)), float, len(ids))
        except KeyError:
            missing = [l for l in ids if l not in x]
            raise ParseError(f"random variable missing leaves: {missing[:5]}") from None
        if len(x) != len(ids):
            extra = set(x) - set(ids)
            raise ParseError(f"random variable has unknown leaves: {sorted(extra)[:5]}")
    elif isinstance(x, (int, float)):
        arr = np.full(tree.n_leaves, float(x))
    else:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (tree.n_leaves,):
            raise ValueError(f"expected {tree.n_leaves} leaf values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = tree.leaf_ids[int(np.argmin(np.isfinite(arr)))]
        raise DomainError(f"leaf value at {bad!r} is not finite")
    return arr
