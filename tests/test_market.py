import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegen
from treedual import market, pricing
from treedual import (DomainError, InvalidTreeError, ParseError, RandomVariable, TreedualError,
                      check_mubpp, exponential_utility, leaf_values, load_market,
                      market_from_dict, market_to_dict, price_report,
                      save_market, solve_dual, two_power_utility)

_RAISE = object()


def condition(tree, x, q, node, on_zero_mass=_RAISE):
    """Reference weighted average ``sum(q x) / sum(q)`` of ``x`` over the
    leaves under ``node``, for a leaf weighting ``q``.  A subtree without
    mass raises ZeroDivisionError unless ``on_zero_mass`` gives the value."""
    xs, qs = leaf_values(tree, x), leaf_values(tree, q)
    k = tree.layout.ids.index(node)
    lo, hi = tree.layout.lo[k], tree.layout.hi[k]
    mass = float(qs[lo:hi].sum())
    if mass <= 0.0:
        if on_zero_mass is _RAISE:
            raise ZeroDivisionError(f"subtree at {node!r} has zero mass")
        return float(on_zero_mass)
    return float(np.dot(qs[lo:hi], xs[lo:hi]) / mass)


def leaf_probabilities(tree):
    return dict(zip(tree.leaf_ids, tree.leaf_probability_array.tolist()))


def child_positions(lay, n):
    """Layout positions of the children of the node at position ``n``."""
    return [c for c in range(1, len(lay.ids)) if lay.parent[c] == n]


def test_bin1_loads(bin1):
    assert len(bin1.node_ids) == 3
    assert bin1.n_leaves == 2
    assert bin1.horizon == 1
    assert bin1.layout.ids == ("root", "u", "d")
    assert child_positions(bin1.layout, 0) == [1, 2]
    assert bin1.layout.prices[1].tolist() == [2.0]


def test_tri1_loads(tri1):
    assert len(tri1.node_ids) == 4
    assert tri1.n_leaves == 3


def test_root_only_tree_rejected():
    # horizon 0 leaves nothing to trade and no one-step polytope to solve
    doc = {"version": 1, "assets": ["S"],
           "nodes": [{"id": "root", "parent": None, "t": 0, "prices": ["1"],
                      "prob": "1"}]}
    with pytest.raises(InvalidTreeError, match="only node") as exc:
        market_from_dict(doc)
    assert exc.value.node_id == "root"


def test_probability_sum_violation_rejected():
    doc = treegen.bin1_dict()
    doc["nodes"][1]["prob"] = "0.6"
    doc["nodes"][2]["prob"] = "0.5"
    with pytest.raises(InvalidTreeError, match="sum"):
        market_from_dict(doc)


def test_unknown_fields_rejected():
    doc = treegen.bin1_dict()
    doc["flavour"] = "vanilla"
    with pytest.raises(ParseError, match="unknown top-level"):
        market_from_dict(doc)
    doc = treegen.bin1_dict()
    doc["nodes"][0]["colour"] = "red"
    with pytest.raises(ParseError, match="unknown fields"):
        market_from_dict(doc)


def test_structural_violations_name_the_node():
    doc = treegen.bin1_dict()
    doc["nodes"][1]["parent"] = "ghost"
    with pytest.raises(InvalidTreeError) as exc:
        market_from_dict(doc)
    assert exc.value.node_id == "u"

    doc = treegen.bin1_dict()
    doc["nodes"][1]["t"] = 2
    with pytest.raises(InvalidTreeError):
        market_from_dict(doc)

    doc = treegen.bin1_dict()
    doc["nodes"].append({"id": "root2", "parent": None, "t": 0,
                         "prices": ["1"], "prob": "1"})
    with pytest.raises(InvalidTreeError, match="one root"):
        market_from_dict(doc)


def test_decimal_strings_required():
    doc = treegen.bin1_dict()
    doc["nodes"][1]["prob"] = 0.5
    with pytest.raises(ParseError, match="decimal string"):
        market_from_dict(doc)
    doc = treegen.bin1_dict()
    doc["nodes"][1]["prices"] = ["inf"]
    with pytest.raises(ParseError, match="non-finite"):
        market_from_dict(doc)


def test_leaf_cap():
    with pytest.raises(InvalidTreeError, match="cap"):
        market_from_dict(treegen.tri1_dict(), max_leaves=2)


def test_leaf_probabilities(bin1, tri1):
    assert leaf_probabilities(bin1) == {"u": 0.5, "d": 0.5}
    probs = leaf_probabilities(tri1)
    assert probs["a"] == pytest.approx(1 / 3, abs=1e-15)
    two = treegen.product_market([[2.0, 0.5], [2.0, 0.5]])
    vals = list(leaf_probabilities(two).values())
    assert len(vals) == 4
    assert vals == pytest.approx([0.25] * 4)
    assert math.fsum(vals) == pytest.approx(1.0, abs=1e-12)


def test_condition_examples(tri1):
    x = {"a": 1.0, "b": 0.0, "c": 0.0}
    q = {"a": 1 / 6, "b": 0.0, "c": 1 / 3}
    assert condition(tri1, x, q, "root") == pytest.approx(1 / 3, abs=1e-15)
    # conditioning at a leaf returns the leaf value
    assert condition(tri1, x, q, "a") == 1.0


def test_condition_zero_mass(tri1):
    q0 = {"a": 0.0, "b": 0.0, "c": 0.0}
    with pytest.raises(ZeroDivisionError):
        condition(tri1, {"a": 1.0, "b": 1.0, "c": 1.0}, q0, "root")
    assert condition(tri1, {"a": 1.0, "b": 1.0, "c": 1.0}, q0, "root",
                     on_zero_mass=0.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
       st.floats(-100, 100))
def test_condition_constant_invariance(weights, c):
    tree = treegen.tri1()
    x = np.full(tree.n_leaves, c)
    q = dict(zip(tree.leaf_ids, weights))
    assert condition(tree, x, q, "root") == pytest.approx(c, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=6, max_size=6),
       st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_tower_property(weights, xs):
    tree = treegen.product_market([[2.0, 0.5], [1.5, 0.6, 0.9]])
    assert tree.n_leaves == 6
    q = np.asarray(weights)
    x = np.asarray(xs)
    total = q.sum()
    if total <= 0:
        return
    lay = tree.layout
    outer = condition(tree, x, q, lay.ids[0])
    inner = 0.0
    for c in child_positions(lay, 0):
        mass = q[lay.lo[c]:lay.hi[c]].sum()
        if mass > 0:
            inner += mass / total * condition(tree, x, q, lay.ids[c])
    assert outer == pytest.approx(inner, abs=1e-12 * (1 + abs(outer)))


def test_round_trip_bit_exact(tmp_path):
    doc = treegen.tri1_dict()
    doc["endowment"] = {"a": "0.25", "b": "-1.5", "c": "0.125"}
    tree = market_from_dict(doc)
    path = tmp_path / "rt.json"
    save_market(tree, path)
    tree2 = load_market(path)
    assert market_to_dict(tree2)["nodes"] == market_to_dict(tree)["nodes"] == doc["nodes"]
    assert market_to_dict(tree2)["endowment"] == doc["endowment"]


def test_random_variable_coverage(tri1):
    for wrap in (dict, RandomVariable):
        with pytest.raises(ParseError, match="missing"):
            leaf_values(tri1, wrap({"a": 1.0}))
        with pytest.raises(ParseError, match="unknown"):
            leaf_values(tri1, wrap({"a": 1.0, "b": 0.0, "c": 0.0, "zz": 1.0}))



@pytest.mark.parametrize("x", [1, 0.5, True, np.int64(1), np.int32(-2), np.uint8(3),
                               np.float32(0.5), np.float64(0.5), np.array(0.5),
                               np.array(2, dtype=np.int16)],
                         ids=["int", "float", "bool", "int64", "int32", "uint8", "float32",
                              "float64", "0-d float", "0-d int16"])
def test_numeric_scalars_are_the_same_on_every_leaf(tri1, x):
    assert np.array_equal(leaf_values(tri1, x), np.full(3, float(x)))
    pair = exponential_utility(1.0, 2.0)
    assert solve_dual(tri1, pair, x).value == solve_dual(tri1, pair, float(x)).value


@pytest.mark.parametrize("x", ["0.5", np.str_("0.5"), np.bool_(True), np.array(True)],
                         ids=["str", "numpy str", "numpy bool", "0-d bool"])
def test_strings_and_numpy_bools_are_not_scalars(tri1, x):
    with pytest.raises(ValueError, match="expected 3 leaf values"):
        leaf_values(tri1, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_leaf_values_raise_domain_error(tri1, bad):
    forms = [np.array([bad, 0.0, 0.0]), [0.0, bad, 0.0], bad,
             {"a": 0.0, "b": 0.0, "c": bad}, RandomVariable({"a": bad, "b": 0.0, "c": 0.0})]
    for x in forms:
        with pytest.raises(DomainError, match="not finite"):
            leaf_values(tri1, x)


@pytest.mark.parametrize("make", [lambda: exponential_utility(1.0, 2.0),
                                  lambda: two_power_utility(0.5, 1.0, 1.0)])
def test_non_finite_endowment_or_claim_fails_typed(tri1, make):
    # NaN data is the caller's, not an overflow, a solver fault or an index
    pair, nan = make(), np.array([np.nan, 0.0, 0.0])
    with pytest.raises(DomainError, match="'a' is not finite"):
        solve_dual(tri1, pair, nan)
    with pytest.raises(DomainError, match="'a' is not finite"):
        price_report(tri1, pair, 0.0, nan)

def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError, match="JSON"):
        load_market(p)


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"version": "\xff"}')
    with pytest.raises(ParseError, match="JSON"):
        load_market(p)


def test_generated_markets_are_valid():
    rng = np.random.default_rng(0)
    for _ in range(10):
        tree = treegen.random_market(rng, n_assets=1)
        p = tree.leaf_probability_array
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)


@st.composite
def _measured_random_markets(draw):
    """A random_market tree, a stack of two leaf measures that vanish on some
    drawn subtrees (all of the tree at times), and a node-indexed process."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = treegen.random_market(rng, max_periods=3,
                                 n_assets=draw(st.sampled_from([1, 2])))
    q = rng.uniform(0.0, 1.0, size=(2, tree.n_leaves))
    lay = tree.layout
    for k in range(2):
        for n in draw(st.lists(st.sampled_from(range(len(lay.ids))), max_size=3)):
            q[k, lay.lo[n]:lay.hi[n]] = 0.0
    return tree, q, rng.normal(size=len(tree.layout.ids))


@settings(max_examples=40, deadline=None)
@given(_measured_random_markets())
def test_layout_expectations_match_condition(drawn):
    tree, q, x = drawn
    lay = tree.layout
    assert lay.ids == tree.nonleaf_ids + tree.leaf_ids
    x_leaf = x[lay.level_starts[-2]:]
    mass, weighted = tree.subtree_sums(q), tree.subtree_sums(q * x_leaf)
    ell = tree.log_subtree_sums(market.log_masses(q))
    cond = tree.one_step_expectation(x, ell)
    prices = tree.one_step_expectation(lay.prices, ell)
    full = tree.conditional_expectation(x_leaf, ell)
    assert np.array_equal(ell > -np.inf, mass > 0)
    for n, nid in enumerate(lay.ids):
        # the child process as a leaf variable on this node's subtree
        x_child = np.zeros(tree.n_leaves)
        for c in child_positions(lay, n):
            x_child[lay.lo[c]:lay.hi[c]] = x[c]
        for k in range(2):
            assert mass[k, n] == pytest.approx(q[k, lay.lo[n]:lay.hi[n]].sum(),
                                               rel=1e-13, abs=0.0)
            if mass[k, n] == 0:
                with pytest.raises(ZeroDivisionError):
                    condition(tree, x_leaf, q[k], nid)
                assert math.isnan(condition(tree, x_leaf, q[k], nid, on_zero_mass=math.nan))
                assert math.isnan(full[k, n])
                if n < cond.shape[1]:
                    assert math.isnan(cond[k, n]) and np.isnan(prices[k, n]).all()
                continue
            assert weighted[k, n] / mass[k, n] == pytest.approx(
                condition(tree, x_leaf, q[k], nid), rel=1e-12, abs=1e-12)
            assert full[k, n] == pytest.approx(
                condition(tree, x_leaf, q[k], nid), rel=1e-12, abs=1e-12)
            if n >= cond.shape[1]:
                continue
            assert cond[k, n] == pytest.approx(
                condition(tree, x_child, q[k], nid), rel=1e-12, abs=1e-12)
            for i in range(tree.n_assets):
                s_child = np.zeros(tree.n_leaves)
                for c in child_positions(lay, n):
                    s_child[lay.lo[c]:lay.hi[c]] = lay.prices[c, i]
                assert prices[k, n, i] == pytest.approx(
                    condition(tree, s_child, q[k], nid), rel=1e-12, abs=1e-12)


def _chain_dict(periods):
    """Flat single-child periods, then one binomial step; two leaves."""
    nodes = [{"id": "n0", "parent": None, "t": 0, "prices": ["1"], "prob": "1"}]
    nodes += [{"id": f"n{t}", "parent": f"n{t - 1}", "t": t, "prices": ["1"],
               "prob": "1"} for t in range(1, periods)]
    nodes += [{"id": "u", "parent": f"n{periods - 1}", "t": periods, "prices": ["2"],
               "prob": "0.5"},
              {"id": "d", "parent": f"n{periods - 1}", "t": periods, "prices": ["0.5"],
               "prob": "0.5"}]
    return {"version": 1, "assets": ["S"], "nodes": nodes,
            "endowment": {"u": "0.3", "d": "-0.1"}}


def _path_sums_by_recursion(lay, x):
    """Per node, its parent's path sum plus its own value: one node at a
    time in layout order, where every parent comes before its children."""
    out = np.array(x, dtype=float)
    for k in range(1, len(lay.ids)):
        out[..., k] = out[..., lay.parent[k]] + out[..., k]
    return out


@pytest.mark.parametrize("make", [
    lambda: treegen.product_market([[1.2, 1.0, 0.85], [1.1, 0.95], [1.3, 1.0, 0.9, 0.7]])
] + [lambda seed=seed: treegen.random_market(np.random.default_rng(seed), n_assets=1 + seed % 2)
     for seed in range(6)], ids=["widths-3-2-4"] + [f"random-{seed}" for seed in range(6)])
def test_path_sums_match_the_recursion_over_parents(make):
    # the same adds in the same order: equal bit for bit, on a stack (r, N)
    # and on each of its rows, with -inf carried down and no NaN
    lay = make().layout
    rng = np.random.default_rng(len(lay.ids))
    x = rng.normal(size=(3, len(lay.ids)))
    x[rng.random(x.shape) < 0.2] = -np.inf
    before = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lay.path_sums(x)
        rows = [lay.path_sums(row) for row in x]
    assert np.array_equal(x, before)
    assert got.shape == x.shape and not np.isnan(got).any()
    assert np.array_equal(got, _path_sums_by_recursion(lay, x))
    assert all(np.array_equal(row, g) for row, g in zip(rows, got))
    assert np.array_equal(np.isneginf(got), lay.path_sums(np.isneginf(x)) > 0)


@pytest.mark.parametrize("make", [
    lambda: treegen.product_market([[1.2, 1.0, 0.85], [1.1, 0.95], [1.3, 1.0, 0.9, 0.7]])
] + [lambda seed=seed: treegen.random_market(np.random.default_rng(seed), n_assets=1 + seed % 2)
     for seed in range(6)], ids=["widths-3-2-4"] + [f"random-{seed}" for seed in range(6)])
def test_layout_view_lists_each_nodes_children_and_increments(make):
    # node by node: the real children of a row of kids are the nodes whose
    # parent it is, first and in order; padding stays in range
    lay = make().layout
    n, inner = len(lay.ids), lay.level_starts[-2]
    assert lay.kids.shape == lay.on.shape and lay.kids.shape[0] == inner
    assert lay.kids.min() >= 0 and lay.kids.max() < n
    assert not lay.step[0].any()
    for k in range(inner):
        children = np.flatnonzero(lay.parent[1:] == k) + 1
        assert lay.on[k].tolist() == [j < children.size for j in range(lay.on.shape[1])]
        assert lay.kids[k, :children.size].tolist() == children.tolist()
        assert np.array_equal(lay.step[children], lay.prices[children] - lay.prices[k])
        assert np.array_equal(lay.top[k], np.abs(lay.step[children]).max(axis=0))


def test_layout_view_follows_the_prices_and_is_read_only(tri1, exp_pair, monkeypatch):
    # check_mubpp's augmented market replaces the prices of a layout whose
    # view was already read: the view is derived again, not carried over
    built = []
    monkeypatch.setattr(pricing, "_with_assets",
                        lambda *args: built.append(market._with_assets(*args)) or built[-1])
    lay = tri1.layout
    assert lay.step.shape == (4, 1) and lay.top.shape == (1, 1)
    candidate = np.c_[lay.prices[:, 0], 2.0 * lay.prices[:, 0]]
    check_mubpp(tri1, exp_pair, [0.3, -0.2, 0.1], candidate)
    aug = built[0].layout
    assert aug.step.shape == (4, 3) and aug.top.shape == (1, 3)
    assert np.array_equal(aug.step, aug.prices - aug.prices[aug.parent])
    assert np.array_equal(aug.top, np.abs(aug.step[1:]).max(axis=0, keepdims=True))
    for view in (lay, aug):
        for name in ("step", "kids", "on", "top"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(view, name)[0] = 0


def test_layout_unit_is_one_where_an_asset_does_not_move():
    # top is each asset's unit at a node, read unguarded by every kernel
    lay = treegen.product_market([[(1.2, 1.0), (0.9, 1.0)]], s0=(1.0, 5.0)).layout
    assert lay.top.tolist() == [[pytest.approx(0.2), 1.0]]


def test_deep_chain_loads_and_solves(bin1):
    # deeper than the interpreter's recursion limit; the flat periods change
    # nothing, so the optimum is that of the one-period binomial
    tree = market_from_dict(_chain_dict(2000))
    assert tree.horizon == 2000 and tree.leaf_ids == ("u", "d")
    assert tree.layout.lo.tolist()[:2] == [0, 0] and tree.layout.hi.tolist()[:2] == [2, 2]
    for pair in (exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0)):
        sol = solve_dual(tree, pair, tree.endowment)
        ref = solve_dual(bin1, pair, [0.3, -0.1])
        assert sol.value == pytest.approx(ref.value, rel=1e-12)
        assert sol.q_hat == pytest.approx(ref.q_hat, abs=1e-12)


def _reference_layout(doc):
    """The layout by a depth-first walk over per-node dicts: leaves in
    depth-first order with children as in the file, each level in that
    order, node probabilities as products of branch probabilities from the
    root down."""
    by_id = {n["id"]: n for n in doc["nodes"]}
    children = {nid: [] for nid in by_id}
    for n in doc["nodes"]:
        if n["parent"] is None:
            root = n["id"]
        else:
            children[n["parent"]].append(n["id"])
    levels = [[] for _ in range(max(n["t"] for n in doc["nodes"]) + 1)]
    node_prob, stack = {root: 1.0}, [root]
    while stack:
        nid = stack.pop()
        levels[by_id[nid]["t"]].append(nid)
        for c in children[nid]:
            node_prob[c] = node_prob[nid] * float(by_id[c]["prob"])
        stack.extend(reversed(children[nid]))
    ids = tuple(nid for level in levels for nid in level)
    pos = {nid: k for k, nid in enumerate(ids)}
    parent = np.array([0] + [pos[by_id[nid]["parent"]] for nid in ids[1:]], dtype=np.intp)
    starts = tuple(np.cumsum([0] + [len(level) for level in levels]).tolist())
    first = np.searchsorted(parent[1:], np.arange(starts[-2])) + 1
    lo = np.arange(len(ids), dtype=np.intp) - starts[-2]
    hi, last = lo + 1, np.append(first[1:], len(ids)) - 1
    for a, b in zip(starts[-3::-1], starts[-2:0:-1]):
        lo[a:b], hi[a:b] = lo[first[a:b]], hi[last[a:b]]
    arrays = (parent, first, np.array([[float(x) for x in by_id[nid]["prices"]] for nid in ids]),
              np.array([float(by_id[nid]["prob"]) for nid in ids]), lo, hi)
    return ids, starts, arrays, node_prob


def _assert_layout_matches_reference(doc):
    tree = market_from_dict(doc)
    lay = tree.layout
    ids, starts, arrays, node_prob = _reference_layout(doc)
    assert lay.ids == ids and lay.level_starts == starts
    for got, want in zip((lay.parent, lay.first_child, lay.prices, lay.prob, lay.lo, lay.hi),
                         arrays):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    p = np.array([node_prob[nid] for nid in ids])
    assert tree.node_probability_array.tobytes() == p.tobytes()
    assert tree.leaf_probability_array.tobytes() == p[starts[-2]:].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())
def test_layout_matches_the_depth_first_reference(seed, n_assets, shuffle):
    rng = np.random.default_rng(seed)
    doc = market_to_dict(treegen.random_market(rng, max_periods=4, n_assets=n_assets))
    if shuffle:
        rng.shuffle(doc["nodes"])
    _assert_layout_matches_reference(doc)


@pytest.mark.parametrize("name", ["book_exp_4x4x3_2a.json", "quote_pinned_4x4_2a.json"])
def test_data_layouts_match_the_depth_first_reference(name):
    _assert_layout_matches_reference(json.loads((treegen.DATA / name).read_text()))


@pytest.mark.parametrize("orphan", range(1, 7))
@pytest.mark.parametrize("skewed", range(1, 7))
def test_structural_error_names_the_first_offender_in_file_order(orphan, skewed):
    # a missing parent at one node and a time mismatch at another: the error
    # is the one at the earlier node, the missing parent at the same node
    doc = market_to_dict(treegen.product_market([[2.0, 0.5], [2.0, 0.5]]))
    nodes = doc["nodes"]
    nodes[orphan]["parent"] = "ghost"
    nodes[skewed]["t"] += 1
    with pytest.raises(InvalidTreeError) as exc:
        market_from_dict(doc)
    first = min(orphan, skewed)
    assert exc.value.node_id == nodes[first]["id"]
    assert ("does not exist" if orphan <= skewed else "not parent time") in str(exc.value)


# -- bulk loading against the per-node path ------------------------------------

class _Str(str):
    """A str subclass: the bulk checks take exact types, the loop accepts it."""


def _leaf_maps(doc, rng):
    """``doc`` with a random endowment and one claim on its leaves."""
    tree = market_from_dict(doc)
    doc = dict(doc, endowment=dict(zip(tree.leaf_ids, map(repr, rng.uniform(
        -1.0, 1.0, tree.n_leaves).tolist()))))
    doc["claims"] = {"call": dict(zip(tree.leaf_ids, rng.uniform(0.0, 1.0, tree.n_leaves)
                                      .tolist()))}  # numbers, not strings
    return doc


def _set(field, value):
    def mutate(doc, k):
        doc["nodes"][k][field] = value
    return mutate


def _del(field):
    def mutate(doc, k):
        del doc["nodes"][k][field]
    return mutate


def _leaf(where, value):
    def mutate(doc, k):
        raw = doc["endowment"] if where == "endowment" else doc["claims"]["call"]
        leaf = list(raw)[k % len(raw)]
        raw[leaf] = value
    return mutate


def _rekey(where, how):
    def mutate(doc, k):
        raw = doc["endowment"] if where == "endowment" else doc["claims"]["call"]
        leaf = list(raw)[k % len(raw)]
        if how in ("unknown", "swap"):
            raw["ghost"] = raw[leaf]
        if how in ("missing", "swap"):
            del raw[leaf]
    return mutate


_MUTATIONS = {
    "none": lambda doc, k: None,
    "id int": _set("id", 5), "id empty": _set("id", ""), "id list": _set("id", ["a"]),
    "id subclass": None, "parent list": _set("parent", ["root"]),
    "id duplicate": lambda doc, k: doc["nodes"][k].update(id=doc["nodes"][k - 1]["id"]),
    "parent int": _set("parent", 3), "parent ghost": _set("parent", "ghost"),
    "t bool": _set("t", True), "t float": _set("t", 1.0), "t str": _set("t", "1"),
    "t negative": _set("t", -1), "t huge": _set("t", 2**70),
    "prices str": _set("prices", "1"), "prices tuple": _set("prices", ("1",)),
    "prices short": _set("prices", []), "prices float": None, "prices int": None,
    "price nan": None, "price 1e400": None, "price spaces": None, "price underscore": None,
    "price bytes": None, "price subclass": None,
    "prob float": _set("prob", 0.5), "prob int": _set("prob", 1), "prob None": _set("prob", None),
    "prob nan": _set("prob", "nan"), "prob 1e400": _set("prob", "1e400"),
    "prob spaces": lambda doc, k: doc["nodes"][k].update(prob=f" {doc['nodes'][k]['prob']} "),
    "prob underscore": _set("prob", "1_0"),
    "missing prob": _del("prob"), "missing id": _del("id"),
    "extra field": _set("colour", "red"),
    "node list": lambda doc, k: doc["nodes"].__setitem__(k, list(doc["nodes"][k].values())),
    "node None": lambda doc, k: doc["nodes"].__setitem__(k, None),
    "node five keys": lambda doc, k: doc["nodes"].__setitem__(
        k, dict(zip(["id", "parent", "t", "prices", "colour"], doc["nodes"][k].values()))),
    "endowment bool": _leaf("endowment", True), "endowment huge int": _leaf("endowment", 10**400),
    "endowment int": _leaf("endowment", 7), "endowment nan": _leaf("endowment", math.nan),
    "endowment str nan": _leaf("endowment", "nan"), "endowment None": _leaf("endowment", None),
    "endowment spaces": _leaf("endowment", " 1.5 "), "endowment underscore": _leaf("endowment", "1_0"),
    "claim bool": _leaf("claim", False), "claim 1e400": _leaf("claim", "1e400"),
    "claim float subclass": _leaf("claim", np.float64(0.25)),
    "endowment unknown": _rekey("endowment", "unknown"), "endowment missing": _rekey("endowment", "missing"),
    "claim unknown and missing": _rekey("claim", "swap"),
}


def _price(value):
    def mutate(doc, k):
        prices = doc["nodes"][k]["prices"]
        prices[-1] = value(prices[-1]) if callable(value) else value
    return mutate


_MUTATIONS.update({
    "id subclass": lambda doc, k: doc["nodes"][k].update(id=_Str(doc["nodes"][k]["id"])),
    "prices float": _price(1.5), "prices int": _price(2), "price nan": _price("nan"),
    "price 1e400": _price("1e400"), "price spaces": _price(lambda s: f" {s} "),
    "price underscore": _price("1_0"), "price bytes": _price(b"1.5"),
    "price subclass": _price(_Str),
})


def _outcome(doc):
    """The tree's round trip and arrays, or the error's type, message and node."""
    try:
        tree = market_from_dict(copy.deepcopy(doc))
    except TreedualError as exc:
        return type(exc), str(exc), getattr(exc, "node_id", None)
    lay = tree.layout
    arrays = (lay.parent, lay.first_child, lay.prices, lay.prob, lay.lo, lay.hi,
              tree.node_probability_array, tree.endowment, *tree.claims.values())
    return (market_to_dict(tree), lay.ids, lay.level_starts, tree.node_ids,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def _parity_documents():
    rng = np.random.default_rng(11)
    docs = [_leaf_maps(treegen.tri1_dict(), rng)]
    for n_assets in (1, 2):
        doc = market_to_dict(treegen.random_market(rng, max_periods=3, n_assets=n_assets))
        rng.shuffle(doc["nodes"])
        docs.append(_leaf_maps(doc, rng))
    return docs


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_bulk_loading_matches_the_per_node_path(name, monkeypatch):
    # the same tree, or the same error type, message and node, with the
    # bulk passes on as with every document sent down the per-node path
    for doc in _parity_documents():
        for k in (0, 1, len(doc["nodes"]) // 2, len(doc["nodes"]) - 1):
            mutated = copy.deepcopy(doc)
            _MUTATIONS[name](mutated, k)
            bulk = _outcome(mutated)
            with monkeypatch.context() as m:
                m.setattr(market, "_bulk_columns", lambda *args: None)
                m.setattr(market, "_finite_floats", lambda *args: None)
                loop = _outcome(mutated)
            assert bulk == loop


def test_bulk_loading_takes_the_bulk_path_on_valid_documents(monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-node path ran")
    monkeypatch.setattr(market, "_node_columns", refuse)
    monkeypatch.setattr(market, "_leaf_value", refuse)
    for doc in _parity_documents():
        market_from_dict(doc)
    market_from_dict(json.loads((treegen.DATA / "book_exp_4x4x3_2a.json").read_text()))


@pytest.mark.parametrize("value", [True, False, 10**400, -(10**400)],
                         ids=["true", "false", "10**400", "-10**400"])
def test_leaf_map_booleans_and_huge_ints_raise_parse_errors(value):
    # a bool is an int and 10**400 overflows float(): neither is a decimal
    doc = treegen.tri1_dict()
    doc["endowment"]["a"] = value
    with pytest.raises(ParseError, match=r"endowment\[a\]: expected a finite decimal"):
        market_from_dict(doc)
    doc = treegen.tri1_dict()
    doc["claims"]["up"]["b"] = value
    with pytest.raises(ParseError, match=r"claims\[up\]\[b\]: expected a finite decimal"):
        market_from_dict(doc)
