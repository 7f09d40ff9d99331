import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegen
from treedual import (CapExceededError, MeasureVector,
                      NoMartingaleMeasureError, build_constraints,
                      exponential_utility, find_equivalent_mm,
                      is_martingale_measure, load_market, market_from_dict,
                      relative_entropy, sample_martingale_measures,
                      solve_dual, two_power_utility, vertex_enumerate)
from treedual import geometry
from treedual.geometry import MartingaleConstraints, _support_structure


def test_bin1_constraint_row(bin1):
    cons = build_constraints(bin1)
    assert cons.matrix.shape == (1, 2)
    assert cons.matrix[0] == pytest.approx([1.0, -0.5])
    assert cons.row_labels == (("root", 0),)


def test_tri1_constraint_row(tri1):
    cons = build_constraints(tri1)
    assert cons.matrix[0] == pytest.approx([1.0, 0.0, -0.5])


def test_reference_measure_martingale_when_prices_drift_free():
    # symmetric moves with matching probabilities make P itself a martingale
    tree = treegen.product_market([[1.5, 0.5]], prob_lists=[[0.5, 0.5]])
    p = tree.leaf_probability_array
    assert np.abs(build_constraints(tree).matrix @ p).max() < 1e-12
    assert is_martingale_measure(tree, p)


def test_find_equivalent_mm_bin1(bin1):
    q = find_equivalent_mm(bin1)
    assert q.as_array(bin1) == pytest.approx([1 / 3, 2 / 3], abs=1e-9)


def test_no_mm_on_arbitrage_tree():
    with pytest.raises(NoMartingaleMeasureError):
        find_equivalent_mm(treegen.arbitrage_market())


def test_dead_leaf_market_not_equivalent():
    tree = treegen.dead_leaf_market()
    assert find_equivalent_mm(tree) is None
    # the only measure is the point mass on the unmoved branch
    verts = vertex_enumerate(build_constraints(tree))
    assert len(verts) == 1
    assert verts[0].as_array(tree) == pytest.approx([0.0, 1.0])


def test_vertices_tri1(tri1):
    verts = vertex_enumerate(build_constraints(tri1))
    arrs = sorted(tuple(np.round(v.as_array(tri1), 10)) for v in verts)
    assert len(arrs) == 2
    assert arrs[0] == pytest.approx([0.0, 1.0, 0.0])
    assert arrs[1] == pytest.approx([1 / 3, 0.0, 2 / 3])


def test_vertex_unique_bin1(bin1):
    verts = vertex_enumerate(build_constraints(bin1))
    assert len(verts) == 1
    assert verts[0].as_array(bin1) == pytest.approx([1 / 3, 2 / 3], abs=1e-10)


def test_vertices_two_period_all_martingale():
    tree = treegen.product_market([[2.0, 1.0, 0.5], [2.0, 1.0, 0.5]])
    cons = build_constraints(tree)
    verts = vertex_enumerate(cons)
    assert verts
    for v in verts:
        arr = v.as_array(tree)
        assert np.abs(cons.matrix @ arr).max() <= 1e-10
        assert is_martingale_measure(tree, v, tol=1e-9)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_cap():
    tree = treegen.product_market([[2.0, 1.0, 0.5]] * 3)
    with pytest.raises(CapExceededError):
        vertex_enumerate(build_constraints(tree), cap=2)


def _top_down(cons):
    """The same constraints with rows and labels reversed.

    ``vertex_enumerate`` takes rows bottom-up; on this copy it takes them
    top-down, in the order of ``build_constraints``.
    """
    mat = np.ascontiguousarray(cons.matrix[::-1])
    mat.setflags(write=False)
    return MartingaleConstraints(mat, cons.row_labels[::-1], cons.leaf_ids)


def _vertices_by_support(verts, tree):
    arrs = [v.as_array(tree) for v in verts]
    return {tuple(np.flatnonzero(a)): a for a in arrs}


@pytest.mark.parametrize("tree", [
    treegen.product_market([[1.2, 1.0, 0.8]] * 2),
    treegen.product_market([[1.3, 0.8]] * 3),
    treegen.product_market([[(1.2, 1.1), (0.9, 1.2), (0.8, 0.85), (1.1, 0.9)]] * 2),
    *[treegen.random_market(np.random.default_rng(s), max_periods=2)
      for s in range(4)],
    *[treegen.random_market(np.random.default_rng(s), max_periods=2, n_assets=2)
      for s in range(2)],
], ids=["3x3", "2x2x2", "4x4-2a", "rand0", "rand1", "rand2", "rand3",
        "rand2a0", "rand2a1"])
def test_row_order_leaves_vertex_set_unchanged(tree):
    cons = build_constraints(tree)
    bottom_up = vertex_enumerate(cons)
    top_down = vertex_enumerate(_top_down(cons))
    assert len(bottom_up) == len(top_down)
    got = _vertices_by_support(bottom_up, tree)
    want = _vertices_by_support(top_down, tree)
    # one vertex per support, the same supports in both orders; the values
    # come from a least-squares polish over the support's rows in the order
    # given, so they agree to rounding rather than bit for bit
    assert len(got) == len(bottom_up)
    assert got.keys() == want.keys()
    for supp, q in got.items():
        assert np.abs(q - want[supp]).max() <= 1e-15


def test_three_period_trinomial_tree_has_128_vertices():
    # two vertices per node, each charging two children: 2 * (2 * 2^2)^2
    tree = treegen.product_market([[1.25, 1.05, 0.8]] * 3)
    cons = build_constraints(tree)
    verts = vertex_enumerate(cons)
    assert len(verts) == 128
    for v in verts:
        arr = v.as_array(tree)
        assert np.abs(cons.matrix @ arr).max() <= 1e-10
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def test_two_asset_trinomial_tree_has_one_vertex():
    # three planar moves around the origin fix each node's one-step weights,
    # so the polytope is the single, equivalent, martingale measure
    rng = np.random.default_rng(3)
    tree = treegen.random_market(rng, max_periods=3, n_assets=2)
    while tree.n_leaves != 27:
        tree = treegen.random_market(rng, max_periods=3, n_assets=2)
    verts = vertex_enumerate(build_constraints(tree))
    assert len(verts) == 1
    q = verts[0].as_array(tree)
    assert q.min() > 0
    assert q == pytest.approx(find_equivalent_mm(tree).as_array(tree), abs=1e-9)


def test_no_equivalent_mm_implies_every_vertex_degenerate():
    tree = treegen.dead_leaf_market()
    assert find_equivalent_mm(tree) is None
    for v in vertex_enumerate(build_constraints(tree)):
        assert min(v.values.values()) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 5.0), st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
def test_cone_homogeneity(scale, mu_raw):
    tree = treegen.tri1()
    A = build_constraints(tree).matrix
    base = np.array([0.2, 0.4, 0.4])  # satisfies the constraint row
    mu = base * np.asarray(mu_raw).mean()
    if np.abs(A @ mu).max() > 1e-12:
        return
    assert np.abs(A @ (scale * mu)).max() <= 1e-12 * max(1.0, scale)


def test_relative_entropy_reference_measure(tri1):
    pair = exponential_utility(1.0, 0.0)
    p = MeasureVector.from_array(tri1, tri1.leaf_probability_array)
    assert relative_entropy(tri1, pair, p) == pytest.approx(-1.0, abs=1e-12)


def test_relative_entropy_zero_measure(tri1):
    pair_exp = exponential_utility(1.0, 0.0)
    zero = MeasureVector.from_array(tri1, np.zeros(3))
    assert relative_entropy(tri1, pair_exp, zero) == pytest.approx(0.0)
    pair_tp = two_power_utility(0.5, 1.0, 1.0)
    assert relative_entropy(tri1, pair_tp, zero) == math.inf


def test_relative_entropy_vertex_value(tri1):
    pair = exponential_utility(1.0, 0.0)
    q = MeasureVector.from_array(tri1, np.array([1 / 3, 0.0, 2 / 3]))
    # densities (1, 0, 2) under the uniform reference: V(1)/3 + 0 + V(2)/3
    expected = (1 / 3) * (-1.0) + (1 / 3) * (2 * math.log(2) - 2)
    assert relative_entropy(tri1, pair, q) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99))
def test_relative_entropy_convex_along_segments(lam):
    tree = treegen.tri1()
    pair = exponential_utility(1.0, 0.0)
    mu0 = MeasureVector.from_array(tree, np.array([0.1, 0.6, 0.2]))
    mu1 = MeasureVector.from_array(tree, np.array([0.5, 0.1, 1.0]))
    mix = MeasureVector.from_array(
        tree, lam * mu1.as_array(tree) + (1 - lam) * mu0.as_array(tree))
    lhs = relative_entropy(tree, pair, mix)
    rhs = (lam * relative_entropy(tree, pair, mu1)
           + (1 - lam) * relative_entropy(tree, pair, mu0))
    assert lhs <= rhs + 1e-10


def test_sampled_measures_are_martingale_measures():
    tree = treegen.product_market([[2.0, 1.0, 0.5], [1.5, 0.7]])
    for q in sample_martingale_measures(tree, 25, seed=3):
        assert is_martingale_measure(tree, q, tol=1e-8)
        assert q.mass == pytest.approx(1.0, abs=1e-9)


def test_measure_vector_api(tri1):
    mv = MeasureVector({"a": 0.2, "b": 0.3, "c": 0.5})
    assert mv.mass == pytest.approx(1.0)
    assert mv.density(tri1) == pytest.approx([0.6, 0.9, 1.5])
    assert mv.normalized().mass == pytest.approx(1.0)


@pytest.mark.parametrize("make", [
    treegen.tri1, treegen.bin1,
    lambda: load_market(treegen.DATA / "quote_pinned_4x4_2a.json")])
def test_interior_start_lies_on_the_constraints(make):
    tree = make()
    mask, q = _support_structure(tree)
    A = build_constraints(tree).matrix
    assert np.abs(A @ q).max() <= 1e-12
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all(q[mask] > 0) and np.all(q[~mask] == 0)


def test_equivalent_measure_on_two_asset_book_market():
    # a two-asset 4x4x3 tree on which a dense Bland simplex reported the
    # max-min LP infeasible, so both calls raised NoMartingaleMeasureError
    tree = load_market(treegen.DATA / "book_exp_4x4x3_2a.json")
    q = find_equivalent_mm(tree)
    assert q is not None
    assert min(q.values.values()) > 1e-3
    assert is_martingale_measure(tree, q, tol=1e-9)
    gamma = 1.3749800819363094
    sol = solve_dual(tree, exponential_utility(gamma, 1.0 + 1.0 / gamma),
                     tree.endowment)
    assert sol.support == "EQUIVALENT"


def _support_oracle(tree):
    """Leaves charged by some martingale probability: one LP per leaf."""
    from scipy.optimize import linprog

    A = build_constraints(tree).matrix
    L = tree.n_leaves
    rows = np.vstack([A, np.ones((1, L))])
    rhs = np.zeros(rows.shape[0])
    rhs[-1] = 1.0
    mask = np.zeros(L, dtype=bool)
    for leaf in range(L):
        c = np.zeros(L)
        c[leaf] = -1.0
        res = linprog(c, A_eq=rows, b_eq=rhs, bounds=(0, None), method="highs")
        mask[leaf] = res.status == 0 and -res.fun > 1e-9
    return mask


@pytest.mark.parametrize("moves", [
    # every period-2 move is >= 1: only the unmoved child is live
    [[2.0, 1.0, 0.5], [1.5, 1.0]],
    [[1.5, 1.0], [2.0, 1.0, 0.5], [1.2, 1.0, 1.0]],
    # asset 1 never falls in period 1: the third child is dead
    [[(1.2, 1.0), (0.8, 1.0), (1.0, 1.3)], [(1.1, 1.2), (0.9, 0.7), (1.0, 1.1)]],
    [[(1.2, 1.1), (0.8, 0.9), (1.0, 1.0)], [(1.3, 1.0), (1.0, 1.2), (1.0, 1.0)]],
    [[2.0, 1.0, 0.5], [1.5, 0.7]],
])
def test_support_matches_per_leaf_oracle(moves, monkeypatch):
    tree = treegen.product_market(moves)
    calls = []
    real = geometry.solve_lp
    monkeypatch.setattr(geometry, "solve_lp",
                        lambda *a: calls.append(1) or real(*a))
    mask, q = _support_structure(tree)
    oracle = _support_oracle(tree)
    assert np.array_equal(mask, oracle)
    # one max-min LP when the tree is equivalent, else support + max-min
    assert len(calls) == (1 if oracle.all() else 3)
    A = build_constraints(tree).matrix
    assert np.abs(A @ q).max() <= 1e-12
    assert np.all(q[mask] > 0) and np.all(q[~mask] == 0)
