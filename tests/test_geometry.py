import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegen
from treedual import (CapExceededError, DomainError,
                      NoMartingaleMeasureError, build_constraints,
                      exponential_utility, find_equivalent_mm,
                      is_martingale_measure, load_market, market_from_dict,
                      market_to_dict, relative_entropy, run_battery, solve_dual,
                      two_power_utility, vertex_enumerate)
from treedual import checks, dual, geometry
from treedual.geometry import _support_structure
from treedual.simplex import solve_lp


def test_bin1_constraint_row(bin1):
    A = build_constraints(bin1)
    assert A.shape == (1, 2)
    assert A[0] == pytest.approx([1.0, -0.5])
    assert bin1.nonleaf_ids == ("root",)  # row k * d + i: asset i at nonleaf_ids[k]


def test_tri1_constraint_row(tri1):
    A = build_constraints(tri1)
    assert A[0] == pytest.approx([1.0, 0.0, -0.5])


def test_reference_measure_martingale_when_prices_drift_free():
    # symmetric moves with matching probabilities make P itself a martingale
    tree = treegen.product_market([[1.5, 0.5]], prob_lists=[[0.5, 0.5]])
    p = tree.leaf_probability_array
    assert np.abs(build_constraints(tree) @ p).max() < 1e-12
    assert is_martingale_measure(tree, p)


@pytest.mark.parametrize("s2", [1.0, 1e-12])
def test_martingale_check_reads_each_asset_in_its_own_units(exp_pair, s2):
    # the exponential optimum of the market of asset 1 alone lets asset 2
    # drift by 17% of its largest increment at the root: refused in any
    # units of asset 2, where 1 + |S_n| would pass it at s2 = 1e-12
    moves = [(1.2, 1.1), (0.9, 1.15), (1.0, 0.8), (1.1, 0.95)]
    tree = treegen.product_market([moves] * 2, s0=(1.0, s2))
    e = np.linspace(-0.5, 0.5, tree.n_leaves)
    alone = treegen.product_market([[m for m, _ in moves]] * 2)
    q = solve_dual(alone, exp_pair, e).q_hat
    assert is_martingale_measure(alone, q) and not is_martingale_measure(tree, q)
    assert is_martingale_measure(tree, solve_dual(tree, exp_pair, e).q_hat)


def test_a_signed_measure_is_refused(tri1):
    # log masses read the negative leaves as uncharged, so (-1, 3, -1),
    # whose root drift is -0.5, passed as the measure on the middle leaf
    with pytest.raises(DomainError, match="measure must be non-negative"):
        is_martingale_measure(tri1, [-1.0, 3.0, -1.0])


def test_find_equivalent_mm_bin1(bin1):
    q = np.exp(find_equivalent_mm(bin1))
    assert q == pytest.approx([1 / 3, 2 / 3], abs=1e-9)


def test_no_mm_on_arbitrage_tree():
    with pytest.raises(NoMartingaleMeasureError):
        find_equivalent_mm(treegen.arbitrage_market())


def test_dead_leaf_market_not_equivalent():
    tree = treegen.dead_leaf_market()
    assert find_equivalent_mm(tree) is None
    # the only measure is the point mass on the unmoved branch
    verts = vertex_enumerate(tree)
    assert len(verts) == 1
    assert verts[0].tolist() == [-np.inf, 0.0]


def test_vertices_tri1(tri1):
    verts = np.exp(vertex_enumerate(tri1))
    arrs = sorted(tuple(np.round(v, 10)) for v in verts)
    assert len(arrs) == 2
    assert arrs[0] == pytest.approx([0.0, 1.0, 0.0])
    assert arrs[1] == pytest.approx([1 / 3, 0.0, 2 / 3])


def test_vertex_unique_bin1(bin1):
    verts = np.exp(vertex_enumerate(bin1))
    assert len(verts) == 1
    assert verts[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-10)


def test_vertices_two_period_all_martingale():
    tree = treegen.product_market([[2.0, 1.0, 0.5], [2.0, 1.0, 0.5]])
    A = build_constraints(tree)
    verts = np.exp(vertex_enumerate(tree))
    assert len(verts)
    for v in verts:
        arr = v
        assert np.abs(A @ arr).max() <= 1e-10
        assert is_martingale_measure(tree, v, tol=1e-9)
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def test_vertex_cap():
    # 42 vertices: cap 41 raises with the count, cap 42 returns them
    tree = treegen.product_market([[2.0, 1.0, 0.5]] * 3)
    with pytest.raises(CapExceededError) as exc:
        vertex_enumerate(tree, cap=41)
    assert exc.value.count == 42 and str(exc.value) == "42 vertices exceed cap 41"
    assert vertex_enumerate(tree, cap=42).shape == (42, 27)


def test_the_cap_reads_the_exact_count_before_any_row():
    # 729 leaves: a flat child and an up-down pair at each node give
    # c -> c + c^2 vertices per period, 10 650 056 950 806 at the root
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 6)
    with pytest.raises(CapExceededError) as exc:
        vertex_enumerate(tree)
    assert exc.value.count == 10_650_056_950_806


def _assert_same_rows(got, want, tol):
    """The same stack of rows up to order: each row within ``tol`` of one
    of the other's."""
    assert got.shape == want.shape
    for a, b in ((got, want), (want, got)):
        for row in a:
            assert np.abs(b - row).max(axis=1).min() <= tol


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
    # the market file's node rows, reversed, number the nodes and leaves in
    # another order; by leaf id the vertices are the same
    doc = market_to_dict(tree)
    doc["nodes"].reverse()
    flipped = market_from_dict(doc)
    assert flipped.leaf_ids != tree.leaf_ids
    order = [flipped.leaf_ids.index(leaf) for leaf in tree.leaf_ids]
    _assert_same_rows(np.exp(vertex_enumerate(flipped)[:, order]),
                      np.exp(vertex_enumerate(tree)), 1e-14)


def test_three_period_trinomial_tree_has_128_vertices():
    # two vertices per node, each charging two children: 2 * (2 * 2^2)^2
    tree = treegen.product_market([[1.25, 1.05, 0.8]] * 3)
    A = build_constraints(tree)
    verts = np.exp(vertex_enumerate(tree))
    assert len(verts) == 128
    for v in verts:
        arr = v
        assert np.abs(A @ arr).max() <= 1e-10
        assert arr.sum() == pytest.approx(1.0, abs=1e-12)


def _vertex_enumerate_pairwise(A, cap=geometry.VERTEX_CAP_DEFAULT):
    """Oracle of ``vertex_enumerate``: double description with the
    pair-by-pair adjacency test, which scans every other ray's zero set for
    each (positive, negative) pair of rays, then a per-ray polish (Fukuda &
    Prodon 1996).  It reads only the matrix A of ``build_constraints``, and
    loses a vertex with an entry below 1e-12 of its unit mass."""
    return _polish_per_ray(A, _dd_rays_pairwise(A, cap))


def _dd_rays_pairwise(A, cap=geometry.VERTEX_CAP_DEFAULT):
    """The final rays of the pair-by-pair double description, unpolished."""
    L = A.shape[1]
    rays = np.eye(L)
    for row in A[::-1]:
        scale = max(1.0, np.abs(row).max())
        d = rays @ row
        tol = 1e-12 * scale
        plus = np.where(d > tol)[0]
        minus = np.where(d < -tol)[0]
        zero = np.where(np.abs(d) <= tol)[0]
        new_rays = [rays[zero]] if zero.size else []
        if plus.size and minus.size:
            zsets = rays <= 1e-12
            combos = []
            for i in plus:
                for j in minus:
                    meet = zsets[i] & zsets[j]
                    others = np.delete(np.arange(rays.shape[0]), [i, j])
                    dominated = np.any(np.all(zsets[others] | ~meet, axis=1)) \
                        if others.size else False
                    if dominated:
                        continue
                    r = d[i] * rays[j] - d[j] * rays[i]
                    combos.append(r / r.sum())
                    if zero.size + len(combos) > cap:
                        raise CapExceededError(f"vertex candidates exceed cap {cap}",
                                               count=zero.size + len(combos))
            if combos:
                new_rays.append(np.array(combos))
        rays = np.vstack(new_rays) if new_rays else np.zeros((0, L))
        if rays.shape[0] == 0:
            return rays
        key = np.round(rays / rays.sum(axis=1, keepdims=True), 12)
        _, uniq = np.unique(key, axis=0, return_index=True)
        rays = rays[np.sort(uniq)]
        if rays.shape[0] > cap:
            raise CapExceededError(
                f"vertex candidates exceed cap {cap}", count=rays.shape[0])
    return rays


def _polish_per_ray(A, rays):
    """The vertices among double description's final rays: per ray, a rank
    test of A on the ray's support and a least-squares solve of
    [A_S; 1] q = (0, 1)."""
    L = A.shape[1]
    out = []
    for r in rays:
        q = r / r.sum()
        supp = q > 1e-12
        sub = A[:, supp]
        if supp.sum() - np.linalg.matrix_rank(sub, tol=1e-10) != 1:
            continue
        M = np.vstack([sub, np.ones((1, supp.sum()))])
        rhs = np.zeros(M.shape[0])
        rhs[-1] = 1.0
        qs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.any(qs < -1e-12):
            continue
        q = np.zeros(L)
        q[supp] = np.clip(qs, 0.0, None)
        q /= q.sum()
        if np.abs(A @ q).max() > 1e-10 * max(1.0, np.abs(A).max()):
            continue
        out.append(q)
    return np.array(out).reshape(-1, L)


_DD_TREES = {
    "bin1": treegen.bin1(), "tri1": treegen.tri1(),
    "dead-leaf": treegen.dead_leaf_market(), "arbitrage": treegen.arbitrage_market(),
    "3x3": treegen.product_market([[1.2, 1.0, 0.8]] * 2),
    "2x2x2": treegen.product_market([[1.3, 0.8]] * 3),
    "3x3x3": treegen.product_market([[1.25, 1.05, 0.8]] * 3),
    "3x3x3-wide": treegen.product_market([[2.0, 1.0, 0.5]] * 3),
    "4x4-2a": treegen.product_market(
        [[(1.2, 1.1), (0.9, 1.2), (0.8, 0.85), (1.1, 0.9)]] * 2),
    **{f"rand{s}": treegen.random_market(np.random.default_rng(s), max_periods=2)
       for s in range(4)},
    **{f"rand2a{s}": treegen.random_market(np.random.default_rng(s), max_periods=2,
                                           n_assets=2) for s in range(2)},
    **{f"acceptance{k}": tree
       for k, (tree, _, _) in enumerate(treegen.acceptance_suite())},
}


@pytest.mark.parametrize("name", list(_DD_TREES))
def test_blocked_adjacency_test_matches_the_pairwise_loop(name):
    tree = _DD_TREES[name]
    got = np.exp(vertex_enumerate(tree))
    _assert_same_rows(got, _vertex_enumerate_pairwise(build_constraints(tree)), 1e-12)
    assert got.sum(axis=1) == pytest.approx(np.ones(len(got)), abs=1e-14)


@pytest.mark.parametrize("name", [*_DD_TREES, "27-leaf"])
def test_batched_polish_matches_the_per_ray_oracle(name):
    # the per-ray polish, over the batch of enumerated rows, returns each
    # row: each is the unit-mass null vector of A on its support, a vertex;
    # the midpoint of two distinct vertices is refused
    tree = _DD_TREES.get(name) or treegen.product_market([[1.25, 1.05, 0.8]] * 3)
    A, verts = build_constraints(tree), np.exp(vertex_enumerate(tree))
    polished = _polish_per_ray(A, verts)
    assert polished.shape == verts.shape
    assert np.abs(polished - verts).max(initial=0.0) <= 1e-14
    if len(verts) >= 2:
        midpoints = 0.5 * (verts[:-1] + verts[1:])
        assert _polish_per_ray(A, midpoints).shape == (0, tree.n_leaves)


@pytest.mark.parametrize("moves, cap", [([[2.0, 1.0, 0.5]] * 3, 2),
                                        ([[1.2, 1.0, 0.85]] * 4, 200),
                                        ([[1.2, 1.0, 0.85]] * 3, 41)])
def test_blocked_adjacency_test_stops_where_the_pairwise_loop_does(moves, cap):
    # the pairwise loop stops at its first candidate over the cap; the
    # products stop before any row, naming their exact count
    tree = treegen.product_market(moves)
    with pytest.raises(CapExceededError):
        _vertex_enumerate_pairwise(build_constraints(tree), cap=cap)
    with pytest.raises(CapExceededError) as got:
        vertex_enumerate(tree, cap=cap)
    assert got.value.count == {2: 42, 200: 1806, 41: 42}[cap]


def test_measure_sets_are_stacks(tri1):
    verts = vertex_enumerate(tri1)
    assert isinstance(verts, np.ndarray) and verts.shape == (2, 3)
    empty = vertex_enumerate(treegen.arbitrage_market())
    assert isinstance(empty, np.ndarray) and empty.shape == (0, 2)


def test_battery_evaluates_the_entropy_once_per_check(monkeypatch):
    # the 128-vertex tree below: one evaluation, of the optimum's entropy for
    # the duality gap; no check filters the vertices by their entropy
    from treedual import checks

    tree = treegen.product_market([[1.25, 1.05, 0.8]] * 3)
    calls = []

    def counted(*args):
        calls.append(np.shape(args[2]))
        return relative_entropy(*args)

    for mod in (geometry, checks):
        monkeypatch.setattr(mod, "relative_entropy", counted)
    results = {r.name: r for r in run_battery(tree, two_power_utility(0.5, 1.0, 1.0), 0.0)}
    assert all(r.passed for r in results.values())
    # every vertex misses a leaf, so its two-power entropy is infinite; the
    # measure certificate charges the whole tree all the same
    assert results["maximal support"].detail == (
        "27 leaves charged by the measure certificate, 0 cut off by the arbitrage")
    assert calls == [(27,)]


def test_vertex_enumerate_keeps_a_vertex_with_a_tiny_entry():
    # one-step weights 1e-10 and 1 - 1e-10 at each of the three nodes: the
    # one vertex puts 1e-20 on the up-up leaf, below double description's
    # 1e-12 entry floor
    tree = treegen.product_market([[1e5, 0.99999]] * 2)
    verts = vertex_enumerate(tree)
    assert verts.shape == (1, 4)
    assert np.exp(verts.min()) == pytest.approx(1e-20, rel=1e-3)
    assert np.exp(verts[0]) == pytest.approx(np.exp(_support_structure(tree).log_interior[-4:]),
                                             rel=1e-12)


def test_two_asset_trinomial_tree_has_one_vertex():
    # three planar moves around the origin fix each node's one-step weights,
    # so the polytope is the single, equivalent, martingale measure
    rng = np.random.default_rng(3)
    tree = treegen.random_market(rng, max_periods=3, n_assets=2)
    while tree.n_leaves != 27:
        tree = treegen.random_market(rng, max_periods=3, n_assets=2)
    verts = np.exp(vertex_enumerate(tree))
    assert len(verts) == 1
    q = verts[0]
    assert q.min() > 0
    assert q == pytest.approx(np.exp(find_equivalent_mm(tree)), abs=1e-9)


def test_no_equivalent_mm_implies_every_vertex_degenerate():
    tree = treegen.dead_leaf_market()
    assert find_equivalent_mm(tree) is None
    for v in np.exp(vertex_enumerate(tree)):
        assert min(v) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 5.0), st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3))
def test_cone_homogeneity(scale, mu_raw):
    tree = treegen.tri1()
    A = build_constraints(tree)
    base = np.array([0.2, 0.4, 0.4])  # satisfies the constraint row
    mu = base * np.asarray(mu_raw).mean()
    if np.abs(A @ mu).max() > 1e-12:
        return
    assert np.abs(A @ (scale * mu)).max() <= 1e-12 * max(1.0, scale)


def test_relative_entropy_reference_measure(tri1):
    pair = exponential_utility(1.0, 0.0)
    p = tri1.leaf_probability_array
    assert relative_entropy(tri1, pair, p) == pytest.approx(-1.0, abs=1e-12)


def test_relative_entropy_zero_measure(tri1):
    pair_exp = exponential_utility(1.0, 0.0)
    zero = np.zeros(3)
    assert relative_entropy(tri1, pair_exp, zero) == pytest.approx(0.0)
    pair_tp = two_power_utility(0.5, 1.0, 1.0)
    assert relative_entropy(tri1, pair_tp, zero) == math.inf


def test_relative_entropy_vertex_value(tri1):
    pair = exponential_utility(1.0, 0.0)
    q = np.array([1 / 3, 0.0, 2 / 3])
    # densities (1, 0, 2) under the uniform reference: V(1)/3 + 0 + V(2)/3
    expected = (1 / 3) * (-1.0) + (1 / 3) * (2 * math.log(2) - 2)
    assert relative_entropy(tri1, pair, q) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99))
def test_relative_entropy_convex_along_segments(lam):
    tree = treegen.tri1()
    pair = exponential_utility(1.0, 0.0)
    mu0 = np.array([0.1, 0.6, 0.2])
    mu1 = np.array([0.5, 0.1, 1.0])
    mix = lam * mu1 + (1 - lam) * mu0
    lhs = relative_entropy(tree, pair, mix)
    rhs = (lam * relative_entropy(tree, pair, mu1)
           + (1 - lam) * relative_entropy(tree, pair, mu0))
    assert lhs <= rhs + 1e-10


def test_sampled_measures_are_martingale_measures():
    tree = treegen.product_market([[2.0, 1.0, 0.5], [1.5, 0.7]])
    for q in treegen.sample_measures(tree, 25, seed=3):
        assert is_martingale_measure(tree, q, tol=1e-8)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("make", [
    treegen.tri1, treegen.bin1,
    lambda: load_market(treegen.DATA / "quote_pinned_4x4_2a.json")])
def test_interior_start_lies_on_the_constraints(make):
    tree = make()
    geo = _support_structure(tree)
    mask, q = geo.mask, np.exp(geo.log_interior[-tree.n_leaves:])
    A = build_constraints(tree)
    assert np.abs(A @ q).max() <= 1e-12
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all(q[mask] > 0) and np.all(q[~mask] == 0)


@pytest.mark.parametrize("make", [treegen.dead_leaf_market] + [
    lambda seed=seed: treegen.random_market(np.random.default_rng(seed), n_assets=1 + seed % 2)
    for seed in range(6)], ids=["dead-leaf"] + [f"random-{seed}" for seed in range(6)])
def test_mask_is_the_boolean_liveness_of_the_leaves(make):
    # the leaves some enumerated vertex charges; a node is live exactly
    # when a live leaf lies below it, and nothing underflows here, so the
    # interior measure is positive exactly on the mask
    tree = make()
    geo = _support_structure(tree)
    charged = (vertex_enumerate(tree) > -np.inf).any(axis=0)
    q = np.exp(geo.log_interior[-tree.n_leaves:])
    assert geo.mask.tolist() == charged.tolist() == (q > 0).tolist()
    assert geo.live.tolist() == (tree.subtree_sums(geo.mask) > 0).tolist()
    assert not geo.live.flags.writeable


@pytest.mark.parametrize("make", [
    treegen.dead_leaf_market, lambda: treegen.product_market([[2.0, 1.0], [1.5, 0.5]])],
    ids=["dead-leaf", "dead-branch"])
def test_live_is_where_the_interior_log_mass_is_finite(make):
    # one pass gives the support and the measure: its log masses are -inf
    # exactly off the live nodes, and their leaf slice sums to each node's
    tree = make()
    geo = _support_structure(tree)
    ell, inner = geo.log_interior, tree.layout.level_starts[-2]
    assert not geo.live.all()
    assert np.array_equal(geo.live, ell > -np.inf)
    assert not geo.live.flags.writeable and not ell.flags.writeable
    assert np.allclose(tree.log_subtree_sums(ell[inner:]), ell, rtol=0.0, atol=1e-15)
    assert ell[0] == 0.0


def test_maximal_support_survives_underflowing_path_products():
    # each spine step has one-step weight 1/(1e10 + 1): the deepest float
    # path products (~1e-400) would read 0, the node log masses do not, and
    # they are a martingale measure: conditional prices meet the node prices
    tree = treegen.caterpillar_market()
    lay, inner = tree.layout, tree.layout.level_starts[-2]
    assert (tree.n_leaves, len(lay.ids)) == (41, 861)
    geo = _support_structure(tree)
    ell = geo.log_interior
    assert np.isfinite(ell[inner:]).all() and geo.mask.all()
    assert ell[inner:].min() == pytest.approx(40 * math.log(1 / (1e10 + 1)), rel=1e-14)
    s = lay.prices[:inner]
    gap = np.abs(tree.one_step_expectation(lay.prices, ell) - s) / np.maximum(np.abs(s), 1.0)
    assert gap[geo.live[:inner]].max() <= 1e-12
    # exp of the leaf slice underflows on the deepest side leaves
    assert (np.exp(ell[inner:]) == 0).sum() == 8


def test_the_equivalent_measure_leaves_as_log_masses_that_never_underflow():
    # the caterpillar's deepest leaf sits at e^-921: its float path product
    # read 0 on 8 of the 41 leaves
    tree = treegen.caterpillar_market()
    log_q = find_equivalent_mm(tree)
    ell = _support_structure(tree).log_interior[-tree.n_leaves:]
    assert log_q.shape == (41,) and np.isfinite(log_q).all()
    assert log_q.tobytes() == ell.tobytes()
    assert log_q.flags.writeable and not np.shares_memory(log_q, ell)
    top = log_q.max()
    assert abs(top + math.log(np.exp(log_q - top).sum())) <= 1e-15


def test_the_vertex_rows_are_log_masses_that_never_underflow():
    # the caterpillar is complete: its one vertex is the equivalent measure
    tree = treegen.caterpillar_market()
    verts = vertex_enumerate(tree)
    assert verts.shape == (1, 41) and np.isfinite(verts).all()
    assert verts[0] == pytest.approx(find_equivalent_mm(tree), rel=1e-13, abs=0.0)


def test_equivalent_measure_on_two_asset_book_market():
    # a two-asset 4x4x3 tree on which a dense Bland simplex reported the
    # max-min LP infeasible, so both calls raised NoMartingaleMeasureError
    tree = load_market(treegen.DATA / "book_exp_4x4x3_2a.json")
    q = find_equivalent_mm(tree)
    assert q is not None
    q = np.exp(q)
    assert q.min() > 1e-3
    assert is_martingale_measure(tree, q, tol=1e-9)
    gamma = 1.3749800819363094
    sol = solve_dual(tree, exponential_utility(gamma, 1.0 + 1.0 / gamma),
                     tree.endowment)
    assert sol.support == "EQUIVALENT"


def _lp_oracle(tree, u):
    """Maximal support and extremal expectations of ``u``, by linear programs.

    A leaf is in the support when some martingale probability charges it:
    one LP on :func:`treedual.simplex.solve_lp` maximizes the leaf's weight,
    for each leaf not already charged by an earlier LP's optimum.  Returns
    ``(mask, (lo, hi))``, or None when the martingale polytope is empty.
    """
    A = build_constraints(tree)
    L = tree.n_leaves
    rows = np.vstack([A, np.ones((1, L))])
    rhs = np.zeros(rows.shape[0])
    rhs[-1] = 1.0
    lo, hi = solve_lp(u, rows, rhs), solve_lp(-u, rows, rhs)
    if lo.status == "infeasible":
        return None
    mask = np.zeros(L, dtype=bool)
    for leaf in range(L):
        if not mask[leaf]:
            mask |= solve_lp(-np.eye(L)[leaf], rows, rhs).x > 1e-9
    return mask, (lo.value, -hi.value)


def _assert_matches_lp_oracle(tree, u):
    """The backward pass against :func:`_lp_oracle`: masks equal, bounds to
    1e-12 relative, and an interior measure on the martingale rows that is
    positive exactly on the mask."""
    oracle = _lp_oracle(tree, u)
    if oracle is None:
        with pytest.raises(NoMartingaleMeasureError):
            _support_structure(tree)
        return
    mask, bounds = oracle
    geo = _support_structure(tree)
    assert np.array_equal(geo.mask, mask)
    q = np.exp(geo.log_interior[-tree.n_leaves:])
    assert np.abs(build_constraints(tree) @ q).max() <= 1e-12
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all(q[mask] > 0) and np.all(q[~mask] == 0)
    for got, want in zip((x[0] for x in geo.extremes(u)), bounds):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("moves", [
    # every period-2 move is >= 1: only the unmoved child is live
    [[2.0, 1.0, 0.5], [1.5, 1.0]],
    [[1.5, 1.0], [2.0, 1.0, 0.5], [1.2, 1.0, 1.0]],
    # asset 1 never falls in period 1: the third child is dead
    [[(1.2, 1.0), (0.8, 1.0), (1.0, 1.3)], [(1.1, 1.2), (0.9, 0.7), (1.0, 1.1)]],
    [[(1.2, 1.1), (0.8, 0.9), (1.0, 1.0)], [(1.3, 1.0), (1.0, 1.2), (1.0, 1.0)]],
    [[2.0, 1.0, 0.5], [1.5, 0.7]],
])
def test_support_matches_per_leaf_oracle(moves, no_lp):
    tree = treegen.product_market(moves)
    with no_lp():
        _support_structure(tree)
    # the oracle reads the pass cached above
    _assert_matches_lp_oracle(tree, np.random.default_rng(0).normal(size=tree.n_leaves))


def _market(edges):
    """One-asset market from (node, parent, price) triples, root first;
    siblings are equally likely."""
    n_kids = {}
    for _, parent, _ in edges[1:]:
        n_kids[parent] = n_kids.get(parent, 0) + 1
    t = {}
    nodes = []
    for nid, parent, price in edges:
        t[nid] = 0 if parent is None else t[parent] + 1
        nodes.append({"id": nid, "parent": parent, "t": t[nid],
                      "prices": [repr(price)],
                      "prob": "1" if parent is None else repr(1.0 / n_kids[parent])})
    return market_from_dict({"version": 1, "assets": ["S"], "nodes": nodes})


# N's up child U has only up moves, so U is dead, which leaves N unviable
DEAD_SUBTREE = [("r", None, 1.0), ("N", "r", 1.0), ("M", "r", 1.0),
                ("U", "N", 1.5), ("D", "N", 0.5), ("M1", "M", 1.2), ("M2", "M", 0.8),
                ("U1", "U", 2.0), ("U2", "U", 1.8), ("D1", "D", 0.6), ("D2", "D", 0.4),
                ("M11", "M1", 1.3), ("M12", "M1", 1.1),
                ("M21", "M2", 0.9), ("M22", "M2", 0.7)]


@pytest.mark.parametrize("make,live", [
    # the unmoved second-period child is the only live one
    (lambda: treegen.product_market([[1.0, 1.5, 1.0, 0.5], [1.0, 1.2]]),
     [True, False] * 4),
    (lambda: treegen.product_market([[1.5, 1.5, 0.5, 0.5], [1.2, 1.2, 0.8]]),
     [True] * 12),
    # two children share an increment, a third is its mirror, a fourth is flat
    (lambda: treegen.product_market([[(1.2, 1.1), (1.2, 1.1), (0.8, 0.9), (1.0, 1.0)]]),
     [True] * 4),
    (lambda: _market(DEAD_SUBTREE), [False] * 4 + [True] * 4),
    # the dead subtree leaves only a down move at the root: no measure
    (lambda: _market([("r", None, 1.0), ("N", "r", 1.5), ("D", "r", 0.5),
                      ("N1", "N", 2.0), ("N2", "N", 1.8),
                      ("D1", "D", 0.6), ("D2", "D", 0.4)]), None),
], ids=["zero-increments", "repeated-increments", "repeated-2a",
        "dead-subtree", "dead-root"])
def test_backward_pass_edge_cases(make, live):
    tree = make()
    u = np.random.default_rng(1).normal(size=tree.n_leaves)
    _assert_matches_lp_oracle(tree, u)
    if live is None:
        with pytest.raises(NoMartingaleMeasureError):
            find_equivalent_mm(tree)
    else:
        assert _support_structure(tree).mask.tolist() == live


def test_backward_pass_matches_lp_oracle_on_acceptance_suite():
    for tree, _, endow in treegen.acceptance_suite():
        _assert_matches_lp_oracle(tree, endow)


@pytest.mark.parametrize("name", ["book_exp_4x4x3_2a.json", "quote_pinned_4x4_2a.json"])
def test_backward_pass_matches_lp_oracle_on_pinned_markets(name):
    tree = load_market(treegen.DATA / name)
    _assert_matches_lp_oracle(tree, treegen.random_endowment(np.random.default_rng(2), tree))


@st.composite
def _edited_random_markets(draw):
    """A random_market tree, with the children of one node moved so that one
    is flat and the others rise, two share an increment, or all rise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = treegen.random_market(rng, max_periods=3,
                                 n_assets=draw(st.sampled_from([1, 2])))
    edit = draw(st.sampled_from(["none", "flat", "repeat", "rise"]))
    if edit == "none":
        return tree, rng
    n = draw(st.sampled_from(range(len(tree.nonleaf_ids))))
    nid = tree.layout.ids[n]
    doc = market_to_dict(tree)
    kids = [nd for nd in doc["nodes"] if nd["parent"] == nid]
    for j, nd in enumerate(kids):
        if edit == "repeat":
            kids[1]["prices"] = kids[0]["prices"]
            break
        factor = 1.0 if edit == "flat" and j == 0 else 1.1 + 0.1 * j
        nd["prices"] = [repr(float(x) * factor) for x in tree.layout.prices[n]]
    return market_from_dict(doc), rng


@settings(max_examples=40, deadline=None)
@given(_edited_random_markets())
def test_backward_pass_matches_lp_oracle_on_random_markets(drawn):
    tree, rng = drawn
    _assert_matches_lp_oracle(tree, rng.normal(size=tree.n_leaves))


def _round_based_support(tree):
    """(node, child, weight) of the valid one-step vertices, with viability
    settled in ``tree.horizon`` rounds over every vertex of the tree."""
    lay = tree.layout
    n, inner = len(lay.ids), lay.level_starts[-2]
    first = lay.first_child
    count = np.diff(first, append=n)
    node, weight = [], []
    for m in np.unique(count):
        idx = np.flatnonzero(count == m)
        g, w = geometry._one_step_vertices(lay.prices[first[idx, None] + np.arange(m)]
                                           - lay.prices[idx, None])
        node.append(idx[g])
        weight.append(np.pad(w, ((0, 0), (0, count.max() - m))))
    by_node = np.argsort(np.concatenate(node), kind="stable")
    node, weight = np.concatenate(node)[by_node], np.concatenate(weight)[by_node]
    child = np.minimum(first[node, None] + np.arange(count.max()), n - 1)
    viable = np.arange(n) >= inner
    for _ in range(tree.horizon):
        valid = np.all(viable[child] | (weight == 0), axis=1)
        viable[:inner] = np.bincount(node[valid], minlength=inner) > 0
    return node[valid], child[valid], weight[valid]


def _arbitrage_below_a_viable_root():
    """Root children 2, 1.5 and 0.5 around 1; both children of node "a" lie
    above its price 2, so "a" is not viable, the root's vertex charging it
    is invalid and the root stays viable through "b" and "c"."""
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": ["1"], "prob": "1"}]
    for nid, price, kids in (("a", "2", ("3", "2.5")), ("b", "1.5", ("2", "1")),
                             ("c", "0.5", ("1", "0.25"))):
        nodes.append({"id": nid, "parent": "r", "t": 1, "prices": [price], "prob": "0.25"
                      if nid != "b" else "0.5"})
        nodes += [{"id": f"{nid}{k}", "parent": nid, "t": 2, "prices": [s], "prob": "0.5"}
                  for k, s in enumerate(kids)]
    return market_from_dict({"version": 1, "assets": ["S"], "nodes": nodes})


@pytest.mark.parametrize("tree", [
    *[inst[0] for inst in treegen.acceptance_suite()],
    treegen.dead_leaf_market(),
    treegen.product_market([[2.0, 1.0], [1.5, 0.5]]),
    _arbitrage_below_a_viable_root(),
])
def test_bottom_up_viability_matches_the_round_based_loop(tree):
    geo = _support_structure(tree)
    node, child, weight = _round_based_support(tree)
    assert np.array_equal(geo.node, node)
    assert np.array_equal(geo.child, child)
    assert np.array_equal(geo.weight, weight)


def test_a_node_without_vertices_kills_its_subtree():
    tree = _arbitrage_below_a_viable_root()
    assert tree.leaf_ids[:2] == ("a0", "a1")
    assert _support_structure(tree).mask.tolist() == [False, False, True, True, True, True]


# -- the one-asset closed form against the stacked SVD -------------------------

_TOL = geometry._TOL


def _rescaled(incr):
    scale = np.abs(incr).max(axis=1, keepdims=True)
    return incr / np.where(scale > 0, scale, 1.0)


def _assert_closed_form_matches_svd(incr):
    """``_one_step_vertices`` on one-asset increments (g, m, 1) against the
    stacked SVD on the same rescaled increments: the same nodes and charged
    children, vertex by vertex in order; weight 1 on a zero increment; pair
    weights within 1e-15 of the exact rational ones, and within 1e-15 times
    the pair's condition number s1/s2 of the SVD's, whose pseudo-inverse
    errs on that scale."""
    x = _rescaled(incr)
    node, weight = geometry._one_step_vertices(incr)
    ref_node, ref_weight = geometry._svd_vertices(x)
    assert node.dtype == ref_node.dtype and np.array_equal(node, ref_node)
    assert weight.shape == ref_weight.shape
    assert np.array_equal(weight > 0, ref_weight > 0)
    for n, row, ref in zip(node.tolist(), weight, ref_weight):
        on = np.flatnonzero(row)
        if on.size == 1:
            assert row[on[0]] == 1.0 and abs(ref[on[0]] - 1.0) <= 1e-15
            continue
        xi, xj = x[n, on, 0].tolist()
        exact = [Fraction(xj) / (Fraction(xj) - Fraction(xi)),
                 -Fraction(xi) / (Fraction(xj) - Fraction(xi))]
        assert all(abs(Fraction(w) - e) <= 1e-15 for w, e in zip(row[on].tolist(), exact))
        cond = (xi * xi + xj * xj + 2.0) / abs(xj - xi)
        assert np.abs(row - ref).max() <= 1e-15 * cond


# |x| / _TOL of the near-threshold children: one zero increment, one not; no
# two sum to 2, the rank threshold of a pair of them, and neither is near a
# ratio k / M of the integer increments, the weight threshold of a pair
_NEAR_TOL = (0.9, 1.15)


@st.composite
def _one_asset_increments(draw):
    """(g, m, 1) increments: integers in [-4, 4] (zeros, repeats, nodes with
    every child on one side), some children replaced by +-f _TOL times the
    node's largest remaining integer increment, f in _NEAR_TOL, all times a
    power of ten.  Every pair of a zero and a nonzero increment is then well
    conditioned, where the SVD's pseudo-inverse keeps an exact zero weight
    below _TOL (see the next test for where it does not)."""
    g, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def cells(elements):
        return np.array(draw(st.lists(elements, min_size=g * m, max_size=g * m))).reshape(g, m)

    v, near = cells(st.integers(-4, 4)).astype(float), cells(st.booleans())
    big = np.abs(np.where(near, 0.0, v)).max(axis=1, keepdims=True)
    f = cells(st.sampled_from([-1.0, 1.0])) * cells(st.sampled_from(_NEAR_TOL))
    v = np.where(near, f * _TOL * big, v)
    return (v * 10.0 ** draw(st.integers(-6, 6)))[:, :, None]


@settings(max_examples=300, deadline=None)
@given(_one_asset_increments())
def test_one_asset_closed_form_matches_the_svd(incr):
    _assert_closed_form_matches_svd(incr)


@pytest.mark.parametrize("rows", [
    [[0.0], [0.5], [-2.0]],                          # one child: alive iff flat
    [[1.0, 2.0], [-1.0, -3.0], [0.0, 0.0]],          # one-sided nodes die; flat ones keep both
    [[0.3, 0.2, 0.1, 0.4, 0.5, 0.6]],                # six children, all up: no vertex
    [[1.0, -1.0, 1.0, -1.0, 0.0, 0.0]],              # repeats and two zeros
    [[1.0, 0.9 * _TOL, -1.15 * _TOL, -0.5]],         # near the zero threshold
    [[2.0, -1.0, 0.5, -0.25, 1.0, -2.0], [1.0, 1.0, 1.0, 1.0, 1.0, -1e-3]],
])
def test_one_asset_closed_form_edge_cases(rows):
    _assert_closed_form_matches_svd(np.array(rows)[:, :, None])


def test_one_asset_closed_form_refuses_the_svd_noise_vertex():
    # children 0, 1 - 4.11e-7 and 1 around 1: only the flat child can be
    # charged, but the SVD's pseudo-inverse of the ill-conditioned pair
    # (-4.11e-7, 0) gives its exact zero weight 6.7e-11 > _TOL; the closed
    # form keeps the single vertex, and the tree's support is the LP's
    incr = np.array([[[-1.0], [-4.11e-7], [0.0]]])
    node, weight = geometry._one_step_vertices(incr)
    assert node.tolist() == [0] and weight.tolist() == [[0.0, 0.0, 1.0]]
    assert len(geometry._svd_vertices(incr)[0]) == 2
    tree = _market([("r", None, 1.0), ("a", "r", 0.0), ("b", "r", 1.0 - 4.11e-7),
                    ("c", "r", 1.0)])
    assert _support_structure(tree).mask.tolist() == [False, False, True]
    _assert_matches_lp_oracle(tree, np.array([1.0, -2.0, 0.5]))


# -- the two-asset closed form against the stacked SVD --------------------------


def _exact_least_squares(cols):
    """The least-squares weights w of [x; 1] w = e_last on the children
    ``cols`` (k lists of 2 fractions), in exact rationals: Gauss-Jordan on
    the normal equations, whose right-hand side is all ones."""
    rows = [list(r) for r in zip(*cols)] + [[Fraction(1)] * len(cols)]
    k = len(cols)
    g = [[sum(r[i] * r[j] for r in rows) for j in range(k)] + [Fraction(1)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if j != i and g[j][i] != 0:
                g[j] = [a - g[j][i] / g[i][i] * b for a, b in zip(g[j], g[i])]
    return [g[i][k] / g[i][i] for i in range(k)]


def _assert_two_asset_closed_form_matches_svd(incr):
    """``_one_step_vertices`` on two-asset increments (g, m, 2) against the
    stacked SVD on the same rescaled increments: the same nodes and charged
    children, vertex by vertex in order; weight 1 on a zero increment; pair
    weights within 1e-15 of the exact rational least-squares ones, triangle
    weights within 1e-15 times the triangle's condition number s1/s3, the
    scale on which Cramer's rule errs; and both within 1e-14 times the
    subset's condition number of the SVD's, whose pseudo-inverse erred by up
    to 4.6e-15 times it over 20 000 draws of the next test's increments."""
    x = _rescaled(incr)
    node, weight = geometry._one_step_vertices(incr)
    ref_node, ref_weight = geometry._svd_vertices(x)
    assert node.dtype == ref_node.dtype and np.array_equal(node, ref_node)
    assert weight.shape == ref_weight.shape
    assert np.array_equal(weight > 0, ref_weight > 0)
    for n, row, ref in zip(node.tolist(), weight, ref_weight):
        on = np.flatnonzero(row)
        if on.size == 1:
            assert row[on[0]] == 1.0 and abs(ref[on[0]] - 1.0) <= 1e-15
            continue
        cond = np.linalg.cond(np.vstack([x[n, on].T, np.ones(on.size)]))
        exact = _exact_least_squares([[Fraction(v) for v in x[n, c].tolist()] for c in on])
        bound = 1e-15 * (cond if on.size == 3 else 1.0)
        assert all(abs(Fraction(w) - e) <= bound for w, e in zip(row[on].tolist(), exact))
        assert np.abs(row - ref).max() <= 1e-14 * cond


# |x| / _TOL of a near-threshold child, one zero increment and one not.  One
# such child per node, along one asset: then its pairs' and triangles'
# weights, residuals and rank tests with the integer increments p / B
# (|p| <= B <= 4 after rescaling) stay at least 1% away from _TOL, the
# margin these factors keep at best (found by exhaustive search)
_NEAR_TOL_2 = (0.74, 1.21)


@st.composite
def _two_asset_increments(draw):
    """(g, m, 2) increments: integers in [-4, 4] (zeros, repeats, opposite
    collinear pairs, triangles around 0, nodes with every child on one side),
    in some nodes one child replaced by +-f _TOL times the node's largest
    integer increment in one asset, f in _NEAR_TOL_2, and zero in the other;
    each asset times its own power of ten."""
    g, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def cells(elements, *shape):
        n = math.prod(shape)
        return np.array(draw(st.lists(elements, min_size=n, max_size=n))).reshape(shape)

    v = cells(st.integers(-4, 4), g, m, 2).astype(float)
    child, asset = cells(st.integers(-1, m - 1), g), cells(st.integers(0, 1), g)
    f = cells(st.sampled_from([-1.0, 1.0]), g) * cells(st.sampled_from(_NEAR_TOL_2), g)
    near = np.flatnonzero(child >= 0)
    v[near, child[near]] = 0.0
    v[near, child[near], asset[near]] = f[near] * _TOL * np.abs(v).max(axis=1)[near, asset[near]]
    return v * 10.0 ** cells(st.integers(-6, 6), 1, 1, 2)


@settings(max_examples=300, deadline=None)
@given(_two_asset_increments())
def test_two_asset_closed_form_matches_the_svd(incr):
    _assert_two_asset_closed_form_matches_svd(incr)


@pytest.mark.parametrize("rows", [
    [[0.0, 0.0], [1.0, 2.0], [-2.0, -4.0], [3.0, -1.0]],   # a zero child, an opposite pair
    [[0.0, 0.0]],                                          # one child, flat
    [[1.0, 2.0], [-0.5, -1.0]],                            # two children, collinear
    [[1.0, 2.0], [-1.0, 1.0]],                             # two children, not collinear
    [[1.0, 0.5], [0.5, 1.0], [2.0, 0.1]],                  # every child on one side
    [[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [0.0, 0.0], [-1.0, 2.0]],   # repeats
    [[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0], [-2.0, 0.0]],    # the second asset does not move
    [[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0], [0.5, 0.5], [0.0, -1.0], [2.0, -3.0]],
])
def test_two_asset_closed_form_edge_cases(rows):
    _assert_two_asset_closed_form_matches_svd(np.array(rows)[None])


def _thin_triangle(eta):
    """Children 1, -1 and 1/2 along the diagonal, at eta, eta and -eta
    across it: a triangle of area ~ eta that holds 0 at weights 1/8, 3/8
    and 1/2."""
    along, across = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    return [along + eta * across, -along + eta * across, 0.5 * along - eta * across]


@pytest.mark.parametrize("f", _NEAR_TOL_2)
def test_two_asset_closed_form_near_the_thresholds(f):
    # (1, 0) and (-1, -2 f _TOL) are collinear to a residual of f _TOL, and
    # their triangle with (0.2, 1) holds 0 at weight f _TOL on that child:
    # below _TOL the pair is a vertex, above it the triangle
    incr = np.array([[[1.0, 0.0], [-1.0, -2.0 * f * _TOL], [0.2, 1.0]]])
    _assert_two_asset_closed_form_matches_svd(incr)
    on = [tuple(np.flatnonzero(w)) for w in geometry._one_step_vertices(incr)[1]]
    assert on == ([(0, 1)] if f < 1.0 else [(0, 1, 2)])
    # two children at +-f _TOL: two zero increments, or a pair of rank 2
    # (s2 / s1 = f _TOL)
    incr = np.array([[[f * _TOL, 0.0], [-f * _TOL, 0.0], [1.0, 0.5], [-0.5, -1.0]]])
    _assert_two_asset_closed_form_matches_svd(incr)
    on = [tuple(np.flatnonzero(w)) for w in geometry._one_step_vertices(incr)[1]]
    assert on == ([(0,), (1,)] if f < 1.0 else [(0, 1)])


@pytest.mark.parametrize("f", [0.95, 1.05])
def test_two_asset_closed_form_at_the_rank_threshold_of_a_thin_triangle(f):
    # after rescaling, the thin triangle's s3 / s1 is f _TOL, so that it is
    # a vertex only above _TOL; its long side's residual is 0.94 or 1.03
    # _TOL, so that side is a vertex only below.  s3 against the trace, in
    # place of s1, would read 0.76 or 0.84 _TOL here
    incr = np.array([_thin_triangle(f * _TOL / 1.0148)])
    _assert_two_asset_closed_form_matches_svd(incr)
    on = [tuple(np.flatnonzero(w)) for w in geometry._one_step_vertices(incr)[1]]
    assert on == ([(0, 1), (1, 2)] if f < 1.0 else [(1, 2), (0, 1, 2)])


def test_two_asset_closed_form_matches_the_svd_on_the_acceptance_suite():
    trees = [t for t, _, _ in treegen.acceptance_suite() if t.n_assets == 2]
    assert trees
    for tree in trees:
        lay = tree.layout
        inner, first = lay.level_starts[-2], lay.first_child
        count = np.diff(first, append=len(lay.ids))[:inner]
        for m in np.unique(count):
            idx = np.flatnonzero(count == m)
            _assert_two_asset_closed_form_matches_svd(
                lay.prices[first[idx, None] + np.arange(m)] - lay.prices[idx, None])


# -- the support certificates, and double description as the oracle of the
# product enumeration --------------------------------------------------------------


def _arbitrage_gains(tree):
    """The leaf gains of the support pass's arbitrage certificate and their
    scale, as the battery's checker reads them."""
    return checks._arbitrage_gains(tree.layout, _support_structure(tree).arbitrage)


@settings(max_examples=40, deadline=None)
@given(_edited_random_markets())
def test_double_description_is_the_product_of_the_one_step_vertices(drawn):
    # the vertices of the martingale polytope are the products of the
    # valid one-step vertices, and none charges a leaf where the arbitrage
    # certificate gains
    tree = drawn[0]
    verts = np.exp(vertex_enumerate(tree))
    _assert_same_rows(verts, _vertex_enumerate_pairwise(build_constraints(tree)), 1e-12)
    try:
        mask = _support_structure(tree).mask
    except NoMartingaleMeasureError:
        assert verts.shape == (0, tree.n_leaves)
        return
    gains, scale = _arbitrage_gains(tree)
    cut = gains > checks._CERTIFICATE_TOL * scale
    assert np.array_equal(cut, ~mask)
    assert np.all(verts[:, cut] == 0.0)


@settings(max_examples=40, deadline=None)
@given(_edited_random_markets())
def test_the_certificates_prove_the_support_flag(drawn):
    tree = drawn[0]
    try:
        results = run_battery(tree, exponential_utility(1.0, 2.0), 0.0)
    except NoMartingaleMeasureError:
        return
    head = {r.name: r for r in results[:5]}
    assert head["support flag matches market"].passed
    assert head["maximal support"].passed


def _three_asset_flat_plus_half_space():
    """Increments 0, e1, e2, e3 and (1, 1, -1/2): only the unmoved child is
    charged, and the others lie in an open half-space of R^3."""
    moves = [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0),
             (2.0, 2.0, 0.5)]
    return treegen.product_market([moves], s0=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("make", [
    treegen.dead_leaf_market,
    lambda: _market(DEAD_SUBTREE),
    _arbitrage_below_a_viable_root,
    lambda: treegen.product_market([[2.0, 1.0, 0.5], [1.5, 1.0]]),
    lambda: treegen.product_market([[1.5, 1.0], [2.0, 1.0, 0.5], [1.2, 1.0, 1.0]]),
    lambda: treegen.product_market([[(1.2, 1.0), (0.8, 1.0), (1.0, 1.3)],
                                    [(1.1, 1.2), (0.9, 0.7), (1.0, 1.1)]]),
    lambda: treegen.product_market([[(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.8)]]),
    _three_asset_flat_plus_half_space,
], ids=["dead-leaf", "dead-subtree", "arbitrage-below-root", "flat-only",
        "flat-only-3", "two-asset-line", "two-asset-arc", "three-asset-lp"])
def test_the_arbitrage_gains_at_least_one_exactly_off_the_maximal_support(make):
    # each dead leaf leaves the live nodes once, for a gain of at least 1
    tree = make()
    mask = _support_structure(tree).mask
    assert not mask.all()
    gains, scale = _arbitrage_gains(tree)
    assert np.abs(gains[mask]).max(initial=0.0) <= 1e-12 * (1.0 + scale[mask].max(initial=0.0))
    assert gains[~mask].min() >= 1.0 - 1e-12
    check = next(r for r in run_battery(tree, exponential_utility(1.0, 2.0), 0.0)
                 if r.name == "support flag matches market")
    assert check.passed and check.detail == "DEGENERATE"


def test_an_equivalent_market_holds_no_arbitrage():
    for tree, _, _ in treegen.acceptance_suite()[:10]:
        assert not _support_structure(tree).arbitrage.any()


@pytest.mark.parametrize("memo", [_support_structure, build_constraints],
                         ids=["support", "constraints"])
def test_the_tree_memos_count_each_call_and_keep_the_function(memo):
    # perfbench reads the hit ratio off cache_info() and traces __wrapped__
    tree = treegen.product_market([[1.2, 1.0, 0.85]])
    before = memo.cache_info()
    first = memo(tree)
    assert all(memo(tree) is first for _ in range(2))
    after = memo.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
    assert memo.__wrapped__.__module__ == "treedual.geometry"


def test_a_tree_without_martingale_measure_keeps_no_support_pass():
    tree, before = treegen.arbitrage_market(), _support_structure.cache_info()
    for _ in range(2):
        with pytest.raises(NoMartingaleMeasureError):
            _support_structure(tree)
    assert _support_structure.cache_info().misses - before.misses == 2


def test_derived_structures_live_as_long_as_their_tree(tp_pair):
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    solve_dual(tree, tp_pair, 0.0)
    solve_dual(tree, exponential_utility(1.0, 2.0), 0.0)
    geo = _support_structure(tree)
    A, levels, basis = build_constraints(tree), dual._live_levels(geo), dual._strategy_basis(geo)
    subtrees = dual._subtree_rows(tree)
    assert _support_structure(tree) is geo and build_constraints(tree) is A
    assert dual._live_levels(geo) is levels and dual._strategy_basis(geo) is basis
    assert dual._subtree_rows(tree) is subtrees
    refs = [weakref.ref(x) for x in (geo, A, *(a for batch in levels for a in batch[:2]), basis,
                                     *(sub.rows for sub in subtrees))]
    del tree, geo, A, levels, basis, subtrees
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
