import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratios
import treegen
from treedual import (DomainError, EvaluationOverflowError, NoPrimalOptimizerError,
                      NotExponentialError, ReplicationGapError, build_constraints,
                      dual_value_curve, dynamic_dual,
                      exponential_utility,
                      find_equivalent_mm, leaf_values,
                      optimal_measure_price_process, price_report, recover,
                      run_battery, snell_envelope_exponential,
                      solve_dual, two_power_utility, verify_supermartingale,
                      vertex_enumerate)
from treedual import checks, dual, recovery
from treedual.geometry import _support_structure
from treedual.market import log_masses
from treedual.recovery import DriftViolation

LN2 = math.log(2.0)


def test_wealth_of_another_shape_is_refused(tri1, exp_pair):
    # a bare IndexError and a broadcast error before; (N,) in layout order
    sol = solve_dual(tri1, exp_pair, [0.3, -0.2, 0.1])
    for check in (lambda w: verify_supermartingale(tri1, w),
                  lambda w: snell_envelope_exponential(sol, wealth=w),
                  lambda w: dynamic_dual(sol, 0, wealth=w)):
        for wealth in ([0.0, 1.0], np.zeros(2), np.zeros((4, 1))):
            with pytest.raises(ValueError, match=r"shape \(4,\) in layout order"):
                check(wealth)


def test_optimal_log_masses_of_another_shape_are_refused(tri1):
    # np.zeros(2) read a drift of 0.0 and np.zeros(5) a bare broadcast error
    for optimal in (np.zeros(2), np.zeros(5), np.zeros((4, 1))):
        with pytest.raises(ValueError, match=r"optimal node log masses must have shape "
                                             r"\(4,\) in layout order"):
            verify_supermartingale(tri1, np.zeros(4), optimal)


def test_both_families_solve_where_path_products_underflow():
    # the caterpillar's interior measure reads 0 on its deepest leaves; the
    # support read from it flagged the market DEGENERATE, so recover refused
    # the exponential optimum and the two-power dual was called infeasible
    tree = treegen.caterpillar_market()
    pair = exponential_utility(1.0, 2.0)
    sol = solve_dual(tree, pair, 0.0)
    assert sol.support == "EQUIVALENT"
    ps = recover(tree, pair, 0.0, sol)
    assert ps.replication_residual <= 1e-8
    assert ps.value == pytest.approx(sol.value, rel=1e-12)
    # the two-power optimum is in closed form there, and past the float
    # range on the deepest leaf: a typed error, not InfeasibleEntropyError
    with pytest.raises(EvaluationOverflowError):
        solve_dual(tree, two_power_utility(0.5, 1.0, 1.0), 0.0)


def test_bin1_terminal_wealth_closed_form(bin1, exp_pair_raw):
    sol = solve_dual(bin1, exp_pair_raw, 0.0)
    xhat = recover(bin1, exp_pair_raw, 0.0, sol).terminal_wealth
    # mass 3*2^(-5/3) makes the log-density (-(2/3)ln2, (1/3)ln2)
    assert bin1.leaf_ids == ("u", "d")
    assert xhat[0] == pytest.approx(2.0 / 3.0 * LN2, abs=1e-8)
    assert xhat[1] == pytest.approx(-LN2 / 3.0, abs=1e-8)
    # zero expected gain under the optimal measure
    assert np.dot(sol.q_hat, xhat) == pytest.approx(0, abs=1e-9)


def test_terminal_wealth_is_finite_where_the_optimal_mass_underflows(tri1, exp_pair):
    # the middle leaf's mass e^-800 underflows to 0; X reads the exact log-mass
    e = np.array([0.0, 800.0, 0.0])
    sol = solve_dual(tri1, exp_pair, e)
    assert sol.support == "EQUIVALENT" and sol.q_hat[1] == 0.0
    ps = recover(tri1, exp_pair, e, sol)
    x = ps.terminal_wealth
    assert np.isfinite(x).all()
    # the leaves come last in layout order
    assert x == pytest.approx(ps.wealth[-tri1.n_leaves:], rel=0, abs=1e-13)


def test_bin1_delta_hedge(bin1, exp_pair_raw):
    sol = solve_dual(bin1, exp_pair_raw, 0.0)
    ps = recover(bin1, exp_pair_raw, 0.0, sol)
    root, w_u, w_d = ps.wealth   # layout order: root, u, d
    assert ps.strategy[0, 0] == pytest.approx((w_u - w_d) / 1.5, abs=1e-9)
    assert abs(root) <= 1e-9
    assert ps.replication_residual <= 1e-8


def test_complete_market_inverse_marginal(bin1, tp_pair):
    e = {"u": 0.5, "d": -0.25}
    sol = solve_dual(bin1, tp_pair, e)
    xhat = recover(bin1, tp_pair, e, sol).terminal_wealth
    dens = sol.density_array
    total = xhat + leaf_values(bin1, e)
    assert tp_pair.u_prime(total) == pytest.approx(dens, abs=1e-10)


def test_replicable_endowment_absorbed():
    # reference measure is already a martingale measure; endowment is minus a
    # traded gain, so the optimal terminal wealth is exactly its hedge
    tree = treegen.product_market([[1.5, 0.5]], prob_lists=[[0.5, 0.5]])
    pair = exponential_utility(1.0, 0.0)
    gain = 2.0 * (np.array([1.5, 0.5]) - 1.0)
    e = dict(zip(tree.leaf_ids, (-gain).tolist()))
    sol = solve_dual(tree, pair, e)
    ps = recover(tree, pair, e, sol)
    assert ps.terminal_wealth == pytest.approx(gain, abs=1e-8)
    assert ps.strategy[0, 0] == pytest.approx(2.0, abs=1e-8)


def test_degenerate_refuses_recovery(exp_pair):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    with pytest.raises(NoPrimalOptimizerError):
        recover(tree, exp_pair, 0.0, sol)


def test_duality_gap_and_residuals(tri1, exp_pair, tp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    for pair in (exp_pair, tp_pair):
        sol = solve_dual(tri1, pair, e)
        ps = recover(tri1, pair, e, sol)
        assert abs(ps.value - sol.value) <= 1e-7 * (1 + abs(sol.value))
        assert ps.first_order_residual <= 1e-8 * (1 + sol.mass)
        assert ps.replication_residual <= 1e-8
        assert abs(ps.wealth[0]) <= 1e-8


def _two_asset_market(s2):
    # one valid vertex at every node: (1.2, 1.1), (0.9, 1.15) and (1.0, 0.8)
    # times (1, s2)
    return treegen.product_market([[(1.2, 1.1), (0.9, 1.15), (1.0, 0.8)]] * 2, s0=(1.0, s2))


def test_recover_refuses_a_measure_read_off_a_wrong_strategy(exp_pair, monkeypatch):
    # the exponential measure is read off L and the strategy h.  A start fit
    # blind to the second asset leaves L exact (one-vertex nodes take w0 in
    # closed form) and h_2 = 0, so the measure drifts; recover names the
    # node where it does before it compares X with the wealth
    def blind(geo, _fn=dual._exponential_start):
        return tuple(start._replace(fit=start.fit * [1.0, 0.0]) for start in _fn(geo))
    tree = _two_asset_market(1.0)
    e = np.linspace(-0.5, 0.5, tree.n_leaves)
    ref = solve_dual(tree, exp_pair, e)
    monkeypatch.setattr(dual, "_exponential_start", blind)
    sol = solve_dual(tree, exp_pair, e)
    assert sol.value == ref.value and np.all(sol._h_arr[:, 1] == 0.0)
    with pytest.raises(ReplicationGapError, match="martingale residual") as err:
        recover(tree, exp_pair, e, sol)
    assert err.value.node_id == "r" and err.value.residual > 0.1


@pytest.mark.parametrize("s2", [1e-12, 1.0, 1e12])
def test_battery_reads_the_optimal_drift_in_each_assets_own_units(exp_pair, monkeypatch, s2):
    # every check passes on the optimum in any units of asset 2; the blind
    # start's measure drifts by a quarter of asset 2's increment, which
    # "martingale constraints at optimum" sees in any units too
    def blind(geo, _fn=dual._exponential_start):
        return tuple(start._replace(fit=start.fit * [1.0, 0.0]) for start in _fn(geo))
    tree = _two_asset_market(s2)
    e = np.linspace(-0.5, 0.5, tree.n_leaves)
    assert all(c.passed for c in run_battery(tree, exp_pair, e))
    monkeypatch.setattr(dual, "_exponential_start", blind)
    failed = [c.name for c in run_battery(tree, exp_pair, e) if not c.passed]
    assert failed[:2] == ["martingale constraints at optimum", "dual first-order conditions"]


def test_recover_tests_the_measure_in_each_assets_own_units():
    # at s2 = 1e-7 a measure whose start fit misses the second asset drifts
    # by a quarter of that asset's increment, under 3e-9 of 1 + |S_n|:
    # recover reads the drift over the asset's top, so it raises on such a
    # measure rather than return a primal value of 1.10334 against the dual
    # 1.17087.  The pass, in each asset's unit, solves the tree
    pair, tree = exponential_utility(1.0, 2.0), _two_asset_market(1e-7)
    e = np.linspace(-0.5, 0.5, tree.n_leaves)
    sol = solve_dual(tree, pair, e)
    try:
        ps = recover(tree, pair, e, sol)
    except ReplicationGapError as err:
        assert "martingale residual" in str(err) and err.residual > 0.1
    else:
        assert ps.value == pytest.approx(sol.value, rel=1e-12)


def test_recover_refuses_a_problem_other_than_its_solutions(tri1, exp_pair, tp_pair):
    # another problem is the caller's mistake, not a replication gap of the
    # solver
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    for pair, other in ((exp_pair, tp_pair), (tp_pair, exp_pair)):
        sol = solve_dual(tri1, pair, e)
        for args in ((tri1, pair, 0.0), (tri1, other, e), (treegen.tri1(), pair, e)):
            with pytest.raises(DomainError, match="dual solution was solved for"):
                recover(*args, sol)
        # the same endowment in another input form is the same problem
        assert recover(tri1, pair, np.array([0.3, -0.2, 0.1]), sol).replication_residual <= 1e-8

def test_supermartingale_under_vertices(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, 0.0)
    ps = recover(tri1, exp_pair, 0.0, sol)
    rep = verify_supermartingale(tri1, ps.wealth, optimal=sol.node_log_q)
    assert not rep.violations
    assert rep.max_drift <= 1e-8
    assert rep.max_abs_drift_under_optimal <= 1e-8
    assert rep.vertices_tested == 2


def test_supermartingale_check_detects_drift():
    # a process that is a martingale under one vertex drifts under the other
    tree = treegen.tri1()
    verts = np.exp(vertex_enumerate(tree))
    q0 = verts[0]   # (0, 1, 0)
    q1 = verts[1]   # (1/3, 0, 2/3)
    w_leaves = np.array([2.0, -1.0, 0.5])
    drift1 = float(np.dot(q1, w_leaves) - np.dot(q0, w_leaves))   # 2
    # a martingale under q0: the root drifts up by drift1 under q1
    rep0 = verify_supermartingale(tree, np.append(np.dot(q0, w_leaves), w_leaves))
    assert rep0.violations == (DriftViolation("root", pytest.approx(drift1, abs=1e-15)),)
    assert rep0.max_drift == pytest.approx(drift1, abs=1e-15)
    # a martingale under q1: q0 drifts down, a supermartingale
    rep1 = verify_supermartingale(tree, np.append(np.dot(q1, w_leaves), w_leaves))
    assert not rep1.violations
    assert rep1.max_drift == pytest.approx(0.0, abs=1e-15)


def _reference_checks(tree, wealth, u, verts):
    """The per-measure loops over DD's vertices that the one-step vertices
    replace, in the float subtree-ratio form: the nodes some vertex
    charges, the drift violations by node, the largest drift, and per
    charged node the min and max of E_v[u | n] over the vertices v
    charging it."""
    inner = len(tree.nonleaf_ids)
    w = np.asarray(wealth, dtype=float)
    drift = ratios.one_step(tree, w, verts) - w[:inner]
    charged = tree.subtree_sums(verts) > 0
    bad = charged[:, :inner] & (drift > 1e-8 * (1.0 + np.abs(w).max()))
    worst = np.where(charged[:, :inner], drift, -np.inf).max(axis=0)
    violations = [(tree.layout.ids[n], float(worst[n])) for n in np.flatnonzero(bad.any(axis=0))]
    cond = ratios.conditional(tree, u, verts)
    lo = np.where(charged, cond, np.inf).min(axis=0)
    hi = np.where(charged, cond, -np.inf).max(axis=0)
    return charged.any(axis=0), violations, float(worst.max()), lo, hi


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
       st.sampled_from(["exp", "two_power"]))
def test_one_step_vertices_match_the_loops_over_dd_vertices(seed, n_assets, family):
    # a martingale measure's conditional step at a node it charges is a
    # one-step vertex there exactly when it is a vertex of the polytope, so
    # the one-step vertices give the extremes of every per-measure loop
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=2, n_assets=n_assets)
    pair = (exponential_utility(1.0, 2.0) if family == "exp"
            else two_power_utility(0.5, 1.0, 1.0))
    sol = solve_dual(tree, pair, rng.uniform(-1.0, 1.0, tree.n_leaves))
    wealth = rng.normal(size=len(tree.layout.ids))
    verts = np.exp(vertex_enumerate(tree))
    charged, violations, max_drift, lo_ref, hi_ref = _reference_checks(
        tree, wealth, sol.terminal_gain, verts)
    geo = _support_structure(tree)
    assert np.array_equal(charged, geo.live)

    rep = verify_supermartingale(tree, wealth)
    # the package weighs by one-step weights, the reference divides float sums
    scale = 1e-13 * (1.0 + np.abs(wealth).max())
    assert [v.node_id for v in rep.violations] == [v[0] for v in violations]
    assert [v.drift for v in rep.violations] == pytest.approx([v[1] for v in violations],
                                                              rel=0, abs=scale)
    assert rep.max_drift == pytest.approx(max_drift, rel=0, abs=scale)

    lo, hi = geo.extremes(sol.terminal_gain)
    u_scale = 1e-13 * (1.0 + np.abs(sol.terminal_gain).max())
    assert lo[charged] == pytest.approx(lo_ref[charged], rel=0, abs=u_scale)
    assert hi[charged] == pytest.approx(hi_ref[charged], rel=0, abs=u_scale)


def test_optimal_drift_reads_nodes_whose_float_mass_is_zero(exp_pair):
    # q_hat's float subtree mass is 0 below some caterpillar nodes; its node
    # log masses still weigh their children, so a wealth bent there is seen
    tree = treegen.caterpillar_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    wealth = recover(tree, exp_pair, 0.0, sol).wealth
    dark = np.flatnonzero(tree.subtree_sums(sol.q_hat)[:len(tree.nonleaf_ids)] == 0)
    assert dark.size
    for bend, low, high in ((0.0, 0.0, 1e-8), (1.0, 0.5, 2.0)):
        bent = wealth.copy()
        bent[dark[-1]] += bend
        rep = verify_supermartingale(tree, bent, optimal=sol.node_log_q)
        assert low <= rep.max_abs_drift_under_optimal <= high


def test_supermartingale_reads_every_caterpillar_node_a_float_mixture_misses(exp_pair,
                                                                             monkeypatch):
    # the float measure (1 - 1e-6) v + 1e-6 q_hat of the caterpillar's one
    # vertex v has node log mass -inf at 28 of its 820 non-leaf nodes, where
    # v's path products and q_hat both underflow; a wealth bent by +1 at the
    # most weighted child of any of them drifts that node up, and the
    # battery's check FAILs on each
    tree = treegen.caterpillar_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    ps = recover(tree, exp_pair, 0.0, sol)
    inner = len(tree.nonleaf_ids)
    verts = np.exp(vertex_enumerate(tree))
    assert len(verts) == 1
    mixed = tree.log_subtree_sums(log_masses((1 - 1e-6) * verts + 1e-6 * sol.q_hat))[0]
    dark = np.flatnonzero(mixed[:inner] == -np.inf)
    assert dark.size == 28 and inner == 820
    geo = _support_structure(tree)
    for n in dark.tolist():
        at = np.flatnonzero(geo.node == n)
        k, j = np.unravel_index(np.argmax(geo.weight[at]), geo.weight[at].shape)
        bent = ps.wealth.copy()
        bent[geo.child[at[k], j]] += 1.0
        rep = verify_supermartingale(tree, bent)
        assert [v.node_id for v in rep.violations] == [tree.layout.ids[n]]
        assert rep.max_drift == pytest.approx(geo.weight[at[k], j], rel=1e-9)
        monkeypatch.setattr(checks, "recover",
                            lambda *args, bent=bent: dataclasses.replace(ps, wealth=bent))
        results = {r.name: r for r in run_battery(tree, exp_pair, 0.0)}
        assert not results["supermartingale under tested measures"].passed, n


def test_two_power_wealth_is_tested_under_every_vertex(tri1, tp_pair):
    # both vertices miss a leaf, so their two-power entropy is infinite;
    # the one-step vertices bound every equivalent measure all the same
    sol = solve_dual(tri1, tp_pair, 0.0)
    ps = recover(tri1, tp_pair, 0.0, sol)
    rep = verify_supermartingale(tri1, ps.wealth, optimal=sol.node_log_q)
    assert rep.vertices_tested == 2
    assert not rep.violations and rep.max_drift <= 1e-8
    assert rep.max_abs_drift_under_optimal <= 1e-8


def test_dynamic_dual_boundary_times(tri1, exp_pair):
    e = {"a": 0.2, "b": -0.1, "c": 0.3}
    sol = solve_dual(tri1, exp_pair, e)
    ps = recover(tri1, exp_pair, e, sol)
    root = dynamic_dual(sol, 0, wealth=ps.wealth)
    assert len(root) == 1
    assert abs(root[0].derivative) <= 1e-7           # stationarity at the root
    assert root[0].value == pytest.approx(sol.value, abs=1e-9)
    leaves = dynamic_dual(sol, 1, wealth=ps.wealth)
    x = ps.terminal_wealth
    for node in leaves:
        i = tri1.leaf_ids.index(node.node_id)
        assert node.derivative == pytest.approx(-x[i], abs=1e-8)
        assert node.wealth_residual <= 1e-7


def test_dynamic_dual_interior_time(exp_pair, tp_pair):
    tree = treegen.product_market([[2.0, 1.0, 0.5], [1.6, 0.7]])
    rng = np.random.default_rng(9)
    e = treegen.random_endowment(rng, tree)
    for pair in (exp_pair, tp_pair):
        sol = solve_dual(tree, pair, e)
        ps = recover(tree, pair, e, sol)
        for t in range(tree.horizon + 1):
            for node in dynamic_dual(sol, t, wealth=ps.wealth):
                assert node.wealth_residual <= 1e-7
                assert node.restriction_gap <= 1e-9


def test_snell_envelope(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    ps = recover(tri1, exp_pair, e, sol)
    rep = snell_envelope_exponential(sol, wealth=ps.wealth)
    assert rep.max_equality_gap <= 1e-5
    assert rep.max_lower_bound_excess <= 1e-7
    # at the terminal time the envelope is the terminal wealth itself
    # (the leaves come last in layout order)
    assert rep.envelope[-tri1.n_leaves:] == pytest.approx(ps.terminal_wealth, abs=1e-8)
    assert rep.envelope[0] == pytest.approx(0.0, abs=1e-7)


def test_snell_requires_exponential(tri1, tp_pair):
    sol = solve_dual(tri1, tp_pair, 0.0)
    ps = recover(tri1, tp_pair, 0.0, sol)
    with pytest.raises(NotExponentialError):
        snell_envelope_exponential(sol, wealth=ps.wealth)


def test_recover_lists_unreached_nodes(exp_pair):
    # an endowment of 800 on r.1's leaves leaves r.1 a mass of about e^-800,
    # which underflows as a float; its node log mass is exact, so the node is
    # charged and reached, and only a node without optimal mass is listed
    tree = treegen.product_market([[1.2, 1.0, 0.85], [1.2, 0.9]])
    e = np.array([800.0 if nid.startswith("r.1.") else 0.0 for nid in tree.leaf_ids])
    sol = solve_dual(tree, exp_pair, e)
    assert sol.support == "EQUIVALENT"
    r1 = tree.layout.ids.index("r.1")
    assert tree.subtree_sums(sol.q_hat)[r1] == 0.0 and sol.charged[r1]
    ps = recover(tree, exp_pair, e, sol)
    assert ps.unreached == ()
    assert ps.replication_residual <= 1e-8
    assert np.array_equal(ps.strategy, sol._h_arr)
    # without its log masses, r.1 carries no optimal mass
    log_q = np.where([nid.startswith("r.1.") for nid in tree.leaf_ids], -np.inf, sol._log_q)
    cut = dataclasses.replace(sol, _log_q=log_q)
    assert recover(tree, exp_pair, e, cut).unreached == ("r.1",)


def test_dynamic_dual_on_a_degenerate_market(exp_pair):
    # the dead leaf is off the maximal support: the conditional problems run
    # on the support, and the mass derivative vanishes at the optimal mass
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    for t in range(tree.horizon + 1):
        for node in dynamic_dual(sol, t):
            assert math.isfinite(node.derivative) and node.restriction_gap <= 1e-12
    root = dynamic_dual(sol, 0)[0]
    assert root.value == pytest.approx(sol.value, rel=1e-14)
    assert abs(root.derivative) <= 1e-12


# -- dynamic dual against per-node Newton-core solves ------------------------------


def _dynamic_dual_by_core(sol, t):
    """Oracle of ``dynamic_dual``: per positive-mass node at time t, the
    conditional problem solved by the Newton core on the subtree's rows,
    started at the optimizer, with the envelope derivative and the gap
    to the restricted optimizer's objective.  Returns (node index, raw
    value / P_n, derivative, gap) per node."""
    tree, pair, e, mu = sol.tree, sol.pair, sol._endow_arr, sol.mu
    lay, p = tree.layout, tree.leaf_probability_array
    A, live = build_constraints(tree), _support_structure(tree).mask
    mass = tree.subtree_sums(mu)
    out = []
    for k in range(lay.level_starts[t], lay.level_starts[t + 1]):
        lo, hi, m_n = lay.lo[k], lay.hi[k], float(mass[k])
        if m_n <= 0:
            continue
        inside = (lay.lo >= lo) & (lay.hi <= hi)
        A_sub = A[np.repeat(inside[:lay.level_starts[-2]], tree.n_assets), lo:hi]
        p_sub, e_sub, on = p[lo:hi], e[lo:hi], live[lo:hi]
        mu_sub, _, raw, *_, (err,) = dual._newton_core(
            A_sub, p_sub, e_sub[None], pair, on, mass=[m_n], start=mu[None, lo:hi])
        assert err is None
        mu_on, raw = mu_sub[0][on], float(raw[0])
        deriv = float(np.dot(mu_on / m_n, pair.v_prime(mu_on / p_sub[on]) + e_sub[on]))
        # the restricted optimizer's entropy plus the endowment's cost
        restricted = p_sub @ pair.v(mu[lo:hi] / p_sub) + mu[lo:hi] @ e_sub
        gap = abs(raw - restricted) / (1.0 + abs(raw))
        out.append((k, raw / float(tree.node_probability_array[k]), deriv, gap))
    return out


def _assert_dynamic_dual_matches_the_core(sol):
    # the derivative is minus a wealth, at the endowment's scale; the
    # core's optimum is the less exact side, to ~2e-13 of that scale
    ids = sol.tree.layout.ids
    scale = 1.0 + np.abs(sol._endow_arr).max()
    for t in range(sol.tree.horizon + 1):
        got = dynamic_dual(sol, t)
        want = _dynamic_dual_by_core(sol, t)
        assert [node.node_id for node in got] == [ids[k] for k, *_ in want]
        for node, (_, value, deriv, gap) in zip(got, want):
            assert abs(node.value - value) <= 1e-12 * (1.0 + abs(value))
            assert abs(node.derivative - deriv) <= 1e-12 * scale
            assert abs(node.restriction_gap - gap) <= 1e-12


@pytest.mark.parametrize("seed", range(24))
def test_exponential_dynamic_dual_matches_per_node_core_solves(seed):
    # one- and two-asset trees, endowments on [-1, 1] and on [-20, 20]
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = exponential_utility(float(rng.uniform(0.3, 3.0)), 2.0)
    scale = 20.0 if seed % 4 >= 2 else 1.0
    sol = solve_dual(tree, pair, rng.uniform(-scale, scale, size=tree.n_leaves))
    _assert_dynamic_dual_matches_the_core(sol)


@pytest.mark.parametrize("endow", [0.0, [20.0, -20.0], [-20.0, 3.0]])
def test_exponential_dynamic_dual_matches_the_core_on_a_degenerate_market(endow):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exponential_utility(1.3, 2.0), endow)
    assert sol.support == "DEGENERATE"
    _assert_dynamic_dual_matches_the_core(sol)


@pytest.mark.parametrize("seed", range(6))
def test_two_power_dynamic_dual_leaves_match_the_cores_leaf_solve(seed):
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0)), 1.0)
    sol = solve_dual(tree, pair, rng.uniform(-3.0, 3.0, size=tree.n_leaves))
    got = dynamic_dual(sol, tree.horizon)
    want = _dynamic_dual_by_core(sol, tree.horizon)
    assert len(got) == len(want) == tree.n_leaves
    for node, (_, value, deriv, gap) in zip(got, want):
        assert abs(node.value - value) <= 1e-12 * (1.0 + abs(value))
        assert abs(node.derivative - deriv) <= 1e-12 * (1.0 + abs(deriv))
        assert node.restriction_gap == 0.0 and gap <= 1e-12


def _subtree_solves_by_node(sol, nodes, masses):
    """Oracle of ``dual._subtree_solves``: the raw conditional dual
    values and mass derivatives at the non-leaf ``nodes`` with optimal
    masses ``masses``, one Newton-core call per node, on the subtree's rows
    of ``build_constraints`` that the tree's strategy basis keeps, started
    at the optimizer."""
    tree, pair, e, mu = sol.tree, sol.pair, sol._endow_arr, sol.mu
    lay, p = tree.layout, tree.leaf_probability_array
    geo = _support_structure(tree)
    A, live, basis = build_constraints(tree), geo.mask, dual._strategy_basis(geo)
    raw, deriv = np.empty(nodes.size), np.empty(nodes.size)
    for i, (k, m_n) in enumerate(zip(nodes.tolist(), masses.tolist())):
        lo, hi = lay.lo[k], lay.hi[k]
        # the kept rows of the non-leaf nodes inside this subtree
        inside = (lay.lo >= lo) & (lay.hi <= hi)
        A_sub = A[np.repeat(inside[:lay.level_starts[-2]], tree.n_assets) & basis, lo:hi]
        p_sub, e_sub, on = p[lo:hi], e[lo:hi], live[lo:hi]
        mu_sub, _, val, *_, (err,) = dual._newton_core(A_sub, p_sub, e_sub[None], pair, on,
                                                       mass=[m_n], start=mu[None, lo:hi])
        if err is not None:
            raise err
        # the envelope formula; leaves off the support carry no mass
        mu_on = mu_sub[0, on]
        raw[i] = val[0]
        deriv[i] = np.dot(mu_on / m_n, pair.v_prime(mu_on / p_sub[on]) + e_sub[on])
    return raw, deriv


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_one_core_call_per_time_matches_the_per_node_solves(seed, n_assets):
    # the subtrees of one time, 2 or 3 children per one-asset node, are
    # padded to the largest in one stacked call; each row meets its own
    # per-node solve to rounding
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=n_assets)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0)), 1.0)
    sol = solve_dual(tree, pair, rng.uniform(-1.0, 1.0, tree.n_leaves))
    mass, starts = tree.subtree_sums(sol.mu), tree.layout.level_starts
    for t in range(tree.horizon):
        nodes = np.arange(starts[t], starts[t + 1])
        nodes = nodes[sol.charged[nodes]]
        got = dual._subtree_solves(sol, nodes, mass[nodes])
        want = _subtree_solves_by_node(sol, nodes, mass[nodes])
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-12 * (1.0 + np.abs(w)))


@pytest.mark.parametrize("family", ["exponential", "two_power"])
def test_dynamic_dual_calls_the_core_only_at_two_power_inner_nodes(family, monkeypatch):
    tree = treegen.product_market([[2.0, 1.0, 0.5], [1.6, 0.7]])
    pair = (exponential_utility(1.0, 2.0) if family == "exponential"
            else two_power_utility(0.5, 1.0, 1.0))
    sol = solve_dual(tree, pair, treegen.random_endowment(np.random.default_rng(9), tree))
    calls, real = [], dual._newton_core
    monkeypatch.setattr(dual, "_newton_core",
                        lambda *args, **kw: calls.append(args[1].shape) or real(*args, **kw))
    per_time = []
    for t in range(tree.horizon + 1):
        before = len(calls)
        nodes = dynamic_dual(sol, t)
        per_time.append((len(calls) - before, len(nodes)))
    if family == "exponential":
        assert calls == []
    else:
        # the root's problem is the value curve's point at the optimum's
        # mass, one whole-tree call; then one call per time 1 .. T - 1 with
        # positive-mass non-leaf nodes, a row per node on its subtree's leaves
        assert per_time == [(1, 1), (1, 3), (0, tree.n_leaves)]
        assert calls == [(tree.n_leaves,), (3, 2)]


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_a_two_power_battery_makes_horizon_plus_one_core_calls(horizon, monkeypatch):
    # the solve, the value curve, whose middle point is the root's
    # conditional problem, and one conditional call per time 1 .. T - 1,
    # counted at the core's one binding
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * horizon)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    calls = []
    monkeypatch.setattr(dual, "_newton_core", lambda *args, real=dual._newton_core, **kw:
                        calls.append(1) or real(*args, **kw))
    results = run_battery(tree, two_power_utility(0.5, 1.0, 1.0), e)
    assert all(r.passed for r in results)
    assert len(calls) == horizon + 1


@pytest.mark.parametrize("seed", range(8))
def test_the_root_conditional_problem_is_the_curves_middle_point(seed):
    # dynamic_dual(sol, 0) solves the whole tree at mass exp(ln m) from the
    # optimum, the row the curve solves at the optimum's own log mass, with
    # the same envelope formula: the battery reads the curve's point there
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0)), 1.0)
    sol = solve_dual(tree, pair, rng.uniform(-1.0, 1.0, tree.n_leaves))
    ss = sol._log_mass + np.log([0.5, 0.75, 1.0, 1.5, 2.0])
    mid = dual_value_curve(sol, log_masses=ss).points[2]
    root, = dynamic_dual(sol, 0)
    assert (root.value, root.derivative) == (mid.value, mid.derivative)


def test_the_battery_forms_the_optimums_entropy_once():
    # one conjugate point (V, V', V'') at the optimum's mu/p per battery:
    # "zero duality gap" sums p V, the dynamic dual adds mu e to it, and X
    # (first-order conditions, recovery, the leaves' problems) reads V'; the
    # other pass is the certification's, over its 51 + 200 points
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    base = two_power_utility(0.5, 1.0, 1.0)
    calls = []
    pair = dataclasses.replace(base, v_point=lambda y: calls.append(np.shape(y))
                               or base.v_point(y))
    results = run_battery(tree, pair, np.random.default_rng(1).uniform(-1.0, 1.0, tree.n_leaves))
    assert all(r.passed for r in results)
    assert calls == [(251,), (27,)]


@pytest.mark.parametrize("n_assets", [1, 2])
def test_exponential_battery_runs_no_newton_core(n_assets, no_dense_core):
    rng = np.random.default_rng(11 + n_assets)
    tree = treegen.random_market(rng, max_periods=3, n_assets=n_assets)
    e = rng.uniform(-3.0, 3.0, size=tree.n_leaves)
    with no_dense_core():
        results = run_battery(tree, exponential_utility(1.5, 2.0), e)
    assert all(r.passed for r in results)
    assert [r.name for r in results][-1] == "conjugate growth bound along the curve"


@pytest.mark.parametrize("n_assets", [1, 2])
def test_two_power_solve_price_and_battery_solve_no_least_squares(n_assets, tp_pair,
                                                                  monkeypatch):
    # the Newton steps, warm starts and the battery's KKT fit are QRs on the
    # tree's strategy basis
    rng = np.random.default_rng(30 + n_assets)
    tree = treegen.random_market(rng, max_periods=3, n_assets=n_assets)
    e, claim = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares problem was solved")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert solve_dual(tree, tp_pair, e).iterations[0]["steps"] > 0
    rep = price_report(tree, tp_pair, e, claim)
    assert rep.bid <= rep.offer
    assert all(r.passed for r in run_battery(tree, tp_pair, e))


@pytest.mark.parametrize("d", [745.0, 746.5, 747.5, 748.0])
def test_battery_reports_where_the_curve_masses_underflow(tri1, exp_pair, d):
    # the optimal log mass is below -743.6, so the curve's masses
    # e^(L + ln[0.5 .. 2]) round to equal subnormals or to 0: in log masses
    # the points stay distinct and their derivatives exact
    results = run_battery(tri1, exp_pair, [d, d + 30.0, d - 5.0])
    assert len(results) == 18 and all(r.passed for r in results)


# -- the solvers' strategy against per-node least-squares replication ---------------


def _lstsq_replication(tree, q, x):
    """Reference: the wealth E_q[x | n] and, at every node with q-mass, the
    least-squares (minimum-norm) solution h of dS h = child wealth - node
    wealth, node by node; NaN at nodes without mass."""
    lay = tree.layout
    inner = lay.level_starts[-2]
    mass = tree.subtree_sums(q)
    wealth = np.divide(tree.subtree_sums(q * x), mass, out=np.full_like(mass, np.nan),
                       where=mass > 0)
    wealth[inner:] = x
    h = np.full((inner, tree.n_assets), np.nan)
    kids = np.append(lay.first_child, len(lay.ids))
    for k in np.flatnonzero(mass[:inner] > 0):
        dS = lay.prices[kids[k]:kids[k + 1]] - lay.prices[k]
        h[k] = np.linalg.lstsq(dS, wealth[kids[k]:kids[k + 1]] - wealth[k], rcond=None)[0]
    return wealth, h


def _assert_matches_replication(tree, sol, ps):
    lay, inner = tree.layout, tree.layout.level_starts[-2]
    x = ps.terminal_wealth
    ref_w, ref_h = _lstsq_replication(tree, sol.q_hat, x)
    scale = 1.0 + np.abs(x[sol.q_hat > 0]).max()
    wealth, h = ps.wealth, ps.strategy
    on = ~np.isnan(ref_w)
    assert np.abs(wealth - ref_w)[on].max() <= 1e-10 * scale
    # the reference h is only as exact as its wealth over the smallest
    # singular value of dS, so h is compared in wealth units: to 1e-10 of
    # the wealth scale over that value where dS has rank d, by its gains dS h
    # elsewhere
    kids = np.append(lay.first_child, len(lay.ids))
    for k in np.flatnonzero(~np.isnan(ref_h[:, 0])):
        dS = lay.prices[kids[k]:kids[k + 1]] - lay.prices[k]
        if np.linalg.matrix_rank(dS) == tree.n_assets:
            smin = np.linalg.svd(dS, compute_uv=False).min()
            assert np.abs(h[k] - ref_h[k]).max() * smin <= 1e-10 * scale
        else:
            assert np.abs(dS @ (h[k] - ref_h[k])).max() <= 1e-10 * scale


@st.composite
def _recovery_instances(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = treegen.random_market(rng, max_periods=3, n_assets=draw(st.sampled_from([1, 2])))
    gamma = float(rng.uniform(0.3, 3.0))
    # gamma is the risk aversion of the exponential pair and the left-tail
    # exponent b of the two-power one
    pair = (exponential_utility(gamma, 2.0) if draw(st.booleans())
            else two_power_utility(float(rng.uniform(0.3, 0.7)), gamma, 1.0))
    return tree, pair, rng.uniform(-3.0, 3.0, size=tree.n_leaves)


@settings(max_examples=60, deadline=None)
@given(_recovery_instances())
def test_solver_strategy_matches_least_squares_replication(instance):
    tree, pair, e = instance
    sol = solve_dual(tree, pair, e)
    _assert_matches_replication(tree, sol, recover(tree, pair, e, sol))


@pytest.mark.parametrize("pair,s2", [
    pytest.param(pair, s2, id=name + ("" if s2 == 1.0 else f"-{s2:g}"))
    for s2 in (1.0, 1e-6, 1e6)
    for name, pair in (("exp", exponential_utility(1.0, 2.0)),
                       ("twopower", two_power_utility(0.5, 1.0, 1.0)))])
def test_rank_deficient_root_keeps_the_solver_strategy(pair, s2):
    # both root increments lie on one line, so the root strategy is unique
    # only along it: the log-space pass returns the minimum-norm one in each
    # asset's unit at the node (the layout's top), the same in any units of
    # the second asset, and the Newton core another with the same gains
    tree = treegen.product_market([[(1.2, 1.05), (0.9, 0.975)],
                                   [(1.3, 1.2), (0.8, 0.85), (1.0, 1.05)]], s0=(1.0, 2.0 * s2))
    dS, top = tree.layout.prices[1:3] - tree.layout.prices[0], tree.layout.top[0]
    assert np.linalg.matrix_rank(dS / top) == 1
    sol = solve_dual(tree, pair, 0.0)
    ps = recover(tree, pair, 0.0, sol)
    _assert_matches_replication(tree, sol, ps)
    wealth, _ = _lstsq_replication(tree, sol.q_hat, ps.terminal_wealth)
    h = ps.strategy[0]
    assert np.abs(dS @ h).max() > 0.1
    if pair.family == "exponential":
        ref_h = np.linalg.lstsq(dS / top, wealth[1:3] - wealth[0], rcond=None)[0] / top
        assert h == pytest.approx(ref_h, rel=1e-10)
        assert h * [1.0, s2] == pytest.approx([1.1552453009332, 2.3104906018665], rel=1e-10)


def test_recovery_runs_no_least_squares(exp_pair, tp_pair, monkeypatch):
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 5)
    assert tree.n_leaves == 243
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    sols = [(pair, solve_dual(tree, pair, e)) for pair in (exp_pair, tp_pair)]

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares problem was solved")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for pair, sol in sols:
        assert recover(tree, pair, e, sol).replication_residual <= 1e-8


# -- results are arrays in the tree's order ----------------------------------------


def test_results_are_arrays_in_tree_order(exp_pair):
    # leaf quantities (L,) in leaf order, node quantities (N,) in layout order
    tree = treegen.product_market([[1.25, 1.05, 0.8]] * 2)
    L, N, n = tree.n_leaves, len(tree.layout.ids), tree.layout.level_starts[-2]
    e = np.linspace(-1.0, 1.0, L)
    b = np.maximum(tree.layout.prices[n:, 0] - 1.0, 0.0)
    sol = solve_dual(tree, exp_pair, e)
    ps = recover(tree, exp_pair, e, sol)
    snell = snell_envelope_exponential(sol, wealth=ps.wealth)
    curve = dual_value_curve(sol, log_masses=[sol._log_mass + math.log(0.5), sol._log_mass])
    price = optimal_measure_price_process(sol, b)
    results = {"mu": (sol.mu, (L,)), "q_hat": (sol.q_hat, (L,)),
               "CurvePoint.q_hat": (curve.points[0].q_hat, (L,)),
               "find_equivalent_mm": (find_equivalent_mm(tree), (L,)),
               "terminal_wealth": (ps.terminal_wealth, (L,)),
               "wealth": (ps.wealth, (N,)), "strategy": (ps.strategy, (n, 1)),
               "envelope": (snell.envelope, (N,)), "price process": (price, (N,))}
    for name, (x, shape) in results.items():
        assert isinstance(x, np.ndarray) and x.shape == shape, name
    # the leaves come last in layout order
    assert np.abs(ps.wealth[n:] - ps.terminal_wealth).max() <= 1e-12
    assert price[n:] == pytest.approx(b, rel=1e-14, abs=0.0)
    assert price[0] == pytest.approx(sol.q_hat @ b, rel=1e-14)


def test_battery_tests_every_one_step_vertex_under_two_power(tp_pair):
    # every polytope vertex of this tree misses a leaf, so V(0) = inf gives
    # each infinite two-power entropy; the check reads the 2 one-step
    # vertices of each of the 13 non-leaf nodes
    tree = treegen.product_market([[1.25, 1.05, 0.8]] * 3)
    results = {r.name: r for r in run_battery(tree, tp_pair, 0.0)}
    check = results["supermartingale under tested measures"]
    assert check.passed and check.detail == "26 one-step vertices"
    sol = solve_dual(tree, tp_pair, 0.0)
    # raising the wealth at the time-1 node 1 (move 1.25) drifts the root up
    # under the root's vertex that charges it, with weight 0.2 / 0.45
    wealth = recover(tree, tp_pair, 0.0, sol).wealth.copy()
    wealth[1] += 1e-3
    rep = verify_supermartingale(tree, wealth)
    assert [v.node_id for v in rep.violations] == [tree.layout.ids[0]]
    assert rep.violations[0].drift == pytest.approx(1e-3 * 0.2 / 0.45, rel=1e-9)
