import math

import numpy as np
import pytest

import treegen
from treedual import (AdaptedProcess, MeasureVector, NoPrimalOptimizerError,
                      NotExponentialError, build_constraints, dynamic_dual,
                      exponential_utility, extract_strategy, leaf_values,
                      recover, recover_terminal_wealth,
                      snell_envelope_exponential, solve_dual,
                      two_power_utility, verify_supermartingale,
                      vertex_enumerate)

LN2 = math.log(2.0)


def test_bin1_terminal_wealth_closed_form(bin1, exp_pair_raw):
    sol = solve_dual(bin1, exp_pair_raw, 0.0)
    xhat = recover_terminal_wealth(bin1, exp_pair_raw, 0.0, sol)
    # mass 3*2^(-5/3) makes the log-density (-(2/3)ln2, (1/3)ln2)
    assert xhat.values["u"] == pytest.approx(2.0 / 3.0 * LN2, abs=1e-8)
    assert xhat.values["d"] == pytest.approx(-LN2 / 3.0, abs=1e-8)
    # zero expected gain under the optimal measure
    assert np.dot(sol.q_hat_array, xhat.as_array(bin1)) == pytest.approx(0, abs=1e-9)


def test_bin1_delta_hedge(bin1, exp_pair_raw):
    sol = solve_dual(bin1, exp_pair_raw, 0.0)
    ps = recover(bin1, exp_pair_raw, 0.0, sol)
    w_u, w_d = ps.wealth.at("u"), ps.wealth.at("d")
    assert ps.strategy.at("root")[0] == pytest.approx((w_u - w_d) / 1.5, abs=1e-9)
    assert abs(ps.wealth.at("root")) <= 1e-9
    assert ps.replication_residual <= 1e-8


def test_complete_market_inverse_marginal(bin1, tp_pair):
    e = {"u": 0.5, "d": -0.25}
    sol = solve_dual(bin1, tp_pair, e)
    xhat = recover_terminal_wealth(bin1, tp_pair, e, sol)
    dens = sol.density_array
    total = xhat.as_array(bin1) + leaf_values(bin1, e)
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
    assert ps.terminal_wealth.as_array(tree) == pytest.approx(gain, abs=1e-8)
    assert ps.strategy.at(tree.root_id)[0] == pytest.approx(2.0, abs=1e-8)


def test_degenerate_refuses_recovery(exp_pair):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    with pytest.raises(NoPrimalOptimizerError):
        recover_terminal_wealth(tree, exp_pair, 0.0, sol)


def test_duality_gap_and_residuals(tri1, exp_pair, tp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    for pair in (exp_pair, tp_pair):
        sol = solve_dual(tri1, pair, e)
        ps = recover(tri1, pair, e, sol)
        assert abs(ps.value - sol.value) <= 1e-7 * (1 + abs(sol.value))
        assert ps.first_order_residual <= 1e-8 * (1 + sol.mass)
        assert ps.replication_residual <= 1e-8
        assert abs(ps.wealth.at("root")) <= 1e-8


def test_supermartingale_under_vertices(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, 0.0)
    ps = recover(tri1, exp_pair, 0.0, sol)
    verts = vertex_enumerate(build_constraints(tri1))
    rep = verify_supermartingale(tri1, ps.wealth, verts, exp_pair,
                                 q_hat=sol.q_hat)
    assert not rep.violations
    assert rep.max_drift <= 1e-8
    assert rep.max_abs_drift_under_optimal <= 1e-8
    assert rep.measures_tested == 2


def test_supermartingale_check_detects_drift():
    # recenter a random process to be a martingale under one vertex, then
    # check it under the other: the check must flag the positive drift
    tree = treegen.tri1()
    pair = exponential_utility(1.0, 2.0)
    verts = vertex_enumerate(build_constraints(tree))
    q0 = verts[0].as_array(tree)   # (0, 1, 0)
    q1 = verts[1].as_array(tree)   # (1/3, 0, 2/3)
    w_leaves = np.array([2.0, -1.0, 0.5])
    w_root = float(np.dot(q0, w_leaves))
    wealth = AdaptedProcess({"root": w_root,
                             **dict(zip(tree.leaf_ids, w_leaves.tolist()))})
    rep0 = verify_supermartingale(tree, wealth, [verts[0]], pair)
    assert not rep0.violations
    drift1 = float(np.dot(q1, w_leaves)) - w_root
    rep1 = verify_supermartingale(tree, wealth, [verts[1]], pair)
    assert bool(rep1.violations) == (drift1 > 1e-8 * (1 + abs(w_leaves).max()))


def test_two_power_skips_infinite_entropy_vertices(tri1, tp_pair):
    sol = solve_dual(tri1, tp_pair, 0.0)
    ps = recover(tri1, tp_pair, 0.0, sol)
    verts = vertex_enumerate(build_constraints(tri1))
    rep = verify_supermartingale(tri1, ps.wealth, verts, tp_pair,
                                 q_hat=sol.q_hat)
    # both vertices have a zero leaf, hence infinite entropy for this pair
    assert rep.measures_tested == 0
    assert rep.measures_skipped == 2
    assert rep.max_abs_drift_under_optimal <= 1e-8


def test_dynamic_dual_boundary_times(tri1, exp_pair):
    e = {"a": 0.2, "b": -0.1, "c": 0.3}
    sol = solve_dual(tri1, exp_pair, e)
    ps = recover(tri1, exp_pair, e, sol)
    root = dynamic_dual(tri1, exp_pair, e, 0, sol, wealth=ps.wealth)
    assert len(root) == 1
    assert abs(root[0].derivative) <= 1e-7           # stationarity at the root
    assert root[0].value == pytest.approx(sol.value, abs=1e-9)
    leaves = dynamic_dual(tri1, exp_pair, e, 1, sol, wealth=ps.wealth)
    x = ps.terminal_wealth.as_array(tri1)
    for node in leaves:
        i = tri1.leaf_index(node.node_id)
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
            for node in dynamic_dual(tree, pair, e, t, sol, wealth=ps.wealth):
                assert node.wealth_residual <= 1e-7
                assert node.restriction_gap <= 1e-9


def test_snell_envelope(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    ps = recover(tri1, exp_pair, e, sol)
    verts = vertex_enumerate(build_constraints(tri1))
    rep = snell_envelope_exponential(tri1, exp_pair, e, sol, verts,
                                     wealth=ps.wealth)
    assert rep.max_equality_gap <= 1e-5
    assert rep.max_lower_bound_excess <= 1e-7
    # at the terminal time the envelope is the terminal wealth itself
    x = ps.terminal_wealth.as_array(tri1)
    for leaf in tri1.leaf_ids:
        assert rep.envelope.at(leaf) == pytest.approx(
            x[tri1.leaf_index(leaf)], abs=1e-8)
    assert rep.envelope.at("root") == pytest.approx(0.0, abs=1e-7)


def test_snell_requires_exponential(tri1, tp_pair):
    sol = solve_dual(tri1, tp_pair, 0.0)
    ps = recover(tri1, tp_pair, 0.0, sol)
    with pytest.raises(NotExponentialError):
        snell_envelope_exponential(tri1, tp_pair, 0.0, sol, [],
                                   wealth=ps.wealth)


def test_extract_strategy_unreached_nodes(exp_pair):
    # zero-mass interior nodes fall back to the least-squares convention
    tree = treegen.product_market([[2.0, 1.0], [1.5, 0.5]])
    sol = solve_dual(tree, exp_pair, 0.0)
    assert sol.support == "DEGENERATE"
    # recovery refuses wholesale; exercise the convention through the raw op
    xhat = {l: 1.0 for l in tree.leaf_ids}
    from treedual import RandomVariable
    ps = extract_strategy(tree, sol, RandomVariable(xhat), exp_pair, 0.0)
    assert ps.unreached  # the dead branch has no optimal mass
    for nid in ps.unreached:
        assert nid in tree.nonleaf_ids


def test_dynamic_dual_on_a_degenerate_market(exp_pair):
    # the dead leaf is off the maximal support: the conditional problems run
    # on the support, and the mass derivative vanishes at the optimal mass
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    for t in range(tree.horizon + 1):
        for node in dynamic_dual(tree, exp_pair, 0.0, t, sol):
            assert math.isfinite(node.derivative) and node.restriction_gap <= 1e-12
    root = dynamic_dual(tree, exp_pair, 0.0, 0, sol)[0]
    assert root.value == pytest.approx(sol.value, rel=1e-14)
    assert abs(root.derivative) <= 1e-12
