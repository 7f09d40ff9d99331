"""The verify battery over every instance of the random acceptance suite."""

import dataclasses
import math

import numpy as np
import pytest

import treegen
from treedual import (checks, dual, dynamic_dual, exponential_utility,
                      find_equivalent_mm, geometry, recover, run_battery, two_power_utility)

SUITE = treegen.acceptance_suite()


def test_two_asset_moves_leave_no_angular_gap_of_pi():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        z = treegen._straddling_moves_2d(rng) - 1.0
        angles = np.sort(np.arctan2(z[:, 1], z[:, 0]))
        gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
        assert gaps.max() < np.pi


@pytest.mark.parametrize("k", range(len(SUITE)))
def test_battery_passes_on_acceptance_instance(k):
    tree, pair, endow = SUITE[k]
    assert find_equivalent_mm(tree) is not None
    results = run_battery(tree, pair, endow)
    assert not [r.line() for r in results if not r.passed]
    # each line states the inequality its verdict tested
    printed = [float(r.line().split(" <= ")[1].split()[0]) for r in results]
    assert all(r.residual <= tol for r, tol in zip(results, printed))


def _edge_instance(market, shift, gamma):
    """An exponential instance with endowments ``shift / gamma`` (resized to
    the leaves): near 700/gamma the optimal mass is near e^-700 and some
    leaf masses fall below the normal range; near 730/gamma on tri1 leaf b
    gets mass 0 though the optimum charges it."""
    tree = (treegen.tri1() if market == "tri1"
            else treegen.product_market([[1.2, 1.0, 0.85], [1.1, 0.95]]))
    pair = exponential_utility(gamma, 2.0)
    e = np.resize(np.array(shift, dtype=float), tree.n_leaves) / gamma
    return tree, pair, e, dual.solve_dual(tree, pair, e)


@pytest.mark.parametrize("gamma", [1.0, 3.0])
@pytest.mark.parametrize("market,shift", [("tri1", (700, 730, 695)),
                                          ("tri1", (730, 760, 725)),
                                          ("product", (700, 730, 695)),
                                          ("tri1", (0, 740, 0))])
def test_battery_passes_where_the_optimal_mass_is_subnormal(market, shift, gamma):
    # the checks read X and the charged leaves off the exact log-masses,
    # where V' of the rounded density was off by 1e-7 or infinite; at
    # (0, 740, 0) a mollified vertex missing leaf b has mass 1e-6 q_b = 0
    # there, which the Snell checks divided by
    tree, pair, e, sol = _edge_instance(market, shift, gamma)
    assert sol.mu.min() < np.finfo(float).tiny and (sol.q_hat > 0).all()
    assert (sol.mu == 0).any() == (shift[0] == 730)
    assert not [r.line() for r in run_battery(tree, pair, e) if not r.passed]


@pytest.mark.parametrize("market,shift", [("product", (730, 760, 725)),
                                          ("tri1", (740, 770, 735)),
                                          ("tri1", (744, 774, 739))])
def test_value_curve_stationarity_reads_log_masses_at_a_subnormal_optimum(market, shift):
    # the curve's masses were multiples of the subnormal optimal mass, which
    # had lost bits: stationarity read 1.2e-7, 8.9e-5 and 1.5e-2
    tree, pair, e, sol = _edge_instance(market, shift, 1.0)
    assert 0.0 < sol.mass < np.finfo(float).tiny
    results = run_battery(tree, pair, e)
    assert len(results) == 18 and not [r.line() for r in results if not r.passed]


def test_maximal_support_reads_a_charged_leaf_whose_q_hat_underflows():
    # at e = (0, 760, 0) q_hat = (1/3, 0, 2/3) while ln q_hat at leaf b is
    # -760.64: b is charged, as the vertex (0, 1, 0) asks
    tree, pair, e, sol = _edge_instance("tri1", (0, 760, 0), 1.0)
    assert sol.q_hat[1] == 0.0 and sol._log_q[1] == pytest.approx(-760.64, abs=0.01)
    assert sol.charged.all()
    results = run_battery(tree, pair, e)
    assert not [r.line() for r in results if not r.passed]


def test_exponential_checks_read_node_log_masses_where_path_masses_underflow():
    # the caterpillar's optimal path masses reach ~1e-400; the float subtree
    # ratios read 2.2e-4, inf and 2.4e-7 on the last three checks here.  The
    # support flag comes from DD's entry floor, apart from the optimum
    tree = treegen.caterpillar_market()
    results = {r.name: r for r in run_battery(tree, exponential_utility(1.0, 2.0), 0.0)}
    for name in ("martingale under the optimal measure", "exponential Snell envelope",
                 "Snell lower bounds"):
        assert results[name].passed, results[name].line()
    assert [name for name, r in results.items() if not r.passed] == [
        "support flag matches market"]


@pytest.mark.parametrize("make", [treegen.caterpillar_market,
                                  lambda: treegen.product_market([[1e5, 0.99999]] * 2)],
                         ids=["caterpillar", "product"])
def test_a_failed_conditional_solve_reads_a_typed_fail(make):
    # a two-power conditional solve that stops short is the dynamic dual's
    # FAIL line, and the battery goes on to the later checks
    pair = two_power_utility(0.5, 1.0, 1.0)
    results = run_battery(make(), pair, 0.0)
    assert [r.name for r in results] == [r.name for r in run_battery(treegen.tri1(), pair, 0.0)]
    check = next(r for r in results if r.name == "dynamic dual consistency")
    assert check.residual == math.inf and not check.passed
    assert check.detail.startswith("NonconvergedError: no acceptable step at scaled gradient")


def test_a_check_passes_exactly_when_its_residual_is_within_its_bound():
    verdicts = [checks.CheckResult("c", r, 1e-8).passed
                for r in (0.0, 1e-8, 2e-8, np.inf, np.nan)]
    assert verdicts == [True, True, False, False, False]
    assert checks.CheckResult("c", np.nan, 1e-8).line().startswith("[FAIL] c: residual nan")


def test_support_flag_check_fails_on_a_wrong_support_mask(tri1, monkeypatch):
    # a support pass that keeps only the point mass on the unmoved leaf
    # reports that leaf as the whole support, and the dual still solves
    # there; find_equivalent_mm reads the same pass and would agree with
    # the flag, but the enumerated vertices charge every leaf
    real = geometry._support_structure(tri1)
    keep = np.count_nonzero(real.weight, axis=1) == 1
    wrong = dataclasses.replace(real, node=real.node[keep],
                                child=real.child[keep], weight=real.weight[keep])
    assert wrong.mask.tolist() == [False, True, False]
    for mod in (geometry, dual):
        monkeypatch.setattr(mod, "_support_structure", lambda tree: wrong)
    assert find_equivalent_mm(tri1) is None
    results = {r.name: r for r in
               run_battery(tri1, exponential_utility(1.0, 2.0), [0.3, -0.2, 0.1])}
    check = results["support flag matches market"]
    assert not check.passed and check.detail == "DEGENERATE"


def test_terminal_gain_keeps_the_recovered_formulas():
    # X = -V'(mu/p) - e, in log space for the exponential family, bit for
    # bit as recovery computed it; the two-power mass derivative is the
    # envelope E_q_hat[V'(mu/p) + e] bit for bit, and its leaf log masses
    # are ln q_hat
    for tree, pair, endow in SUITE:
        sol = dual.solve_dual(tree, pair, endow)
        p, e, q = tree.leaf_probability_array, sol._endow_arr, sol.q_hat
        if pair.family == "exponential":
            want = (np.log(p) - sol._log_mass - sol._log_q) / pair.params["gamma"] - e
        else:
            assert sol._log_q.tobytes() == np.log(q).tobytes()
            want = -pair.v_prime(sol.density_array) - e
            envelope = float(np.dot(q, pair.v_prime(sol.density_array) + e))
            assert sol.mass_derivative == envelope
        assert sol.terminal_gain.tobytes() == want.tobytes()
        assert recover(tree, pair, endow, sol).terminal_wealth.tobytes() == want.tobytes()


def test_first_order_check_reads_a_charged_leaf_whose_mass_underflows(monkeypatch):
    # a wrong log-mass at leaf b moves X there (by -1) but not mu = 0; the
    # check must still see the leaf
    tree, pair, e, sol = _edge_instance("tri1", (730, 760, 725), 1.0)
    assert sol.mu[1] == 0.0 < sol.q_hat[1]
    solve = checks.solve_dual

    def corrupted(*args):
        sol = solve(*args)
        log_q = sol._log_q.copy()
        log_q[1] += 1.0
        return dataclasses.replace(sol, _log_q=log_q)

    monkeypatch.setattr(checks, "solve_dual", corrupted)
    results = {r.name: r for r in run_battery(tree, pair, e)}
    assert not results["dual first-order conditions"].passed


@pytest.mark.parametrize("market,gamma", [("tri1", 1.0), ("product", 1.0),
                                          ("product", 3.0)])
def test_dynamic_dual_takes_node_masses_from_the_log_masses(market, gamma):
    # every node is charged: on tri1 leaf b's mass underflows to 0, on the
    # product tree the time-1 node masses are subnormal, where ln of the
    # rounded mass put the wealth residuals at ~1e-2
    tree, pair, e, sol = _edge_instance(market, (730, 760, 725), gamma)
    ps = recover(tree, pair, e, sol)
    for t in range(tree.horizon + 1):
        nodes = dynamic_dual(sol, t, wealth=ps.wealth)
        assert len(nodes) == tree.layout.level_starts[t + 1] - tree.layout.level_starts[t]
        assert max(node.wealth_residual for node in nodes) <= 1e-12
