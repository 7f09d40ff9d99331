"""The verify battery over every instance of the random acceptance suite."""

import dataclasses
import math

import numpy as np
import pytest

import treegen
from test_dual import _requoted
from treedual import (EvaluationOverflowError, NonconvergedError, ReplicationGapError,
                      checks, dual, dynamic_dual, exponential_utility, find_equivalent_mm,
                      geometry, recover, recovery, run_battery, solve_dual,
                      two_power_utility)

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
    # (0, 740, 0) a measure mixing 1e-6 of q_hat into a vertex that misses
    # leaf b has float mass 0 there, which the Snell checks must not weigh
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
    # support flag, which double description's entry floor failed, is
    # proven by the per-node measure certificate
    tree = treegen.caterpillar_market()
    results = {r.name: r for r in run_battery(tree, exponential_utility(1.0, 2.0), 0.0)}
    for name in ("martingale under the optimal measure", "exponential Snell envelope",
                 "Snell lower bounds"):
        assert results[name].passed, results[name].line()
    assert [r.line() for r in results.values() if not r.passed] == []


def test_a_failed_conditional_solve_reads_a_typed_fail(monkeypatch):
    # a two-power conditional solve that stops short is the dynamic dual's
    # FAIL line, and the battery goes on to the later checks: on an
    # incomplete market, whose conditional problems go to the Newton core
    tree, pair = treegen.product_market([[1.2, 1.0, 0.85]] * 2), two_power_utility(0.5, 1.0, 1.0)
    assert not geometry._support_structure(tree).complete

    def stops_short(*args):
        raise NonconvergedError("no acceptable step at scaled gradient 1.000e-03", residual=1e-3)

    monkeypatch.setattr(recovery, "_subtree_duals", stops_short)
    results = run_battery(tree, pair, 0.0)
    assert [r.name for r in results] == [r.name for r in run_battery(treegen.tri1(), pair, 0.0)]
    check = next(r for r in results if r.name == "dynamic dual consistency")
    assert check.residual == math.inf and not check.passed
    assert check.detail.startswith("NonconvergedError: no acceptable step at scaled gradient")
    assert [r.name for r in results if not r.passed] == ["dynamic dual consistency"]


@pytest.mark.parametrize("moves", [[1.2, 1.0, 0.85], [1.2, 0.85]], ids=["incomplete", "complete"])
def test_a_refused_conditional_mass_reads_a_typed_fail(moves, monkeypatch):
    # a conditional problem's mass past the float range is refused before
    # either solver runs, and its typed error is the dynamic dual's FAIL
    # line, as a stopped solve's is
    tree, pair = treegen.product_market([moves] * 2), two_power_utility(0.5, 1.0, 1.0)
    real = dual._subtree_duals
    monkeypatch.setattr(recovery, "_subtree_duals",
                        lambda sol, nodes, log_masses: real(sol, nodes, log_masses + 2000.0))
    results = run_battery(tree, pair, 0.0)
    check = next(r for r in results if r.name == "dynamic dual consistency")
    assert check.residual == math.inf
    assert check.detail.startswith("EvaluationOverflowError: mass e^")
    assert [r.name for r in results if not r.passed] == ["dynamic dual consistency"]


def test_the_caterpillar_optimum_past_the_float_range_is_a_typed_error():
    # every node binomial: the optimal wealth I(y q/p) on its deepest leaf
    # (about 3e525) is past the float range, where the Newton core returned
    # the value 3.02e9 off the martingale cone
    tree, pair = treegen.caterpillar_market(), two_power_utility(0.5, 1.0, 1.0)
    with pytest.raises(EvaluationOverflowError, match="past the floating-point range") as exc:
        solve_dual(tree, pair, 0.0)
    assert exc.value.node_id in tree.leaf_ids
    with pytest.raises(EvaluationOverflowError):
        run_battery(tree, pair, 0.0)


def _dd_floor():
    return treegen.product_market([[1e5, 0.99999]] * 2), two_power_utility(0.5, 1.0, 1.0)


def test_the_dd_floor_value_meets_its_50_digit_reference():
    # the DD-floor tree, solved in closed form (the Newton core returned
    # 1.8958e10): 8079021206776.4357 in 50-digit arithmetic on the tree's
    # float prices
    tree, pair = _dd_floor()
    assert solve_dual(tree, pair, 0.0).value == pytest.approx(8079021206776.4357, rel=1e-12)


def test_the_dd_floor_budget_root_strides_past_its_crawl():
    # I(y q/p) ~ y^-2 dominates the budget, so Newton moves ln y by about
    # 0.5 a probe from 0 to the root near 13.96: taking every such step
    # made 33 probes
    tree, pair = _dd_floor()
    assert solve_dual(tree, pair, 0.0).steps <= 13


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="open defect: the optimal wealth spans 4.6e26 to -4.6e6, and four checks whose "
           "bounds are absolute (or relative to one node's wealth) read residuals of a few "
           "ulps of 4.6e26 (CHANGES.md, FOUND, the DD-floor battery's absolute bounds)")
def test_the_dd_floor_battery_passes_every_check():
    tree, pair = _dd_floor()
    results = run_battery(tree, pair, 0.0)
    assert len(results) == 16
    assert [r.line() for r in results if not r.passed] == []


@pytest.mark.parametrize("branching,n_assets,a", [
    ((2, 2), 1, 0.45), ((2, 2, 2), 1, 0.6), ((3,), 1, 0.3), ((4,), 2, 0.5),
    ((4, 4), 2, 0.5), ((3, 3), 1, 0.55), ((3, 3, 3), 1, 0.7)])
def test_two_power_batteries_of_the_verify_shapes_run_every_check_and_pass(branching, n_assets,
                                                                          a):
    # the two-power shapes of perfbench's verify workload, complete (the
    # binomials) and incomplete: each battery runs all 16 checks and passes.
    # That workload counts a battery that stops after "primal recovery" as
    # a success, so a change that breaks recover would only read faster there
    rng = np.random.default_rng(sum(branching) * 10 + n_assets)
    moves = [[tuple(m) for m in treegen._straddling_moves_2d(rng)] + [(1.05, 0.98)] * (b - 3)
             if n_assets == 2 else list(np.linspace(1.25, 0.8, b)) for b in branching]
    tree = treegen.product_market(moves, s0=(1.0,) * n_assets if n_assets == 2 else 1.0)
    assert geometry._support_structure(tree).complete == (max(branching) == 2)
    e = rng.uniform(-1.0, 1.0, tree.n_leaves)
    results = run_battery(tree, two_power_utility(a, float(rng.uniform(0.5, 2.0)), 1.0), e)
    assert [r.name for r in results] == list(HEAD + BODY + CURVE)
    assert not [r.line() for r in results if not r.passed]


def test_a_check_passes_exactly_when_its_residual_is_within_its_bound():
    verdicts = [checks.CheckResult("c", r, 1e-8).passed
                for r in (0.0, 1e-8, 2e-8, np.inf, np.nan)]
    assert verdicts == [True, True, False, False, False]
    assert checks.CheckResult("c", np.nan, 1e-8).line().startswith("[FAIL] c: residual nan")


HEAD = ("utility certification", "martingale constraints at optimum",
        "dual first-order conditions", "support flag matches market", "maximal support")
BODY = ("zero duality gap", "terminal first-order condition", "one-step self-financing",
        "zero-cost wealth at the root", "supermartingale under tested measures",
        "martingale under the optimal measure", "dynamic dual consistency")
SNELL = ("exponential Snell envelope", "Snell lower bounds")
CURVE = ("value curve convexity", "curve minimum vs optimum",
         "stationarity of the mass derivative", "conjugate growth bound along the curve")


@pytest.mark.parametrize("case,names", [
    ("exponential", HEAD + BODY + SNELL + CURVE),
    ("two-power", HEAD + BODY + CURVE),
    ("degenerate", HEAD),
    ("failed recovery", HEAD + ("primal recovery",)),
])
def test_the_battery_runs_its_checks_in_one_order(tri1, case, names, monkeypatch):
    # check names and their order are the battery's interface: any other
    # sequence reads as an incomplete battery to its callers
    tree, endow = tri1, [0.3, -0.2, 0.1]
    pair = two_power_utility(0.5, 1.0, 1.0) if case == "two-power" else exponential_utility(1.0, 2.0)
    if case == "degenerate":
        tree, endow = treegen.dead_leaf_market(), 0.0
    if case == "failed recovery":
        def refuse(*args):
            raise ReplicationGapError("replication residual above tolerance")
        monkeypatch.setattr(checks, "recover", refuse)
    results = run_battery(tree, pair, endow)
    assert tuple(r.name for r in results) == names
    assert [r.name for r in results if not r.passed] == (
        ["primal recovery"] if case == "failed recovery" else [])


def test_support_checks_name_the_certificates(tri1):
    # the flag and the maximal support read the support pass's two
    # certificates; the flag's detail stays the optimum's support
    results = {r.name: r for r in
               run_battery(tri1, exponential_utility(1.0, 2.0), [0.3, -0.2, 0.1])}
    flag, support = results["support flag matches market"], results["maximal support"]
    assert flag.passed and flag.detail == "EQUIVALENT"
    assert support.passed and support.detail == (
        "3 leaves charged by the measure certificate, 0 cut off by the arbitrage")
    assert all(r.passed for r in results.values())


def test_support_flag_check_fails_on_a_wrong_support_mask(tri1, monkeypatch):
    # a support pass that keeps only the point mass on the unmoved leaf
    # reports that leaf as the whole support, and the dual still solves
    # there; find_equivalent_mm reads the same pass and would agree with
    # the flag, but the pass's arbitrage certificate loses on leaf c
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
    # envelope E_q_hat[V'(mu/p) + e] bit for bit, and q_hat is exp of its
    # leaf log masses
    for tree, pair, endow in SUITE:
        sol = dual.solve_dual(tree, pair, endow)
        p, e, q = tree.leaf_probability_array, sol._endow_arr, sol.q_hat
        if pair.family == "exponential":
            want = (np.log(p) - sol._log_mass - sol._log_q) / pair.params["gamma"] - e
        else:
            assert q.tobytes() == np.exp(sol._log_q).tobytes()
            want = -pair.v_prime(sol.density_array) - e
            envelope = float(np.dot(q, pair.v_prime(sol.density_array) + e))
            assert sol.mass_derivative == envelope
        assert sol.terminal_gain.tobytes() == want.tobytes()
        assert recover(tree, pair, endow, sol).terminal_wealth.tobytes() == want.tobytes()


def _kkt_by_qr(tree, sol):
    """Oracle of "dual first-order conditions": the check as the Newton
    core's batched QR (``dual._qr_fits``) fits it, on the columns of the
    tree's strategy basis (``dual._strategy_basis``) in the prices' own
    units, where the battery fits each asset in its unit ``top`` by a
    pseudo-inverse."""
    lay, inner = tree.layout, tree.layout.level_starts[-2]
    basis = dual._strategy_basis(geometry._support_structure(tree)).reshape(inner, -1)
    live = sol.charged[inner:]
    x = np.where(live, sol.terminal_gain, 0.0)
    cond = tree.conditional_expectation(x, sol.node_log_q)
    y = np.where(sol.charged, cond - cond[lay.parent], 0.0)
    node = np.flatnonzero(sol.charged[:inner])
    m = lay.on[node].sum(axis=1).max(initial=1)
    kids, pad = lay.kids[node, :m], ~lay.on[node, :m]
    J = np.where((pad | ~sol.charged[kids])[..., None] | ~basis[node, None], 0.0, lay.step[kids])
    T = np.where(pad, 0.0, y[kids])[..., None]
    res = np.where(pad[..., None], 0.0, T - J @ dual._qr_fits(J, T))
    return float(np.abs(res).max(initial=0.0)) / (1.0 + float(np.abs(x[live]).max()))


def _kkt_check(tree, pair, endow):
    return next(r for r in run_battery(tree, pair, endow)
                if r.name == "dual first-order conditions")


def _kkt_trees():
    # two assets quoted in units 1e12 and 1e-12, and a second asset that
    # never moves or moves with the first: incomplete nodes all
    two = treegen.product_market([[(1.2, 1.1), (0.9, 1.15), (1.0, 0.8), (1.1, 0.95)]] * 2,
                                 s0=(1.0, 1.0))
    return {
        "1e12/1e-12": _requoted(_requoted(two, 0, 1e12), 1, 1e-12),
        "still": treegen.product_market([[(1.2, 1.0), (1.0, 1.0), (0.85, 1.0)]] * 2,
                                        s0=(1.0, 1.0)),
        "collinear": treegen.product_market([[(1.2, 1.4), (1.0, 1.0), (0.85, 0.7)]] * 2,
                                            s0=(1.0, 1.0)),
    }


_FAMILIES = {"exponential": exponential_utility(1.0, 2.0),
             "two-power": two_power_utility(0.5, 1.0, 1.0)}


@pytest.mark.parametrize("k", range(len(SUITE)))
def test_the_first_order_fit_meets_the_qr_oracle_on_the_acceptance_suite(k):
    tree, pair, endow = SUITE[k]
    check = _kkt_check(tree, pair, endow)
    want = _kkt_by_qr(tree, dual.solve_dual(tree, pair, endow))
    assert abs(check.residual - want) <= 1e-15 and check.passed == (want <= check.tolerance)


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("name", _kkt_trees())
def test_the_first_order_fit_meets_the_qr_oracle_in_any_units(name, family, monkeypatch):
    # to rounding on the optimum, and both FAIL where X moves at one leaf by
    # 1e-6 of its largest size
    tree, pair = _kkt_trees()[name], _FAMILIES[family]
    e = np.random.default_rng(3).uniform(-1.0, 1.0, tree.n_leaves)
    check, want = _kkt_check(tree, pair, e), _kkt_by_qr(tree, dual.solve_dual(tree, pair, e))
    assert check.passed and abs(check.residual - want) <= 1e-15
    real = dual.DualSolution.terminal_gain

    def moved(sol):
        x = real.fget(sol).copy()
        x[0] += 1e-6 * np.abs(x).max()
        return x
    monkeypatch.setattr(dual.DualSolution, "terminal_gain", property(moved))
    check, want = _kkt_check(tree, pair, e), _kkt_by_qr(tree, dual.solve_dual(tree, pair, e))
    assert not check.passed and want > check.tolerance
    assert check.residual == pytest.approx(want, rel=1e-6)


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


# -- mutants: each breaks one link between the optimum, the support pass and
# the market, and a named check FAILs

def _failed(tree, pair, endow):
    # a degenerate market flagged EQUIVALENT reaches the checks after the
    # flag with X = inf on its dead leaf, which they read as NaN
    with np.errstate(invalid="ignore"):
        return [r.name for r in run_battery(tree, pair, endow) if not r.passed]


@pytest.mark.parametrize("make", [treegen.tri1, treegen.dead_leaf_market],
                         ids=["equivalent", "degenerate"])
def test_a_flipped_support_flag_fails_its_check(make, monkeypatch):
    solve = checks.solve_dual
    flip = {"EQUIVALENT": "DEGENERATE", "DEGENERATE": "EQUIVALENT"}
    monkeypatch.setattr(checks, "solve_dual", lambda *args: dataclasses.replace(
        solve(*args), support=flip[solve(*args).support]))
    assert "support flag matches market" in _failed(make(), exponential_utility(1.0, 2.0), 0.0)


def test_a_dead_leaf_dropped_from_the_mask_fails_the_flag(monkeypatch):
    # the mask alone decides the flag; the measure certificate still
    # charges no martingale weight to the up leaf
    tree = treegen.dead_leaf_market()
    wrong = dataclasses.replace(geometry._support_structure(tree))
    wrong.__dict__["mask"] = np.ones(tree.n_leaves, dtype=bool)
    for mod in (geometry, dual, checks):
        monkeypatch.setattr(mod, "_support_structure", lambda tree: wrong)
    assert dual.solve_dual(tree, exponential_utility(1.0, 2.0), 0.0).support == "EQUIVALENT"
    assert "support flag matches market" in _failed(tree, exponential_utility(1.0, 2.0), 0.0)


@pytest.mark.parametrize("shift", [(1e-6, 0.0), (1e-9, -1e-9)], ids=["sum", "drift"])
def test_a_perturbed_certificate_weight_fails_the_flag(tri1, shift, monkeypatch):
    # 1e-6 more on leaf a breaks the root's sum; 1e-9 moved from leaf c to
    # leaf a keeps the sum and drifts the price by 1.5e-9
    w = geometry._support_structure(tri1).step_weights + np.array([0.0, shift[0], 0.0, shift[1]])
    monkeypatch.setattr(geometry.SupportStructure, "step_weights", property(lambda self: w))
    assert _failed(tri1, exponential_utility(1.0, 2.0), [0.3, -0.2, 0.1]) == [
        "support flag matches market"]


def test_a_dropped_small_weight_child_fails_the_flag(monkeypatch):
    # increments (1e6, -1e-5): the up child's one-step weight is 1e-11.  A
    # support pass that drops it offers the weights (0, 1), whose drift is
    # 1e-11 of the largest increment, and the strategy 1e-6, which loses
    # 1e-11 of its scale on the down child; both lie below 1e-10 of their
    # scales and above the support pass's own floor of 1e-12
    tree = treegen.product_market([[1e6 + 1.0, 1.0 - 1e-5]])
    real = geometry._support_structure(tree)
    assert real.mask.all() and real.step_weights[1] < 1e-10
    wrong = dataclasses.replace(real)
    wrong.__dict__.update(step_weights=np.array([1.0, 0.0, 1.0]),
                          arbitrage=np.array([[1e-6]]))
    monkeypatch.setattr(checks, "_support_structure", lambda tree: wrong)
    solve = checks.solve_dual
    monkeypatch.setattr(checks, "solve_dual", lambda *args: dataclasses.replace(
        solve(*args), support="DEGENERATE"))
    on, measure_ok = checks._measure_certificate(tree.layout, wrong.step_weights)
    gains, scale = checks._arbitrage_gains(tree.layout, wrong.arbitrage)
    assert on.tolist() == [False, True] and not measure_ok
    assert gains[1] < -checks._CERTIFICATE_TOL * scale[1]
    assert {"support flag matches market", "maximal support"} <= set(
        _failed(tree, exponential_utility(1.0, 2.0), 0.0))
    monkeypatch.setattr(checks, "_CERTIFICATE_TOL", 1e-10)
    assert "support flag matches market" not in _failed(tree, exponential_utility(1.0, 2.0), 0.0)


@pytest.mark.parametrize("pair", [exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0)],
                         ids=["exponential", "two-power"])
def test_a_bent_wealth_fails_the_supermartingale_checks(pair, monkeypatch):
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    real = checks.recover

    def bent(*args):
        ps = real(*args)
        wealth = ps.wealth.copy()
        wealth[2] += 1e-3
        return dataclasses.replace(ps, wealth=wealth)

    monkeypatch.setattr(checks, "recover", bent)
    failed = _failed(tree, pair, e)
    assert {"supermartingale under tested measures",
            "martingale under the optimal measure"} <= set(failed)


@pytest.mark.parametrize("pair", [exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0)],
                         ids=["exponential", "two-power"])
def test_a_drift_on_one_leaf_of_x_fails_the_first_order_conditions(tri1, pair, monkeypatch):
    # on tri1's three children one asset leaves a one-dimensional residual
    # space, which a shift of one leaf's X moves
    gain = dual.DualSolution.terminal_gain.fget
    bump = np.array([1e-6, 0.0, 0.0])
    monkeypatch.setattr(dual.DualSolution, "terminal_gain",
                        property(lambda self: gain(self) + bump))
    assert "dual first-order conditions" in _failed(tri1, pair, [0.3, -0.2, 0.1])


@pytest.mark.parametrize("make", [treegen.caterpillar_market,
                                  lambda: treegen.product_market([[1e5, 0.99999]] * 2)],
                         ids=["caterpillar", "product"])
def test_the_flag_is_proven_where_double_description_drops_a_vertex(make):
    # one-step weights near 1e-10 multiply to path masses below DD's entry
    # floor of 1e-12 (and to ~1e-400 on the caterpillar); the certificate
    # is checked node by node and forms no product
    results = {r.name: r for r in run_battery(make(), exponential_utility(1.0, 2.0), 0.0)}
    flag = results["support flag matches market"]
    assert flag.passed and flag.detail == "EQUIVALENT"
    assert results["maximal support"].passed


# -- the battery computes each quantity once -----------------------------------


@pytest.mark.parametrize("k", range(len(SUITE)))
def test_the_battery_reads_the_dynamic_dual_of_every_time_in_one_pass(k, monkeypatch):
    # oracle: the worst wealth residual and restriction gap over the nodes
    # of dynamic_dual(sol, t) for every t; the battery builds no node object
    tree, pair, endow = SUITE[k]
    sol = dual.solve_dual(tree, pair, endow)
    ps = recover(tree, pair, endow, sol)
    want = max(max(node.wealth_residual, node.restriction_gap)
               for t in range(tree.horizon + 1) for node in dynamic_dual(sol, t, wealth=ps.wealth))

    def refuse(*args, **kwargs):
        raise AssertionError("a DynamicDualNode was built")

    monkeypatch.setattr(recovery, "DynamicDualNode", refuse)
    results = {r.name: r for r in run_battery(tree, pair, endow)}
    assert results["dynamic dual consistency"].residual == want


def test_a_nan_on_a_later_node_fails_the_dynamic_dual(monkeypatch):
    # a NaN log-partition at the first time-1 node makes its conditional
    # value, derivative, gap and wealth residual NaN; the root comes first
    # and is finite, and a max that drops a later NaN passed the check
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    solve = checks.solve_dual

    def corrupted(*args):
        sol = solve(*args)
        log_l = sol._log_l.copy()
        log_l[1] = np.nan
        return dataclasses.replace(sol, _log_l=log_l)

    monkeypatch.setattr(checks, "solve_dual", corrupted)
    results = {r.name: r for r in run_battery(tree, exponential_utility(1.0, 2.0), e)}
    assert math.isnan(results["dynamic dual consistency"].residual)
    assert _failed(tree, exponential_utility(1.0, 2.0), e) == ["dynamic dual consistency"]


def test_a_nan_on_a_later_curve_point_fails_the_curve_checks(monkeypatch):
    # the fourth of the five curve points reads a NaN value and derivative;
    # min and max over Python floats dropped them, and the checks passed
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    real = dual._at_masses

    def corrupted(*args):
        sols = real(*args)
        if len(sols) == 5:
            sols[3] = dataclasses.replace(sols[3], value=math.nan,
                                          _endow_arr=sols[3]._endow_arr + math.nan)
        return sols

    monkeypatch.setattr(dual, "_at_masses", corrupted)
    assert _failed(tree, two_power_utility(0.5, 1.0, 1.0), e) == [
        "value curve convexity", "curve minimum vs optimum",
        "conjugate growth bound along the curve"]
