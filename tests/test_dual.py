import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lse_oracle
import treegen
from treedual import (DomainError, EvaluationOverflowError, InfeasibleEntropyError,
                      NoMartingaleMeasureError, NonconvergedError, TreedualError,
                      ValueAtSupremumError, build_constraints,
                      dual_derivative,
                      dual_value_curve, exponential_utility, leaf_values,
                      load_market, market_from_dict,
                      optimal_measure_price_process, price_report, recover,
                      relative_entropy, run_battery, solve_dual,
                      solve_dual_fixed_mass,
                      two_power_utility, vertex_enumerate)
from treedual import checks, dual, geometry, market, oracle

# closed form for the binomial market with unit risk aversion and no
# endowment: mass solves E_Q[log(y q/p)] = 0 with q = (1/3, 2/3), p = (1/2, 1/2)
BIN1_MASS = 3.0 * 2.0 ** (-5.0 / 3.0)


def tri1_grid_oracle(pair, endow_arr, steps_a=2001, stages=3):
    """Grid search over the trinomial's one-parameter martingale family.

    For each family member the mass minimization is a scalar convex problem,
    done here by an independent vectorized golden section on the log axis.
    The family grid is refined around the incumbent; minima over nested
    grids only improve.
    """
    p = np.full(3, 1 / 3)

    def best_over_mass(a_grid):
        Q = np.column_stack([a_grid / 2.0, 1.0 - 1.5 * a_grid, a_grid])
        eq = Q @ endow_arr

        def val(s):
            y = np.exp(s)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = pair.v((y[:, None] * Q) / p[None, :])
            out = vals @ p + y * eq
            out[~np.isfinite(out)] = math.inf
            return out

        lo = np.full(a_grid.size, -30.0)
        hi = np.full(a_grid.size, 30.0)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - phi * (hi - lo)
        d = lo + phi * (hi - lo)
        fc, fd = val(c), val(d)
        for _ in range(70):
            left = fc <= fd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            c = hi - phi * (hi - lo)
            d = lo + phi * (hi - lo)
            fc, fd = val(c), val(d)
        return np.minimum(fc, fd)

    a_lo, a_hi = 1e-12, 2 / 3 - 1e-12
    best = math.inf
    for _ in range(stages):
        grid = np.linspace(a_lo, a_hi, steps_a)
        vals = best_over_mass(grid)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        span = (a_hi - a_lo) / steps_a * 4
        a_lo = max(1e-12, grid[i] - span)
        a_hi = min(2 / 3 - 1e-12, grid[i] + span)
    return best


def test_bin1_exponential_closed_form(bin1, exp_pair_raw):
    sol = solve_dual(bin1, exp_pair_raw, 0.0)
    assert sol.q_hat == pytest.approx([1 / 3, 2 / 3], abs=1e-9)
    assert sol.mass == pytest.approx(BIN1_MASS, abs=1e-8)
    assert sol.value == pytest.approx(-BIN1_MASS, abs=1e-10)
    assert sol.support == "EQUIVALENT"
    assert sol.stationarity <= 1e-9


def test_tri1_minimal_entropy_measure(tri1, exp_pair_raw):
    sol = solve_dual(tri1, exp_pair_raw, 0.0)
    oracle = tri1_grid_oracle(exp_pair_raw, np.zeros(3))
    assert sol.value == pytest.approx(oracle, abs=1e-6)
    # minimal relative entropy: the normalized optimizer beats both vertices
    kl = float(np.sum(sol.q_hat * np.log(sol.q_hat * 3)))
    for v in np.exp(vertex_enumerate(tri1)):
        q = v
        m = q > 0
        assert kl <= float(np.sum(q[m] * np.log(q[m] * 3))) + 1e-9


def test_tri1_with_endowment_matches_grid_oracle(tri1, exp_pair):
    e = {"a": 0.4, "b": -0.3, "c": 0.2}
    sol = solve_dual(tri1, exp_pair, e)
    oracle = tri1_grid_oracle(exp_pair, leaf_values(tri1, e))
    assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_tri1_two_power_matches_grid_oracle(tri1, tp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, tp_pair, e)
    oracle = tri1_grid_oracle(tp_pair, leaf_values(tri1, e))
    assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_solution_invariants(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, {"a": 0.3, "b": -0.2, "c": 0.1})
    A = build_constraints(tri1)
    assert np.abs(A @ sol.mu).max() <= 1e-9
    assert sol.mass > 0
    assert sol.value < exp_pair.u_inf
    assert sol.support == "EQUIVALENT"
    # the value is C - exp(L)/gamma from the log-partition, bit for bit, and
    # the objective re-evaluated at the returned measure agrees to rounding
    assert sol.mass == pytest.approx(math.exp(sol._log_mass), rel=1e-15)
    assert sol.value == 2.0 - sol.mass
    p = tri1.leaf_probability_array
    e = leaf_values(tri1, {"a": 0.3, "b": -0.2, "c": 0.1})
    again = float(p @ exp_pair.v(sol.mu / p) + sol.mu @ e)
    assert again == pytest.approx(sol.value, rel=1e-13)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_measure_views_follow_the_arrays(tri1, pair_name, request):
    # a replaced exact form shows through mu and q_hat, as the battery's
    # corrupted-measure hook needs
    sol = solve_dual(tri1, request.getfixturevalue(pair_name), {"a": 0.3, "b": -0.2, "c": 0.1})
    mu = np.array([0.2, 0.3, 0.4])
    new = dataclasses.replace(sol, _log_mass=math.log(0.9), _log_q=np.log(mu / 0.9))
    assert new.mu.tolist() == np.exp(math.log(0.9) + np.log(mu / 0.9)).tolist()
    assert new.q_hat.tolist() == np.exp(np.log(mu / 0.9)).tolist()
    assert new.mu == pytest.approx(mu, rel=1e-15) and new.mass == pytest.approx(0.9, rel=1e-15)


@pytest.mark.parametrize("solver", ["log-space pass", "closed form", "Newton core"])
def test_an_optimum_stores_its_exact_form_once(solver):
    # mass, q_hat and mu are read off (ln y, ln q_hat) bit for bit, at free
    # and fixed rows of each solver, and none of them is a field
    names = {f.name for f in dataclasses.fields(dual.DualSolution)}
    assert names.isdisjoint({"mu", "q_hat", "mass", "mass_curvature", "iterations"})
    complete = solver == "closed form"
    tree = treegen.product_market([[1.2, 0.9] if complete else [1.2, 1.0, 0.85]] * 2)
    pair = exponential_utility(1.0, 2.0) if solver == "log-space pass" else \
        two_power_utility(0.5, 1.0, 1.0)
    assert geometry._support_structure(tree).complete == complete
    e = np.random.default_rng(3).uniform(-1.0, 1.0, (3, tree.n_leaves))
    sols = dual._solutions(tree, pair, e, np.array([np.nan, math.log(0.7), np.nan]))
    for sol in sols:
        assert sol.mass == math.exp(sol._log_mass)
        assert sol.q_hat.tobytes() == np.exp(sol._log_q).tobytes()
        assert sol.mu.tobytes() == np.exp(sol._log_mass + sol._log_q).tobytes()
        assert sol.iterations == ({"steps": sol.steps, "residual": sol.stationarity},)
    assert sols[1].mass == pytest.approx(0.7, rel=1e-15)
    assert sols[0].mass_curvature > 0 < sols[1].mass_curvature


def test_kkt_certificate(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    A = build_constraints(tri1)
    g = exp_pair.v_prime(sol.density_array) + leaf_values(tri1, e)
    lam, *_ = np.linalg.lstsq(A.T, g, rcond=None)
    s = g - A.T @ lam
    live = sol.mu > 0
    assert np.abs(s[live]).max() <= 1e-8 * (1 + np.abs(g).max())


def test_uniqueness_from_random_starts(tri1, exp_pair, tp_pair):
    # the Newton core reaches the one optimum from measures drawn across the
    # polytope and scaled in mass, as from its cold start
    e = leaf_values(tri1, {"a": 0.5, "b": 0.0, "c": -0.5})
    rng = np.random.default_rng(11)
    verts = np.exp(vertex_enumerate(tri1))
    for pair in (exp_pair, tp_pair):
        ref = solve_dual(tri1, pair, e)
        starts = np.array([(0.8 * rng.dirichlet(np.ones(len(verts))) @ verts
                            + 0.2 * ref.q_hat) * rng.uniform(0.3, 3.0) for _ in range(4)])
        sols = dual._core_solutions(tri1, pair, np.tile(e, (4, 1)), starts=starts)
        cold, = dual._core_solutions(tri1, pair, e[None])
        steps = {s.iterations[0]["steps"] for s in sols}
        if pair is exp_pair:
            # on an up/flat/down node the exponential start fit in the Newton
            # metric is the minimizer from every martingale start, as in the
            # log-space pass's node start
            assert steps == {cold.iterations[0]["steps"]} == {0}
        else:
            # the starts are read: some row takes another path than the cold one
            assert steps != {cold.iterations[0]["steps"]}
        for sol in sols:
            assert np.abs(sol.mu - ref.mu).max() <= 1e-7


def test_endowment_shift_consistency(tri1, exp_pair):
    e = {"a": 0.1, "b": 0.2, "c": -0.1}
    base = solve_dual(tri1, exp_pair, e)
    for c in (0.5, -0.25):
        shifted = solve_dual(tri1, exp_pair,
                             {k: v + c for k, v in e.items()})
        # tangent sandwich from concavity of the value in a cash shift
        assert shifted.value <= base.value + base.mass * c + 1e-9
        assert shifted.value >= base.value + shifted.mass * c - 1e-9


def test_value_curve(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    ss = sol._log_mass + np.log([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
    rep = dual_value_curve(sol, log_masses=ss)
    at_opt = [p for p in rep.points if p.y == pytest.approx(sol.mass)]
    assert at_opt[0].value == pytest.approx(sol.value, abs=1e-8)
    assert rep.min_second_difference >= -1e-8
    assert rep.min_value >= sol.value - 1e-9


@pytest.mark.parametrize("family", ["exponential", "two_power"])
def test_value_curve_reads_the_same_margin_from_masses_and_log_masses(tri1, exp_pair,
                                                                       tp_pair, family):
    pair = exp_pair if family == "exponential" else tp_pair
    e = [0.3, -0.2, 0.1]
    sol = solve_dual(tri1, pair, e)
    ratios = np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    by_mass = dual_value_curve(sol, log_masses=np.log(sol.mass * ratios)).min_second_difference
    by_log = dual_value_curve(sol, log_masses=sol._log_mass + np.log(ratios)).min_second_difference
    assert by_mass == pytest.approx(by_log, rel=1e-12, abs=1e-12)


def test_value_curve_bin1_closed_form(bin1, exp_pair_raw):
    # single measure: the curve is one conjugate evaluation per mass
    q = np.array([1 / 3, 2 / 3])
    p = np.array([0.5, 0.5])
    ss = np.log([0.4, 0.8, 1.2, 2.0])
    rep = dual_value_curve(solve_dual(bin1, exp_pair_raw, 0.0), log_masses=ss)
    for pt in rep.points:
        direct = float(p @ exp_pair_raw.v(pt.y * q / p))
        assert pt.value == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_value_curve_refuses_a_repeated_mass(bin1, pair_name, request):
    # a repeated mass made the second difference divide by zero
    with pytest.raises(DomainError, match="curve masses must be distinct"):
        dual_value_curve(solve_dual(bin1, request.getfixturevalue(pair_name), 0.0),
                         log_masses=[0.0, 0.0, math.log(2.0)])


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_log_masses_must_be_finite(tri1, pair_name, request):
    # a NaN log mass marks a free row inside the solvers, so it must not get
    # in: it gave the free optimum or a curve point at y = nan; an empty
    # grid gave a ValueError or a TypeError; -inf is the zero mass
    pair = request.getfixturevalue(pair_name)
    e = [0.3, -0.2, 0.1]
    sol = solve_dual(tri1, pair, e)
    with pytest.raises(DomainError, match="at least one"):
        dual_value_curve(sol, log_masses=[])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="masses must be finite"):
            solve_dual_fixed_mass(tri1, pair, e, log_mass=bad)
        with pytest.raises(DomainError, match="masses must be finite"):
            dual_derivative(tri1, pair, e, log_mass=bad)
        with pytest.raises(DomainError, match="masses must be finite"):
            dual_value_curve(sol, log_masses=[-0.5, bad, 0.0])


def test_a_positional_mass_is_refused(tri1, exp_pair):
    # the mass is taken by keyword only: a float mass passed in its old
    # position would otherwise be read as ln y, silently
    e = [0.3, -0.2, 0.1]
    sol = solve_dual(tri1, exp_pair, e)
    with pytest.raises(TypeError):
        solve_dual_fixed_mass(tri1, exp_pair, e, 2.0)
    with pytest.raises(TypeError):
        dual_derivative(tri1, exp_pair, e, 2.0)
    with pytest.raises(TypeError):
        dual_value_curve(sol, [0.5, 1.0])


def test_log_curve_takes_convexity_from_the_derivatives(tri1, exp_pair):
    # masses e^-800 and e^-760 underflow to 0, the log masses stay exact;
    # W'(y) = (ln y - L)/gamma rises by the log-mass steps over gamma
    sol = solve_dual(tri1, exp_pair, [0.3, -0.2, 0.1])
    rep = dual_value_curve(sol, log_masses=[-750.0, -800.0, -760.0])
    assert [p.y for p in rep.points] == [0.0, 0.0, math.exp(-750.0)]
    assert rep.min_second_difference == pytest.approx(10.0, rel=1e-12)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="log masses must be finite"):
            dual_value_curve(sol, log_masses=[-1.0, bad])
    with pytest.raises(DomainError, match="curve masses must be distinct"):
        dual_value_curve(sol, log_masses=[-800.0, -800.0])


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_mass_derivative_is_the_envelope_formula(tri1, pair_name, request):
    # one expression, -E_q_hat[X], serves the curve and the derivative, bit
    # for bit; it is the envelope E_q_hat[V'(density) + e], exactly for the
    # two-power family and to rounding where X comes from the log-masses
    pair = request.getfixturevalue(pair_name)
    e = np.array([0.3, -0.2, 0.1])
    free = solve_dual(tri1, pair, e)
    for s in np.log([0.5, 1.0, 2.0]):
        sol = solve_dual_fixed_mass(tri1, pair, e, log_mass=s)
        got = sol.mass_derivative
        assert got == dual_derivative(tri1, pair, e, log_mass=s)
        # the curve reads the free optimum's pass (exponential), or solves
        # a row started at the rescaled optimum, which meets the cold one
        point = dual_value_curve(free, log_masses=[s]).points[0].derivative
        if pair.family == "exponential":
            assert point == got
        else:
            assert point == pytest.approx(got, rel=1e-12, abs=1e-12)
        envelope = float(np.dot(sol.q_hat, pair.v_prime(sol.density_array) + e))
        ulps = 0 if pair.family == "two_power" else 4
        assert abs(got - envelope) <= ulps * np.spacing(abs(envelope))


def test_mass_derivative_is_finite_on_dead_leaves(exp_pair):
    # q_hat is 0 on the dead leaf, where V'(0) = -inf; the derivative of
    # W(y) = C + y (ln y - 1 - L)/gamma is (ln y - L)/gamma
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    assert sol.support == "DEGENERATE" and 0.0 in sol.q_hat
    ss = np.log([0.3, 0.9, 1.5])
    with np.errstate(all="raise"):
        got = [dual_derivative(tree, exp_pair, 0.0, log_mass=sol._log_mass)] + [
            p.derivative for p in dual_value_curve(sol, log_masses=ss).points]
    gamma = exp_pair.params["gamma"]
    want = [(s - sol._log_mass) / gamma for s in [sol._log_mass, *ss]]
    assert all(map(math.isfinite, got))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _curve_instance(seed, family):
    """A random market, a pair of ``family``, an endowment, its free optimum
    and sorted log masses around the optimum's, one of them subnormal for
    the exponential family."""
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = (exponential_utility(float(rng.uniform(0.3, 3.0)), 2.0) if family == "exponential"
            else two_power_utility(float(rng.uniform(0.3, 0.7)),
                                   float(rng.uniform(0.5, 2.0)), 1.0))
    e = rng.uniform(-1.0, 1.0, tree.n_leaves)
    sol = solve_dual(tree, pair, e)
    ss = list(sol._log_mass + np.log([0.5, 0.75, 1.0, 1.5, 2.0]))
    if family == "exponential":
        ss.append(-800.0)
    return tree, pair, e, sol, np.sort(ss)


@pytest.mark.parametrize("seed", range(8))
def test_exponential_curve_read_off_the_optimum_is_a_fresh_pass_bit_for_bit(seed):
    # the fixed-mass optimum is e^s q_hat, so the curve reads every point
    # off the free optimum's pass, as a fresh fixed-mass pass does
    tree, pair, e, sol, ss = _curve_instance(seed, "exponential")
    curve = dual_value_curve(sol, log_masses=ss)
    fresh = dual._solutions(tree, pair, np.repeat(e[None], ss.size, axis=0), ss)
    for pt, row in zip(curve.points, fresh, strict=True):
        assert (pt.y, pt.value, pt.derivative) == (row.mass, row.value, row.mass_derivative)
        assert np.array_equal(pt.q_hat, row.q_hat)


@pytest.mark.parametrize("seed", range(8))
def test_two_power_curve_started_at_the_optimum_meets_cold_rows(seed):
    tree, pair, e, sol, ss = _curve_instance(seed, "two_power")
    curve = dual_value_curve(sol, log_masses=ss)
    cold = dual._solutions(tree, pair, np.repeat(e[None], ss.size, axis=0), ss)
    for pt, row, s in zip(curve.points, cold, ss, strict=True):
        assert pt.y == math.exp(s)
        assert abs(pt.value - row.value) <= 1e-12 * (1.0 + abs(row.value))
        # the derivative -E_q_hat[X] cancels at the optimum: scale by X
        scale = 1.0 + np.abs(row.terminal_gain).max()
        assert abs(pt.derivative - row.mass_derivative) <= 1e-12 * scale
        assert np.abs(pt.q_hat - row.q_hat).max() <= 1e-12


def test_one_log_mass_to_mass_conversion(tri1, exp_pair, tp_pair):
    # every mass read off a log mass is math.exp of it, in both families and
    # on the curve (numpy's exp differs from it by an ulp on some of these)
    ss = np.sort(np.random.default_rng(3).uniform(-5.0, 5.0, 64))
    e = leaf_values(tri1, {"a": 0.3, "b": -0.2, "c": 0.1})
    for pair in (exp_pair, tp_pair):
        curve = dual_value_curve(solve_dual(tri1, pair, e), log_masses=ss)
        assert [pt.y for pt in curve.points] == [math.exp(s) for s in ss]
    rows = dual._solutions(tri1, exp_pair, np.repeat(e[None], ss.size, axis=0), ss)
    assert [row.mass for row in rows] == [math.exp(s) for s in ss]


def test_a_mass_past_the_float_range_fails_its_row_typed(tri1, tp_pair):
    e = leaf_values(tri1, {"a": 0.3, "b": -0.2, "c": 0.1})
    sol = solve_dual(tri1, tp_pair, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflowError):
            dual_value_curve(sol, log_masses=[720.0])
        good, over = dual._solutions(tri1, tp_pair, np.array([e, e]), np.array([0.0, 720.0]))
    assert isinstance(over, EvaluationOverflowError)
    alone, = dual._solutions(tri1, tp_pair, e[None], np.array([0.0]))
    assert (good.value, good.mass) == (alone.value, alone.mass)


@pytest.mark.parametrize("s", [-746.0, -700.0])
def test_a_mass_whose_wealth_is_past_the_float_range_fails_its_row_typed(s):
    # the low side: I(y) = -V'(y) overflows at y = e^-700 and y = e^-746
    # (0 in floats), and some leaf has density y q/p <= y, so its optimal
    # wealth is at least I(y): the row is refused before the Newton loop,
    # where it ran into the step cap or a singular start fit
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    pair = two_power_utility(0.5, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflowError, match="wealth"):
            dual._at_masses(tree, pair, e, [s])
        good, low = dual._solutions(tree, pair, np.array([e, e]), np.array([0.0, s]))
    assert isinstance(low, EvaluationOverflowError)
    alone, = dual._solutions(tree, pair, e[None], np.array([0.0]))
    assert (good.value, good.mass) == (alone.value, alone.mass)


@pytest.mark.parametrize("tree", [
    treegen.bin1(),
    treegen.product_market([[1.3, 0.8]] * 5, [[0.6, 0.4]] * 5),
    treegen.product_market([[(1.2, 0.95), (0.9, 1.2), (0.95, 0.85)]] * 3)],
    ids=["bin1", "2x2x2x2x2/1a", "3x3x3/2a"])
def test_complete_market_cold_solve_starts_at_the_optimum_up_to_the_budget(tree, tp_pair):
    # y q with q the one martingale measure is the optimum but for the
    # budget: a few steps of the core, the closed form's oracle on complete
    # markets, where the start at h = 0 took up to 9
    rng = np.random.default_rng(0)
    for _ in range(5):
        sol, = dual._core_solutions(tree, tp_pair, rng.uniform(-1.0, 1.0, (1, tree.n_leaves)))
        assert sol.iterations[0]["steps"] <= 3
        assert sol.stationarity <= 1e-13


def test_derivative_zero_at_optimum(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    assert abs(dual_derivative(tri1, exp_pair, e, log_mass=sol._log_mass)) <= 1e-7


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_derivative_matches_finite_differences(tri1, tp_pair, y):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    d = dual_derivative(tri1, tp_pair, e, log_mass=math.log(y))
    h = 1e-5 * y
    up = solve_dual_fixed_mass(tri1, tp_pair, e, log_mass=math.log(y + h)).value
    dn = solve_dual_fixed_mass(tri1, tp_pair, e, log_mass=math.log(y - h)).value
    fd = (up - dn) / (2 * h)
    assert d == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_derivative_increases_to_infinity(tri1, exp_pair):
    ds = [dual_derivative(tri1, exp_pair, 0.0, log_mass=s)
          for s in np.log([1.0, 2.0, 4.0, 8.0, 16.0])]
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_fixed_mass_consistency(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    pinned = solve_dual_fixed_mass(tri1, exp_pair, e, log_mass=sol._log_mass)
    assert pinned.value == pytest.approx(sol.value, abs=1e-8)


def _maximal_support_check(tree, pair, endow):
    return next(r for r in run_battery(tree, pair, endow) if r.name == "maximal support")


def test_maximal_support_full(tri1, exp_pair):
    check = _maximal_support_check(tri1, exp_pair, 0.0)
    assert check.passed and check.residual == 0.0
    assert check.detail == "3 leaves charged by the measure certificate, 0 cut off by the arbitrage"


def test_maximal_support_dead_leaf_vacuous(exp_pair):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    assert sol.support == "DEGENERATE"
    # the dead leaf is charged by no vertex, so the optimum need not charge it
    assert vertex_enumerate(tree)[:, 0].max() == -np.inf
    check = _maximal_support_check(tree, exp_pair, 0.0)
    assert check.passed
    assert check.detail == "1 leaves charged by the measure certificate, 1 cut off by the arbitrage"


def test_degenerate_flag_and_value(exp_pair_raw):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair_raw, 0.0)
    assert sol.support == "DEGENERATE"
    # only measure is the point mass on the flat branch: 1-D problem in mass
    assert sol.mu[0] == 0.0
    assert sol.value == pytest.approx(-0.5, abs=1e-10)


def test_two_power_degenerate_infeasible():
    tree = treegen.dead_leaf_market()
    with pytest.raises(InfeasibleEntropyError):
        solve_dual(tree, two_power_utility(0.5, 1.0, 1.0), 0.0)


def test_no_mm_propagates(exp_pair):
    with pytest.raises(NoMartingaleMeasureError):
        solve_dual(treegen.arbitrage_market(), exp_pair, 0.0)


def test_two_period_grid_oracle(exp_pair):
    tree = treegen.product_market([[2.0, 1.0, 0.5], [1.6, 0.7]])
    rng = np.random.default_rng(5)
    e = treegen.random_endowment(rng, tree)
    sol = solve_dual(tree, exp_pair, e)
    # independent check through the oracle module's exhaustive grid
    from treedual import brute_force_dual
    bd = brute_force_dual(tree, exp_pair, e, points_per_dim=21, rounds=10)
    assert bd == pytest.approx(sol.value, abs=1e-6)
    assert bd >= sol.value - 1e-9


def test_value_at_supremum_is_a_typed_error(tri1):
    # translation invariance: the value at e = 30 is C - exp(-30) times the
    # claim-free mass, within rounding of C = 2 but still below it
    pair = exponential_utility(1.0, 2.0)
    zero = solve_dual(tri1, pair, 0.0)
    sol = solve_dual(tri1, pair, 30.0)
    assert sol.value == pytest.approx(2.0 - zero.mass * math.exp(-30.0),
                                      rel=0, abs=4.5e-16)
    assert sol.value < 2.0
    assert sol._log_mass == pytest.approx(zero._log_mass - 30.0, rel=1e-15)
    # at e = 800 the mass exp(L) underflows to 0
    with pytest.raises(ValueAtSupremumError, match="sup U") as exc:
        solve_dual(tri1, pair, 800.0)
    assert isinstance(exc.value, TreedualError)
    assert exc.value.code == "AT_SUPREMUM"


def test_optimal_measure_satisfies_constraints_on_pinned_market():
    # a two-asset 4x4 tree whose max-min LP point once missed the martingale
    # rows by 2.5e-6; solves started there inherited the violation
    tree = load_market(treegen.DATA / "quote_pinned_4x4_2a.json")
    gamma = 0.6404970302084267
    sol = solve_dual(tree, exponential_utility(gamma, 1.0 + 1.0 / gamma),
                     tree.endowment)
    A = build_constraints(tree)
    assert np.abs(A @ sol.q_hat).max() <= 1e-12


# exponential dual values reach the -1e250 floor near endowment -575.6/gamma
@pytest.mark.parametrize("make", [treegen.tri1, treegen.bin1])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
def test_overflow_regime_boundary(make, gamma):
    tree = make()
    pair = exponential_utility(gamma, 2.0)
    tilt = np.linspace(-1.0, 1.0, tree.n_leaves)
    sol = solve_dual(tree, pair, -575.0 / gamma + tilt)
    assert -1e250 < sol.value < -1e248
    if gamma >= 1.0:
        assert -1e250 < solve_dual(tree, pair, -575.0 / gamma).value < -1e248
    for endow in (-580.0 / gamma, -580.0 / gamma + tilt):
        with pytest.raises(EvaluationOverflowError):
            solve_dual(tree, pair, endow)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
def test_ray_minimum_closed_form_matches_a_dense_scan(gamma):
    # along the ray t q_hat the objective is C - t*/gamma at t* = exp(L),
    # the mass of the log-space pass
    rng = np.random.default_rng(11)
    pair = exponential_utility(gamma, 2.0)
    for tree in (treegen.tri1(), treegen.product_market([[2.0, 1.0, 0.5], [1.6, 0.7]])):
        e = rng.uniform(-2.0, 2.0, size=tree.n_leaves)
        sol = solve_dual(tree, pair, e)
        t_star = sol.mass
        assert t_star == pytest.approx(math.exp(sol._log_mass), rel=1e-15)
        assert sol.value == 2.0 - t_star / gamma
        # entropy plus the endowment's cost at t q_hat, t on a log grid
        rays = [t_star * np.exp(np.linspace(-w, w, 2001))[:, None] * sol.q_hat
                for w in (5.0, 1e-3)]
        vals, fine = (np.array([relative_entropy(tree, pair, mu) for mu in mus]) + mus @ e
                      for mus in rays)
        assert abs(int(np.argmin(vals)) - 1000) <= 1
        scan = fine.min()
        assert scan == pytest.approx(sol.value, rel=1e-12, abs=0)


def test_log_mass_dominates_every_ray():
    # L = max over martingale probabilities q of the ray log-argmin
    # -H(q) - gamma E_q[e], attained at q_hat; H >= 0 bounds it by -gamma min e
    rng = np.random.default_rng(5)
    for k in range(20):
        tree = treegen.random_market(rng, max_periods=2, n_assets=1 + k % 2)
        gamma = float(rng.uniform(0.2, 10.0))
        e = rng.uniform(-800.0, 100.0) + rng.uniform(-5.0, 5.0, size=tree.n_leaves)
        sol, = dual._log_space_solutions(tree, exponential_utility(gamma, 2.0), [e])
        p = tree.leaf_probability_array
        for log_q in list(vertex_enumerate(tree)) + [sol._log_q]:
            on, q = log_q > -np.inf, np.exp(log_q)
            ray = -float(q[on] @ (log_q[on] - np.log(p[on]))) - gamma * float(q @ e)
            assert ray <= sol._log_mass + 1e-12 * abs(sol._log_mass)
        assert ray == pytest.approx(sol._log_mass, rel=1e-12)
        assert sol._log_mass <= -gamma * e.min() + 1e-12 * abs(gamma * e.min())


def test_solve_dual_never_sweeps(tri1, monkeypatch):
    # no dual solve looks for the endowment's cheapest vertex, even where
    # the value falls below the floating-point range
    calls = []
    real = geometry.SupportStructure.extremes
    monkeypatch.setattr(geometry.SupportStructure, "extremes",
                        lambda self, u: calls.append(1) or real(self, u))
    pair = exponential_utility(1.0, 2.0)
    solve_dual(tri1, pair, [0.3, -0.2, 0.1])
    solve_dual(tri1, pair, -500.0)
    with pytest.raises(EvaluationOverflowError):
        solve_dual(tri1, pair, -600.0)
    solve_dual(tri1, two_power_utility(0.5, 1.0, 1.0), [0.3, -0.2, 0.1])
    assert calls == []


def _structural_by_level(geo):
    """Oracle of :func:`dual._live_levels`: the same structural batches, each
    one (the nodes of a level with one valid vertex, then those with a
    choice of weights) set up on its own, padded to its widest node.  The
    w0 means alone are formed as the build forms them, by one einsum over
    every live non-leaf node padded to the widest of all, then cut per
    batch: summed over a batch's own width, a 7-child node's mean differs
    in its last bit (the 322-leaf binomial-in-S tree of seed 1), and the
    build keeps the one-pass mean so that ``fit`` is bit-identical."""
    lay, live = geo.layout, geo.live
    vertices = np.bincount(geo.node, minlength=len(lay.ids))
    every = np.flatnonzero(live[:lay.level_starts[-2]])
    kids, on, dS = dual._increments(lay, live, every)
    means = np.zeros((len(lay.ids), dS.shape[2]))
    means[every] = np.einsum("gm,gmd->gd", np.where(on, geo.step_weights[kids], 0.0), dS)
    out = []
    for lo, hi in zip(lay.level_starts[-3::-1], lay.level_starts[-2:0:-1]):
        for one in (True, False):
            node = lo + np.flatnonzero(live[lo:hi] & ((vertices[lo:hi] == 1) == one))
            if node.size == 0:
                continue
            kids, on, dS = dual._increments(lay, live, node)
            w0 = np.where(on, geo.step_weights[kids], 0.0)
            lnp = np.where(on, np.log(lay.prob[kids]), -np.inf)
            mean = means[node]
            dev = dS - mean[:, None]
            ev, vec = np.linalg.eigh(np.einsum("gm,gmd,gme->gde", w0, dev, dev))
            inv = np.divide(1.0, ev, out=np.zeros_like(ev),
                            where=ev > geometry._TOL * np.abs(ev[:, -1:]))
            null = (vec * (inv == 0.0)[:, None]) @ vec.swapaxes(1, 2)
            out.append((node, kids, lnp, dS, mean, null, (vec * inv[:, None]) @ vec.swapaxes(1, 2)))
    return tuple(out)


def _start_by_level(geo):
    """Oracle of :func:`dual._exponential_start` per batch of
    :func:`_structural_by_level`: fit, shift and w0 (None at nodes with a
    choice), and at those nodes the indices of each node's valid vertices
    into ``geo``'s, the last repeated to the most of any live non-leaf
    node (else None)."""
    lay, w, live = geo.layout, geo.step_weights, geo.live
    vertices = np.bincount(geo.node, minlength=len(lay.ids))
    first = np.concatenate([[0], np.cumsum(vertices)[:-1]])
    most = vertices[np.flatnonzero(live[:lay.level_starts[-2]])].max()
    out = []
    for node, kids, lnp, dS, mean, _, pinv in _structural_by_level(geo):
        on = lay.on[node, :kids.shape[1]] & live[kids]
        w0 = np.where(on, w[kids], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.where(on, lnp - np.log(w0), 0.0)
        fit = w0[..., None] * (dS - mean[:, None]) @ pinv
        if vertices[node[0]] == 1:
            out.append((fit, shift, w0, None))
            continue
        verts = np.array([[first[n] + min(v, vertices[n] - 1) for v in range(most)]
                          for n in node])
        out.append((fit, shift, None, verts))
    return tuple(out)


def _assert_live_levels_match_the_oracle(tree):
    geo = geometry._support_structure(tree)
    got, want = dual._live_levels(geo), _structural_by_level(geo)
    starts, want_starts = dual._exponential_start(geo), _start_by_level(geo)
    assert len(got) == len(want) == len(starts) == len(want_starts)
    pairs = list(zip(got, want))
    pairs += [(start, ref[:3]) for start, ref in zip(starts, want_starts)]
    for level, ref in pairs:
        assert len(level) == len(ref)
        assert [a is None for a in level] == [a is None for a in ref]
        for a, b in zip(level, ref):
            if b is not None:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # the max-plus start's vertices, formed by _log_partition's callback for
    # every row of two endowments: the rows the oracle's indices select, the
    # repeats past the most of the batch's nodes cut
    formed = []

    def capture(b, x, k0, null, vertices, _fn=dual._lse_min):
        formed.append(vertices(np.arange(len(b))))
        return _fn(b, x, k0, null, vertices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "_lse_min", capture)
        dual._log_partition(tree, 1.0, np.zeros((2, tree.n_leaves)))
    choice = [(level, ref[3]) for level, ref in zip(got, want_starts) if ref[3] is not None]
    assert len(formed) == len(choice)
    for weights, (level, verts) in zip(formed, choice):
        rows = geo.weight[np.concatenate([verts] * 2), :level.kids.shape[1]]
        v = weights.shape[1]
        assert weights.shape == rows[:, :v].shape and weights.tobytes() == rows[:, :v].tobytes()
        assert np.array_equal(rows[:, v:], np.repeat(rows[:, v - 1:v], rows.shape[1] - v, axis=1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_one_batch_sets_up_the_levels_bit_for_bit(seed, n_assets):
    _assert_live_levels_match_the_oracle(
        treegen.random_market(np.random.default_rng(seed), max_periods=3, n_assets=n_assets))


@pytest.mark.parametrize("make", [
    treegen.dead_leaf_market, treegen.caterpillar_market,
    lambda: treegen.product_market([[2.0, 1.0], [1.5, 0.5]]),
    lambda: treegen.product_market([[1.2, 1.0, 0.85], [1.1, 0.95], [1.3, 1.0, 0.9, 0.7]]),
    lambda: treegen.product_market([[(1.2, 1.1), (1.0, 0.8), (0.85, 1.05), (0.9, 0.95)]] * 3,
                                   s0=(1.0, 1.0)),
    lambda: market_from_dict(_binomial_in_s_tree(np.random.default_rng(1), 4, 400)[0]),
], ids=["dead-leaf", "caterpillar", "dead-branch", "widths-3-2-4", "two-asset",
        "binomial-in-S-322"])
def test_one_batch_sets_up_uneven_levels_bit_for_bit(make):
    _assert_live_levels_match_the_oracle(make())


def _dense_core(tree, pair, e):
    """The exponential dual by the Newton core on the maximal support."""
    sol = dual._core_solutions(tree, pair, e[None])[0]
    return sol.value, sol.q_hat


def _exponential_instance(seed, kind, scale, gamma):
    """A tree of the given kind, exponential_utility(gamma, 2) and an
    endowment uniform on [-scale, scale], all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "dead leaf":
        tree = treegen.dead_leaf_market()
    elif kind == "dead branch":
        tree = treegen.product_market([[2.0, 1.0], [1.5, 0.5]])
    else:
        tree = treegen.random_market(rng, max_periods=3,
                                     n_assets=1 if kind == "one asset" else 2)
    return tree, exponential_utility(gamma, 2.0), rng.uniform(-scale, scale, size=tree.n_leaves)


@st.composite
def _exponential_instances(draw):
    # gamma times the scale stays at or below 20: the core resolves leaf
    # masses within about e^-40 of the largest, the log-space pass any
    return _exponential_instance(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(["one asset", "two assets", "dead leaf", "dead branch"])),
        draw(st.sampled_from([1.0, 20.0])), draw(st.sampled_from([0.5, 1.0])))


@settings(max_examples=60, deadline=None)
@given(_exponential_instances())
# the core is 4e-8 off this optimum at scaled gradient 8.1e-10: it must run
# on to 1e-13 while steps are acceptable
@example(_exponential_instance(1890, "one asset", 20.0, 1.0))
# value C - e^L / gamma = -2.4e-5 with C = 2: one ulp of C is 1.8e-11 of it
@example(_exponential_instance(2118, "dead branch", 20.0, 1.0))
def test_log_space_pass_matches_the_newton_core(instance):
    # two algorithms, one optimum: backward induction on the log-partition
    # and damped Newton on the leaf masses; the value C - e^L / gamma is
    # compared at the scale of its terms
    tree, pair, e = instance
    sol = solve_dual(tree, pair, e)
    core = dual._core_solutions(tree, pair, e[None])[0]
    scale = abs(pair.params["C"]) + sol.mass / pair.params["gamma"]
    assert sol._log_mass == pytest.approx(core._log_mass, rel=1e-12)
    assert sol.value == pytest.approx(core.value, rel=1e-12, abs=1e-12 * scale)
    assert np.abs(sol.q_hat - core.q_hat).max() <= 1e-9
    assert sol.stationarity <= 1e-12



@settings(max_examples=60, deadline=None)
@given(_exponential_instances(), st.sampled_from([2, 3, 5]), st.integers(0, 2**32 - 1))
def test_stacked_pass_equals_single_passes_row_by_row(instance, r, seed):
    # every node of every endowment is its own row of the level's Newton
    # batch, so stacking changes no arithmetic
    tree, pair, e = instance
    rng = np.random.default_rng(seed)
    scale = float(np.abs(e).max())
    endows = [e] + [rng.uniform(-scale, scale, size=e.size) for _ in range(r - 1)]
    stacked = dual._log_space_solutions(tree, pair, endows)
    assert len(stacked) == r
    for x, sol in zip(endows, stacked):
        one, = dual._log_space_solutions(tree, pair, [x])
        assert sol.value == one.value and sol._log_mass == one._log_mass
        assert np.array_equal(sol.q_hat, one.q_hat)


@pytest.mark.parametrize("seed", range(4))
def test_exponential_solutions_take_a_mass_per_row_and_pass_each_endowment_once(
        seed, monkeypatch):
    # one stack of free (NaN) and fixed-mass rows that repeats endowments:
    # every row equals its single-row solve bit for bit, and the log-space
    # pass sees each distinct endowment once
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = exponential_utility(float(rng.uniform(0.5, 3.0)), 2.0)
    a, b = rng.uniform(-2.0, 2.0, size=(2, tree.n_leaves))
    endows = np.array([a, b, a, a, b, b])
    log_mass = np.log([np.nan, 0.5, 2.0, np.nan, np.nan, 3.0])
    passed, real = [], dual._log_partition
    monkeypatch.setattr(dual, "_log_partition",
                        lambda tree, gamma, e: passed.append(e.copy()) or real(tree, gamma, e))
    stack = dual._solutions(tree, pair, endows, log_mass)
    assert len(passed) == 1 and np.array_equal(passed[0], [a, b])
    # a fixed row carries its log mass as given, its mass to an ulp
    assert [s._log_mass for s in stack][1:3] == log_mass[1:3].tolist()
    assert [s.mass for s in stack][1:3] == [0.5, 2.0]
    assert stack[5]._log_mass == log_mass[5] and stack[5].mass == pytest.approx(3.0, rel=3e-16)
    for j, sol in enumerate(stack):
        one, = dual._solutions(tree, pair, endows[j:j + 1], log_mass[j:j + 1])
        assert (sol.mass, sol._log_mass, sol.value, sol.stationarity) == (
            one.mass, one._log_mass, one.value, one.stationarity)
        for x, y in ((sol.mu, one.mu), (sol.q_hat, one.q_hat), (sol._h_arr, one._h_arr),
                     (sol._endow_arr, one._endow_arr)):
            assert np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(_exponential_instances())
# every charged weight is above 6.4e-3, yet the grid's 8 zooms end at 0.0575
# against the optimum 0.02708
@example(_exponential_instance(1337, "one asset", 1.0, 0.5))
def test_stacked_pass_meets_the_grid_oracle(instance):
    # the grid's minimum never undercuts the infimum, but its zooms can stop
    # off the minimizer by percents even with every weight well inside the
    # simplex; the optimum itself is pinned by the Newton core, an
    # independent solver, at the scale of the value's terms
    tree, pair, e = instance
    if oracle.polytope_dimension(tree) > oracle.GRID_DIM_LIMIT:
        return
    for sol, x in zip(dual._log_space_solutions(tree, pair, [e, -e]), [e, -e]):
        grid = oracle.brute_force_dual(tree, pair, x, mode="grid")
        assert sol.value <= grid + 1e-12 * (1.0 + abs(grid))
        core = dual._core_solutions(tree, pair, x[None])[0]
        scale = abs(pair.params["C"]) + sol.mass / pair.params["gamma"]
        assert sol.value == pytest.approx(core.value, rel=1e-12, abs=1e-12 * scale)


def _binomial_in_s_tree(rng, periods, max_leaves):
    """A one-asset tree whose price moves up or down at every node, with 1-4
    children per move and random branch probabilities.

    Returns the scenario document and, per period, each child's parent (its
    index in the level above), move (True up) and branch probability, and
    each parent's risk-neutral up weight.  A level that would pass
    ``max_leaves`` gets one child per move; the tree stops before a level
    that would pass it even so.
    """
    nodes = [{"id": "0", "parent": None, "t": 0, "prices": ["1.0"], "prob": "1"}]
    ids, s, levels = ["0"], np.ones(1), []
    for t in range(1, periods + 1):
        g = s.size
        n_up, n_down = rng.integers(1, 5, size=(2, g))
        if (n_up + n_down).sum() > max_leaves:
            if levels and 2 * g > max_leaves:
                break
            n_up = n_down = np.ones(g, dtype=int)
        count = n_up + n_down
        parent = np.repeat(np.arange(g), count)
        up = np.arange(parent.size) - np.repeat(np.cumsum(count) - count, count) < n_up[parent]
        s_up, s_down = s * rng.uniform(1.05, 1.5, g), s * rng.uniform(0.6, 0.95, g)
        w = rng.uniform(0.05, 1.0, parent.size)
        prob = w / np.bincount(parent, w)[parent]
        s_child = np.where(up, s_up[parent], s_down[parent])
        child_ids = [f"{t}.{k}" for k in range(parent.size)]
        nodes += [{"id": c, "parent": ids[a], "t": t, "prices": [repr(x)], "prob": repr(pr)}
                  for c, a, x, pr in zip(child_ids, parent.tolist(), s_child.tolist(),
                                         prob.tolist())]
        levels.append((parent, up, prob, (s - s_down) / (s_up - s_down)))
        ids, s = child_ids, s_child
    return {"version": 1, "assets": ["S"], "nodes": nodes}, levels


def _binomial_log_partition(levels, leaf_l):
    """L_n = sum_s q_s [ln sum_{c in s} p(c|n) e^(L_c) - ln q_s] over the moves
    s of node n, with q the risk-neutral weights of the move; this is
    ln min_k sum_s e^(-k dS_s) sum_{c in s} p(c|n) e^(L_c) in closed form
    (Musiela & Zariphopoulou, Finance Stoch. 8, 2004)."""
    big_l = leaf_l
    for parent, up, prob, q_up in reversed(levels):
        # each parent's up children, then its down children: one segment each
        starts = np.flatnonzero(np.r_[True, (np.diff(parent) != 0) | (np.diff(up) != 0)])
        ln_a = np.logaddexp.reduceat(np.log(prob) + big_l, starts).reshape(-1, 2)
        q = np.stack([q_up, 1.0 - q_up], axis=1)
        big_l = (q * (ln_a - np.log(q))).sum(axis=1)
    return float(big_l[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([(1, 40), (2, 40), (3, 40), (4, 400), (4, 400), (6, 12_000)]),
       st.sampled_from([0.5, 2.0, 10.0]), st.floats(-4.0, 4.0))
def test_log_space_pass_meets_the_binomial_recursion(seed, size, gamma, log_volume):
    # an exact oracle with no Newton loop: on binomial-in-S trees the
    # exponential log-partition L is a closed-form backward recursion; one
    # draw in six has a few thousand to ~10^4 leaves, at volumes up to 1e4
    rng = np.random.default_rng(seed)
    doc, levels = _binomial_in_s_tree(rng, *size)
    tree = market_from_dict(doc)
    assert tree.leaf_ids == tuple(n["id"] for n in doc["nodes"][-tree.n_leaves:])
    b = 10.0 ** log_volume * rng.uniform(0.0, 1.0, tree.n_leaves)
    endows = [np.zeros(tree.n_leaves), -b, 3.0 * b]
    sols = dual._log_space_solutions(tree, exponential_utility(gamma, 2.0), endows)
    for sol, e in zip(sols, endows):
        want = _binomial_log_partition(levels, -gamma * e)
        assert abs(sol._log_mass - want) <= 1e-14 * (1.0 + abs(want))


def _complete_node_market(kind, rng):
    """A tree whose nodes fix the ratios of their moving children's
    martingale weights: binomial or up/flat/down product trees with random
    moves and branch probabilities, two-asset trees of three planar moves, or
    the dead-leaf market, whose root keeps one live child."""
    if kind == "dead leaf":
        return treegen.dead_leaf_market()
    if kind == "planar":
        return treegen.random_market(rng, max_periods=3, n_assets=2)
    flat = [1.0] if kind == "up/flat/down" else []
    moves = [[rng.uniform(1.05, 1.5)] + flat + [rng.uniform(0.6, 0.95)] for _ in range(3)]
    return treegen.product_market(moves, [rng.dirichlet(np.ones(len(m))).tolist() for m in moves])


@pytest.mark.parametrize("kind", ["binomial", "up/flat/down", "planar", "dead leaf"])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_one_step_martingale_start_is_exact_on_complete_nodes(kind, gamma):
    # each node's optimal weights equal w0, the mean of its one-step
    # vertices, on its moving children up to a common factor, so the
    # w0-weighted fit of its exponents is the minimizer: no Newton step is
    # taken while |gamma e| stays within 10 (beyond, rounding can ask for a
    # polishing step)
    rng = np.random.default_rng(int(gamma * 10) + len(kind))
    pair = exponential_utility(gamma, 2.0)
    for _ in range(5):
        tree = _complete_node_market(kind, rng)
        e = rng.uniform(-10.0 / gamma, 10.0 / gamma, tree.n_leaves)
        sol = solve_dual(tree, pair, e)
        core = dual._core_solutions(tree, pair, e[None])[0]
        assert sol.iterations[0]["steps"] == 0
        assert abs(sol._log_mass - core._log_mass) <= 1e-12


def test_one_step_martingale_start_solves_no_least_squares(exp_pair, monkeypatch):
    # the start's pseudo-inverse is one batched eigh of the (g, d, d)
    # covariances; pinv, lstsq or an SVD of the (g, m, d + 1) exponent
    # stacks would cost more than the Newton steps the start saves
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 5)
    geometry._support_structure(tree)  # warm: the pass is not under test here
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    claim = np.maximum(tree.layout.prices[tree.layout.level_starts[-2]:, 0] - 1.0, 0.0)

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares problem was solved")
    for name in ("lstsq", "pinv", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert solve_dual(tree, exp_pair, e).iterations[0]["steps"] == 0
    rep = price_report(tree, exp_pair, e, claim)
    assert rep.bid <= rep.offer


_ONE_VERTEX_TREES = {
    "binomial": lambda: treegen.product_market([[1.5, 0.9], [1.1, 0.6], [1.3, 0.95]],
                                               [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]]),
    "3x3x3/2a": lambda: treegen.product_market(
        [[(1.2, 1.1), (1.0, 0.8), (0.85, 1.05)]] * 3, s0=(1.0, 1.0)),
    "dead leaf": treegen.dead_leaf_market,
}


@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("name", list(_ONE_VERTEX_TREES))
def test_one_vertex_nodes_take_the_newton_loops_optimum_in_closed_form(name, gamma):
    # a node with one valid vertex w0 has no other martingale weights on its
    # live children, so w0 and the exact fit k0 are its optimum: _lse_min,
    # run as the oracle on the same nodes from the same start, takes no step
    # and finds the same L to 1e-15 of the size of its terms; its k is in
    # each asset's unit at the node, so h = k / top
    tree = _ONE_VERTEX_TREES[name]()
    rng = np.random.default_rng(int(gamma * 10))
    e = rng.uniform(-3.0 / gamma, 3.0 / gamma, (3, tree.n_leaves))
    big_l, h, ell, _, _ = dual._log_partition(tree, gamma, e)
    geo = geometry._support_structure(tree)
    batches = [(lv, start) for lv, start in zip(dual._live_levels(geo),
                                                 dual._exponential_start(geo))
               if start.w0 is not None]
    assert batches
    for lv, start in batches:
        node, kids, w0 = lv.node, lv.kids, start.w0
        r, g = len(e), node.size
        kid_l = big_l.take(kids, axis=1)
        k0 = np.einsum("gmd,jgm->jgd", start.fit, start.shift + kid_l) / gamma
        f, k, steps = dual._lse_min((lv.lnp + kid_l).reshape(r * g, -1),
                                    np.concatenate([gamma * lv.x] * r), k0.reshape(r * g, -1))
        assert steps == 0
        terms = np.einsum("gm,jgm->jg", w0, np.abs(start.shift + kid_l)).ravel()
        assert np.all(np.abs(big_l[:, node].ravel() - f) <= 1e-15 * terms)
        assert np.array_equal(h[:, node], k.reshape(r, g, -1) / tree.layout.top[node])
        # the optimizer's log weights, read off its node log masses, are ln w0
        on = w0 > 0
        lw = ell.take(kids, axis=1) - ell[:, node, None]
        assert np.abs(lw[:, on] - np.log(w0[on])).max() <= 4e-15


_UNIT_MOVES = [(1.2, 1.1), (0.9, 1.15), (1.0, 0.8)]


def _assert_unit_free(moves, s2):
    # pricing the second asset in units of s2 rescales its strategy by 1/s2
    # and changes nothing else: the value, the strategy at every node in
    # the s2 = 1 units, the Newton steps and the primal value recovered
    # from it
    pair = exponential_utility(1.0, 2.0)
    ref_tree = treegen.product_market([moves] * 2, s0=(1.0, 1.0))
    e = np.linspace(-0.5, 0.5, ref_tree.n_leaves)
    ref = solve_dual(ref_tree, pair, e)
    tree = treegen.product_market([moves] * 2, s0=(1.0, s2))
    sol = solve_dual(tree, pair, e)
    assert sol.value == pytest.approx(ref.value, rel=1e-12)
    assert np.abs(sol._h_arr * [1.0, s2] - ref._h_arr).max() <= 1e-9
    assert sol.iterations[0]["steps"] == ref.iterations[0]["steps"]
    assert recover(tree, pair, e, sol).value == pytest.approx(sol.value, rel=1e-12)
    return ref


_UNITS = [1e-12, 1e-9, 1e-7, 1e-6, 1e-3, 1e6, 1e9, 1e12]


@pytest.mark.parametrize("s2", _UNITS)
def test_one_vertex_nodes_do_not_depend_on_asset_units(s2):
    ref = _assert_unit_free(_UNIT_MOVES, s2)
    assert ref.value == pytest.approx(1.17087490898, abs=1e-11)
    assert ref._h_arr[0, 1] == pytest.approx(2.19315, abs=5e-6)


@pytest.mark.parametrize("s2", _UNITS)
def test_newton_batches_do_not_depend_on_asset_units(s2):
    # a fourth move gives every node a choice of weights
    _assert_unit_free(_UNIT_MOVES + [(1.1, 0.95)], s2)


def _requoted(tree, i, unit):
    # the same market with asset i quoted in ``unit`` times its units
    doc = market.market_to_dict(tree)
    for node in doc["nodes"]:
        node["prices"][i] = repr(float(node["prices"][i]) * unit)
    return market_from_dict(doc)


@pytest.mark.parametrize("family,k", [
    *(("exponential", k) for k in (-12, -6, 6, 12)),
    *(("two_power", k) for k in (-12, -6, 6, 12))])
def test_requoting_an_asset_changes_only_its_strategy(family, k):
    # six random markets (one and two assets): quoting one asset in units
    # of 10^k leaves the value, the strategy's gains (h times the units),
    # the exponential pass's steps and every battery verdict as they are
    pair = (exponential_utility(1.0, 2.0) if family == "exponential"
            else two_power_utility(0.5, 1.0, 1.0))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
        e, i = rng.uniform(-1.0, 1.0, tree.n_leaves), seed // 2 % tree.n_assets
        other = _requoted(tree, i, 10.0 ** k)
        ref, sol = solve_dual(tree, pair, e), solve_dual(other, pair, e)
        assert sol.value == pytest.approx(ref.value, rel=1e-12)
        unit = np.where(np.arange(tree.n_assets) == i, 10.0 ** k, 1.0)
        wealth = 1.0 + np.abs(ref.terminal_gain).max()
        assert np.abs(sol._h_arr * unit - ref._h_arr).max() <= 1e-9 * wealth
        if family == "exponential":
            assert sol.iterations[0]["steps"] == ref.iterations[0]["steps"]
        assert ([c.passed for c in run_battery(other, pair, e)]
                == [c.passed for c in run_battery(tree, pair, e)])


def test_levels_without_a_choice_make_no_newton_batch(exp_pair, monkeypatch):
    # one _lse_min batch per level with a choice of weights: none on a
    # binomial tree, one on binomial-trinomial-binomial
    calls = []

    def counted(*args, _fn=dual._lse_min):
        calls.append(args[0].shape[0])
        return _fn(*args)
    monkeypatch.setattr(dual, "_lse_min", counted)
    binomial = _ONE_VERTEX_TREES["binomial"]()
    sol = solve_dual(binomial, exp_pair, np.linspace(-1.0, 1.0, binomial.n_leaves))
    assert calls == [] and sol.iterations[0]["steps"] == 0
    assert sol.stationarity <= 1e-15
    mixed = treegen.product_market([[1.2, 0.85], [1.2, 1.0, 0.85], [1.1, 0.9]])
    solve_dual(mixed, exp_pair, np.linspace(-1.0, 1.0, mixed.n_leaves))
    assert calls == [2]


def _row_vertices(b, x):
    """Each row's valid one-step vertices (g, V, m), by geometry's
    enumeration over its children with b > -inf, the last repeated past a
    row's own: the weights the max-plus start of ``_lse_min`` scores."""
    rows = []
    for bi, xi in zip(b, x):
        on = np.flatnonzero(bi > -np.inf)
        _, w_on = geometry._one_step_vertices(xi[None, on])
        rows.append(np.zeros((len(w_on), len(bi))))
        rows[-1][:, on] = w_on
    width = max(len(w) for w in rows)
    return np.stack([np.concatenate([w, np.repeat(w[-1:], width - len(w), axis=0)])
                     for w in rows])


def _lse_values(monkeypatch):
    """Records f at every point ``_lse_min`` evaluates on its whole batch
    (its normalized b, one array per call), in order."""
    values, batch = [], []

    def point(b, x, k, _fn=dual._lse_point):
        out = _fn(b, x, k)
        if not batch:
            batch.append(b)
        if b is batch[0]:
            values.append(out[0])
        return out
    monkeypatch.setattr(dual, "_lse_point", point)
    return values


def _assert_descends(values):
    for f0, f1 in zip(values, values[1:]):
        assert np.all(f1 <= f0 + 4e-16 * (1.0 + np.abs(f0)))


def test_every_lse_min_step_lowers_f_and_the_max_plus_start_saves_steps(monkeypatch):
    # no step is tried: each lowers f (to rounding) by its clip.  From 40
    # off the minimizer every first step is clipped, and the max-plus start
    # from the rows' vertices ends the batch in a few steps, where k0 alone
    # crawls down the exponential tails for 83
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (40, 4, 1))
    x[:, :2, 0] = [1.0, -1.0]
    b = rng.uniform(-1.0, 1.0, (40, 4))
    f, k, _ = dual._lse_min(b, x, np.zeros((40, 1)))
    verts = _row_vertices(b, x)
    for start, most in ((k + 1e-2, 3), (k + 40.0, 6)):
        with monkeypatch.context() as mp:
            values = _lse_values(mp)
            f1, _, steps = dual._lse_min(b, x, start, 0.0, lambda rows: verts[rows])
        assert 1 <= steps <= most and len(values) == 1 + steps
        _assert_descends(values)
        assert np.abs(f1 - f).max() <= 1e-15 * np.abs(f).max()
    with monkeypatch.context() as mp:
        values = _lse_values(mp)
        f2, _, crawl = dual._lse_min(b, x, k + 40.0)
    _assert_descends(values)
    assert crawl >= 10 * steps and np.abs(f2 - f).max() <= 1e-15 * np.abs(f).max()


def _newton_systems(rng, g, d):
    """Newton systems of the log-space pass: random softmax weights over 4
    children and increments, a quarter of the rows with the weights on one
    child, for d = 2 a quarter with collinear increments, the Hessians
    lifted by 1e-16 to 1e-3 of their trace (the pass lifts by 1e-15 of
    scale^2), and every fifth row done (the identity and a zero right-hand
    side).  Returns the systems, the right-hand sides and the rows that are
    done."""
    x = rng.uniform(-1.0, 1.0, (g, 4, d))
    w = rng.dirichlet(np.ones(4), g)
    w[::4] = [1.0 - 3e-12, 1e-12, 1e-12, 1e-12]
    if d == 2:
        x[1::4, :, 1] = 2.0 * x[1::4, :, 0]
    mean = (w[:, None, :] @ x)[:, 0, :]
    dev = x - mean[:, None, :]
    hess = (w[:, :, None] * dev).swapaxes(1, 2) @ dev
    lift = 10.0 ** rng.uniform(-16.0, -3.0, g) * np.trace(hess, axis1=1, axis2=2)
    done = np.arange(g) % 5 == 0
    a = np.where(done[:, None, None], np.eye(d), hess + lift[:, None, None] * np.eye(d))
    return a, np.where(done[:, None], 0.0, mean), done


def _lapack_solve(a, rhs):
    return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_solves_meet_lapack(d):
    # Cramer's rule against LU with partial pivoting, to rounding relative
    # to each system's condition number; rows that are done step by 0
    a, rhs, done = _newton_systems(np.random.default_rng(d), 400, d)
    got, want = dual._lse_solve(a, rhs), _lapack_solve(a, rhs)
    assert np.all(got[done] == 0.0)
    err = np.abs(got - want).max(axis=1)
    assert np.all(err <= 8.0 * np.finfo(float).eps * np.linalg.cond(a) * np.abs(want).max(axis=1))


def test_cramer_solves_unsymmetric_systems():
    # the Hessians are symmetric only to rounding, so the 2 x 2 branch must
    # solve the system itself, not its transpose
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (200, 2, 2)) + 3.0 * np.eye(2)
    a += rng.uniform(0.0, 1.0, 200)[:, None, None] * np.eye(2)
    rhs = rng.uniform(-1.0, 1.0, (200, 2))
    got, want = dual._lse_solve(a, rhs), _lapack_solve(a, rhs)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_lse_min_takes_the_lapack_kernels_steps(d, seed, monkeypatch):
    # the closed-form kernel, with every np.linalg function refused, against
    # the same kernel solving by LAPACK: the same steps and minima, on
    # batches started near and far from their minimizers; each row's
    # increments have mean 0 under positive weights, so it has a minimum
    rng = np.random.default_rng(seed)
    g, m = 60, 5
    x = rng.uniform(-1.0, 1.0, (g, m, d)) * 10.0 ** rng.uniform(-1.0, 2.0, (g, 1, 1))
    b = rng.uniform(-3.0, 3.0, (g, m))
    b[::7, -1] = -np.inf                   # padding
    x[::7, -1] = 0.0
    w = rng.dirichlet(np.ones(m), g) * np.isfinite(b)
    x -= np.where(np.isfinite(b)[..., None], (w[:, None, :] @ x) / w.sum(axis=1)[:, None, None],
                  0.0)
    k0 = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 1.0, (g, 1)), (g, d))
    verts = _row_vertices(b, x)

    with monkeypatch.context() as mp:
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                mp.setattr(np.linalg, name, None)
        f, k, steps = dual._lse_min(b, x, k0, 0.0, lambda rows: verts[rows])
    monkeypatch.setattr(dual, "_lse_solve", _lapack_solve)
    f1, k1, steps1 = dual._lse_min(b, x, k0, 0.0, lambda rows: verts[rows])
    assert steps == steps1 >= 1
    assert np.all(np.abs(f - f1) <= 1e-15 * np.maximum(np.abs(f1), 1.0))


def test_rows_at_an_exact_optimum_raise_no_warning():
    # zero gradient and zero Hessian: increments all 0, or the weights on a
    # child without an increment, the others underflowing; such rows stand
    # still beside a row that steps, and divide nothing by zero
    b = np.array([[0.0, 0.3, -0.2], [0.0, -1e4, -1e4], [0.1, -0.5, 0.2]])
    x = np.array([[[0.0], [0.0], [0.0]], [[0.0], [1.0], [-1.0]], [[1.0], [-1.0], [0.5]]])
    k0 = np.array([[0.7], [0.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, k, steps = dual._lse_min(b, x, k0)
        mean = dual._lse_point(b, x, k)[2]   # the gradient at the minimizers
    assert steps >= 1 and np.array_equal(k[:2], k0[:2])
    assert f[0] == pytest.approx(np.logaddexp.reduce(b[0]), rel=1e-15) and f[1] == 0.0
    assert np.abs(mean[2]).max() <= 1e-15


# three assets and five children a node: both levels are Newton batches,
# each solved through np.linalg.solve
_THREE_ASSETS = [[(1.2, 1.1, 0.9), (0.8, 1.0, 1.1), (1.0, 0.85, 1.2), (1.1, 1.15, 0.8),
                  (0.9, 0.9, 1.0)]] * 2


def _sweep_trees():
    # d = 1, 2 and 3; padded children (widths 3, 2, 4), dead children and
    # the caterpillar; the two-asset moves (1.2, 1.1) and (0.9, 0.95) are an
    # opposite pair, whose vertex levels a line, and (1.0, 1.0) a zero
    # increment, whose vertex levels nothing
    two = [[(1.2, 1.1), (1.0, 0.8), (0.85, 1.05), (0.9, 0.95)]] * 2
    return {
        "1a": treegen.product_market([[1.2, 0.97, 0.85]] * 3),
        "widths": treegen.product_market([[1.2, 0.97, 0.85], [1.1, 0.95], [1.3, 1.05, 0.9, 0.7]]),
        "2a": treegen.product_market(two, s0=(1.0, 1.0)),
        "2a/1e-12": _requoted(treegen.product_market(two, s0=(1.0, 1.0)), 1, 1e-12),
        "2a/1e12": _requoted(treegen.product_market(
            [[(1.2, 1.1), (0.9, 1.15), (1.0, 0.8), (1.1, 0.95)]] * 2, s0=(1.0, 1.0)), 0, 1e12),
        "2a/zero": treegen.product_market(
            [[(1.2, 1.1), (1.0, 1.0), (0.9, 0.95), (0.85, 1.05), (1.1, 0.8)]] * 2, s0=(1.0, 1.0)),
        "3a": treegen.product_market(_THREE_ASSETS, s0=(1.0, 1.0, 1.0)),
        "dead leaf": treegen.dead_leaf_market(),
        "caterpillar": treegen.caterpillar_market(),
    }


def test_lse_min_descends_to_the_damped_oracles_minima_across_the_box(monkeypatch):
    # aim 3's box: gamma 0.5 and 10, endowments at volumes 1e-4 to 1e4,
    # units 1e-12 and 1e12.  Every batch of the pass descends at every step
    # (to rounding) and stops inside the cap at its first-order condition.
    # Its minima are the line-searching oracle's to 1e-15 of the size of
    # their exponents b - x.k (up to 1e5 at volume 1e4) where the oracle
    # meets that condition too, and no higher where it stalls (46 above
    # the minimum on one two-asset row at volume 1e2).  Minimizers are
    # compared by that condition: on a line of minima (an opposite pair)
    # the oracle's own gradient stops at up to 4e-5
    checked = []

    def stationary(b, x, k):
        _, _, mean, xk = lse_oracle.point(b - b.max(axis=1, keepdims=True), x, k)
        size = np.abs(xk).max(axis=1)
        scale = np.abs(x).max(axis=(1, 2))
        return np.abs(mean).max(axis=1) <= scale * (1e-13 + 1e-15 * size), size

    def compared(b, x, k0, null, vertices, _fn=dual._lse_min):
        with monkeypatch.context() as mp:
            values = _lse_values(mp)
            f, k, steps = _fn(b, x, k0, null, vertices)
        _assert_descends(values)
        done, size = stationary(b, x, k)
        want, k_want, _ = lse_oracle.damped_lse_min(b, x, k0)
        tol = 1e-15 * (1.0 + np.abs(want) + size)
        met = stationary(b, x, k_want)[0]
        assert done.all() and np.all(f <= want + tol) and np.all((np.abs(f - want) <= tol)[met])
        checked.append(steps)
        return f, k, steps
    monkeypatch.setattr(dual, "_lse_min", compared)
    seed = 0
    for name, tree in _sweep_trees().items():
        for gamma in (0.5, 10.0):
            for volume in (1e-4, 1.0, 1e2, 1e4):
                e = np.random.default_rng(seed).uniform(-volume, volume, (2, tree.n_leaves))
                seed += 1
                dual._log_partition(tree, gamma, e)
    assert len(checked) >= 90 and max(checked) <= 30


@pytest.mark.parametrize("gamma", [0.5, 10.0])
def test_the_max_plus_start_cuts_large_volume_steps_by_a_quarter(gamma, monkeypatch):
    # ROADMAP item 20 on a small trinomial at volume 1e4: rows switch to the
    # start, and the summed steps fall by at least a quarter against the
    # line-searching oracle from k0 alone; without the start the clipped
    # steps crawl down the exponential tails into the cap
    tree = treegen.product_market([[1.2, 0.97, 0.85]] * 3)
    e = 1e4 * np.random.default_rng(0).uniform(-1.0, 1.0, (1, tree.n_leaves))
    taken = []

    def switched(b, x, k0, null, vertices, _fn=dual._lse_min):
        rows = []
        with monkeypatch.context() as mp:
            values = _lse_values(mp)
            out = _fn(b, x, k0, null, lambda r: rows.append(r) or vertices(r))
        b = b - b.max(axis=1, keepdims=True)
        for r in rows:
            k = dual._max_plus(b[r], x[r], vertices(r))
            taken.append(int((dual._lse_point(b[r], x[r], k)[0] < values[0][r]).sum()))
        return out
    with monkeypatch.context() as mp:
        mp.setattr(dual, "_lse_min", switched)
        got = dual._log_partition(tree, gamma, e)
    with monkeypatch.context() as mp:
        mp.setattr(dual, "_lse_min", lambda b, x, k0, null, vertices:
                   lse_oracle.damped_lse_min(b, x, k0))
        alone = dual._log_partition(tree, gamma, e)
    assert len(taken) == 3 and sum(taken) > 0
    assert got[-1] <= 0.75 * alone[-1]
    assert np.abs(got[0] - alone[0]).max() <= 1e-14 * np.abs(alone[0]).max()
    with monkeypatch.context() as mp:
        mp.setattr(dual, "_lse_min", lambda b, x, k0, null, vertices, _fn=dual._lse_min:
                   _fn(b, x, k0, null))
        with pytest.raises(NonconvergedError, match="rows"):
            dual._log_partition(tree, gamma, e)


def _count_lapack_solves(monkeypatch):
    calls, real = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    return calls


def test_three_asset_batches_keep_the_lapack_solve(exp_pair, monkeypatch):
    # steps and values pinned from the kernel that solved every batch by
    # LAPACK and contracted by einsum
    tree = treegen.product_market(_THREE_ASSETS, s0=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(0)
    e, claim = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 2.0, tree.n_leaves)
    calls = _count_lapack_solves(monkeypatch)
    sol = solve_dual(tree, exp_pair, e)
    assert len(calls) >= 2 and sol.iterations[0]["steps"] == 7
    rep = price_report(tree, exp_pair, e, claim)
    assert sol.value == pytest.approx(0.9215350694853266, rel=1e-15)
    assert rep.bid == pytest.approx(1.1533587448825677, rel=1e-15)
    assert rep.offer == pytest.approx(1.2588543674886339, rel=1e-15)


@pytest.mark.parametrize("moves, s0", [
    ([[1.2, 0.95, 0.85]] * 3, 1.0),
    ([[1.3, 1.0, 0.8]] * 3, 1.0),
    ([[(1.2, 1.1), (1.0, 0.8), (0.85, 1.05), (0.9, 0.95)]] * 3, (1.0, 1.0)),
], ids=["one-asset", "up-flat-down", "two-asset"])
def test_exponential_solves_of_one_or_two_assets_call_no_lapack_solve(moves, s0, exp_pair,
                                                                        monkeypatch):
    # the log-space pass solves its d <= 2 Newton systems in closed form
    tree = treegen.product_market(moves, s0=s0)
    rng = np.random.default_rng(1)
    e, claim = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 2.0, tree.n_leaves)
    geometry._support_structure(tree)
    calls = _count_lapack_solves(monkeypatch)
    assert solve_dual(tree, exp_pair, e).stationarity <= 1e-12
    rep = price_report(tree, exp_pair, e, claim)
    assert rep.bid <= rep.offer
    assert calls == []


def _two_power_instance(seed, n_assets):
    """A random tree with ``n_assets`` assets, a two-power pair and an
    endowment uniform on [-3, 3], all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=n_assets)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 3.0)), 1.0)
    return tree, pair, rng.uniform(-3.0, 3.0, size=tree.n_leaves)


@st.composite
def _two_power_instances(draw):
    return _two_power_instance(draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1, 2])))


@settings(max_examples=25, deadline=None)
@given(_two_power_instances())
# every charged weight is above 3.3e-3, yet the grid's zooms end at 1.864
# against the optimum 1.516 that the primal oracle finds too
@example(_two_power_instance(39892, 1))
# a unique martingale measure and an optimal strategy of norm ~2.5e4: the
# exact optimum (40 digits, a 1-D minimization over the mass) is
# 3.6831404213551026; the core is 4.5e-15 above it, and the grid sits
# 3.8e-14 above it only once its measure is refined to rounding
@example(_two_power_instance(760558, 2))
def test_newton_core_meets_both_oracles(instance):
    # weak duality puts the optimum between the primal oracle's best
    # strategy and the grid's best measure; the concave primal's maximum
    # pins it, while the grid's zooms can stop off the minimizer by
    # percents, as in the exponential grid test, so the grid bounds the
    # optimum from above only where the primal oracle does not run
    tree, pair, e = instance
    sol = solve_dual(tree, pair, e)
    tol = 1e-12 * (1.0 + abs(sol.value))
    q = sol.q_hat
    close = q[q > 0].min() > 1e-3
    primal_runs = oracle.strategy_dimension(tree) <= oracle.PRIMAL_DIM_LIMIT
    if oracle.polytope_dimension(tree) <= oracle.GRID_DIM_LIMIT:
        grid = oracle.brute_force_dual(tree, pair, e, mode="grid")
        assert sol.value <= grid + tol
        if not primal_runs:
            assert not close or grid - sol.value <= 1e-5 * (1.0 + abs(sol.value))
    if primal_runs:
        # the primal is concave: a few starts find its maximum
        primal = oracle.brute_force_primal(tree, pair, e, n_starts=4)
        assert sol.value >= primal - tol
        assert not close or sol.value - primal <= 1e-5 * (1.0 + abs(sol.value))


@pytest.mark.parametrize("seed", range(8))
def test_stacked_newton_core_rows_equal_single_rows(seed):
    # rows share the kernel's loop, not their arithmetic: each row of a
    # stack of free (NaN mass) and fixed-mass rows equals its own single-row
    # call, whichever step the others stop at, and a row whose utility
    # overflows fails alone
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 3.0)), 1.0)
    A, p = build_constraints(tree), tree.leaf_probability_array
    live = geometry._support_structure(tree).mask
    e = rng.uniform(-3.0, 3.0, size=(5, tree.n_leaves))
    e[4, 0] = -1e300
    mass = np.array([np.nan, 2.0, 0.5, np.nan, 1.0])
    # rows 1 and 3 start at their optima, the others cold
    start = np.zeros_like(e)
    start[1] = dual._core_solutions(tree, pair, e[1:2], np.log([2.0]))[0].mu
    start[3] = dual._core_solutions(tree, pair, e[3:4])[0].mu
    out = dual._newton_core(A, p, e, pair, live, mass=mass, start=start)
    errors, steps = out[-1], out[4]
    assert errors[:4] == [None] * 4 and isinstance(errors[4], NonconvergedError)
    assert steps[0] > steps[3] and steps[2] > steps[1]
    for j in range(4):
        one = dual._newton_core(A, p, e[j:j + 1], pair, live, mass=mass[j:j + 1],
                                start=start[j:j + 1])
        assert one[-1] == [None]
        for a, b in zip(out[:-1], one[:-1]):
            assert np.array_equal(a[j], b[0], equal_nan=True)
    free = dual._newton_core(A, p, e[:1], pair, live)
    assert all(np.array_equal(a[0], b[0], equal_nan=True)
               for a, b in zip(out[:-1], free[:-1]))


def test_tri1_value_with_a_large_claim_is_exact(tri1):
    # claim 100 on leaf a: the optimum charges leaves a and c with ~e^-33
    # relative to b; reference value computed with 60-digit arithmetic
    sol = solve_dual(tri1, exponential_utility(1.0, 2.0),
                     {"a": 100.3, "b": -0.2, "c": 0.1})
    assert sol.value == pytest.approx(1.59286574727994163, rel=0, abs=2e-15)


def _random_exponential_instance(k, gamma, scale):
    """Instance k of the random trees of seed 23 with e ~ U[-scale, scale]."""
    rng = np.random.default_rng(23)
    for i in range(k + 1):
        tree = treegen.random_market(rng, max_periods=3, n_assets=1 + i % 2)
        e = rng.uniform(-scale, scale, size=tree.n_leaves)
    return tree, exponential_utility(gamma, 2.0), e


@pytest.mark.parametrize("gamma,scale", [(10.0, 3.0), (3.0, 20.0)])
def test_maximal_support_holds_on_exact_exponential_optima(gamma, scale):
    # the log-space pass charges every leaf, some with masses far below
    # 1e-12 of the total, and a charged leaf is one with positive mass
    tree, pair, e = _random_exponential_instance(6, gamma, scale)
    sol = solve_dual(tree, pair, e)
    assert 0 < sol.mu.min() < 1e-12 * (1 + sol.mass)
    check = _maximal_support_check(tree, pair, e)
    assert check.passed and check.residual == 0.0
    assert int(check.detail.split()[0]) > 0


def test_maximal_support_flags_an_uncharged_vertex_leaf(tri1, exp_pair, monkeypatch):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    solve = checks.solve_dual

    def uncharged(*args):
        # the optimum charges leaf a nowhere: its log mass there is -inf,
        # so neither mu nor q_hat charges it
        sol = solve(*args)
        log_q = sol._log_q.copy()
        log_q[0] = -np.inf
        return dataclasses.replace(sol, _log_q=log_q)

    monkeypatch.setattr(checks, "solve_dual", uncharged)
    assert tri1.leaf_ids[0] == "a"
    assert vertex_enumerate(tri1)[:, 0].max() > -np.inf
    # one leaf that a vertex charges and the optimum does not
    check = _maximal_support_check(tri1, exp_pair, e)
    assert check.residual == 1.0 and not check.passed


@pytest.mark.parametrize("k", [24, 74, 82])
def test_newton_core_resolves_masses_far_apart(k):
    # gamma 3 and endowments on [-20, 20]: leaf masses 1e-33..1e-49 of the
    # total, which a constrained Newton solve on the masses did not resolve;
    # the core, cold-started, matches the log-space pass
    tree, pair, e = _random_exponential_instance(k, 3.0, 20.0)
    sol = solve_dual(tree, pair, e)
    value, q = _dense_core(tree, pair, e)
    assert value == pytest.approx(sol.value, rel=1e-12, abs=0)
    assert np.abs(sol.q_hat - q).max() <= 1e-9


# -- the Newton step: one batched QR on the tree's strategy basis ------------------


def _lstsq_step(J, T):
    """Oracle of ``dual._qr_fits``: per row, the minimum-norm least-squares
    fits of the columns of T by those of J from one ``lstsq`` (an SVD),
    blind to singular values below 1e-12 of the largest, so that it needs
    no column basis."""
    return np.stack([np.linalg.lstsq(j, t, rcond=1e-12)[0] for j, t in zip(J, T)]
                    ).reshape(len(J), J.shape[2], T.shape[2])


def _cash_curvature(A, s):
    """The QR oracle of ``DualSolution.mass_curvature`` off the exponential
    family: W''(y) = [H^-1]_xx = 1/|z|^2 at a Newton-core optimum, J =
    diag(s) [A', 1], s = sqrt(mu A(W)), A (k, n); z = s off the strategy
    columns, from one dense QR (``dual._scaled_fits``)."""
    z = dual._scaled_fits(s[None], A.T[None], s[None, :, None])[2][0]
    return 1.0 / float(z @ z)


def _w2_at(A, p, e, pair, live, mu):
    """W''(y) of each row's optimum mu (r, L) from :func:`_cash_curvature`
    on the strategy rows ``A``."""
    mu, p, e, A = mu[:, live], p[live], e[:, live], A[:, live]
    ra = dual._risk_aversion_at(pair, -pair.v_prime(mu / p), e)
    return np.array([_cash_curvature(A, s) for s in np.sqrt(mu * ra)])


def _assert_w2_meets_the_qr_oracle(sols):
    """Each optimum's ``mass_curvature`` against :func:`_w2_at` on the tree's
    strategy basis at its mu, to 1e-12 relative."""
    tree = sols[0].tree
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    want = _w2_at(A, tree.leaf_probability_array, np.array([s._endow_arr for s in sols]),
                  sols[0].pair, geo.mask, np.array([s.mu for s in sols]))
    got = np.array([s.mass_curvature for s in sols])
    assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)


def _assert_core_meets_the_lstsq_oracle(tree, pair, e, mass=None, start=None):
    """The core on the tree's strategy basis against the core that steps by
    ``_lstsq_step`` on every column: the same mu (relative to its mass),
    value and W'' at each run's optimum (:func:`_w2_at`, the oracle's under
    ``_lstsq_step`` too) to 1e-12 relative, the same steps and errors."""
    A, p = build_constraints(tree), tree.leaf_probability_array
    geo = geometry._support_structure(tree)
    basis = dual._strategy_basis(geo)
    got = dual._newton_core(A[basis], p, e, pair, geo.mask, mass=mass, start=start)
    ok = np.array([err is None for err in got[-1]])
    w2 = _w2_at(A[basis], p, e[ok], pair, geo.mask, got[0][ok])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "_qr_fits", _lstsq_step)
        want = dual._newton_core(A, p, e, pair, geo.mask, mass=mass, start=start)
        w2_o = _w2_at(A, p, e[ok], pair, geo.mask, want[0][ok])
    assert [type(err) for err in got[-1]] == [type(err) for err in want[-1]]
    assert np.array_equal(got[4], want[4])
    mu, mu_o = got[0][ok], want[0][ok]
    assert (np.abs(mu - mu_o).max(axis=1) <= 1e-12 * mu_o.sum(axis=1)).all()
    for a, b in ((got[2][ok], want[2][ok]), (w2, w2_o)):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        on = ~np.isnan(b)
        assert (np.abs(a - b)[on] <= 1e-12 * np.abs(b[on])).all()


@pytest.mark.parametrize("seed", range(6))
def test_qr_step_meets_the_lstsq_oracle_on_random_two_power_trees(seed):
    # free and fixed-mass rows, one warm-started, on one- and two-asset trees
    rng = np.random.default_rng(100 + seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 3.0)), 1.0)
    e = rng.uniform(-3.0, 3.0, size=(4, tree.n_leaves))
    start = np.zeros_like(e)
    start[2] = dual._core_solutions(tree, pair, e[2:3], np.log([0.5]))[0].mu
    _assert_core_meets_the_lstsq_oracle(tree, pair, e, np.array([np.nan, 2.0, 0.5, np.nan]),
                                        start)


@pytest.mark.parametrize("k", [24, 74, 82])
def test_qr_step_meets_the_lstsq_oracle_on_masses_far_apart(k):
    tree, pair, e = _random_exponential_instance(k, 3.0, 20.0)
    _assert_core_meets_the_lstsq_oracle(tree, pair, e[None])


def _collinear_market():
    # both root increments lie on one line; the nodes below have rank 2
    return treegen.product_market([[(1.2, 1.05), (0.9, 0.975)],
                                   [(1.3, 1.2), (0.8, 0.85), (1.0, 1.05)]], s0=(1.0, 2.0))


def _fair_candidate_bin1(tp_pair):
    # bin1 and a fair candidate whose increments are the asset's up to rounding
    tree = treegen.bin1()
    sol = solve_dual(tree, tp_pair, [0.4, -1.1])
    cand = optimal_measure_price_process(sol, [0.7, 0.2])
    return market._with_assets(tree, ["candidate0"], cand[:, None])


@pytest.mark.parametrize("case", ["dead branch", "collinear", "fair candidate"])
def test_qr_step_meets_the_lstsq_oracle_on_dependent_columns(case, tp_pair, exp_pair):
    rng = np.random.default_rng(7)
    if case == "dead branch":   # only the exponential pair has V(0) finite
        tree, pairs = treegen.product_market([[2.0, 1.0], [1.5, 0.5]]), [exp_pair]
    elif case == "collinear":
        tree, pairs = _collinear_market(), [exp_pair, tp_pair]
    else:
        tree, pairs = _fair_candidate_bin1(tp_pair), [tp_pair]
    assert not dual._strategy_basis(geometry._support_structure(tree)).all()
    e = rng.uniform(-2.0, 2.0, size=(3, tree.n_leaves))
    for pair in pairs:
        _assert_core_meets_the_lstsq_oracle(tree, pair, e, np.array([np.nan, 1.5, 0.7]))


def _basis_trees(tp_pair):
    rng = np.random.default_rng(3)
    yield from (treegen.random_market(rng, max_periods=3, n_assets=1 + i % 2)
                for i in range(12))
    yield treegen.dead_leaf_market()
    yield treegen.product_market([[2.0, 1.0], [1.5, 0.5]])
    yield _collinear_market()
    yield _fair_candidate_bin1(tp_pair)
    # three assets on two children, one of them a copy of another
    yield treegen.product_market([[(1.2, 0.8, 1.2), (0.9, 1.1, 0.9)]])


def test_strategy_basis_keeps_the_rank_of_each_nodes_live_increments(tp_pair):
    # per live non-leaf node, an SVD of the increments over its live
    # children, each asset scaled by its largest, counts the kept columns,
    # and the kept ones have full rank; a dead node keeps none
    for tree in _basis_trees(tp_pair):
        lay, d = tree.layout, tree.n_assets
        geo = geometry._support_structure(tree)
        basis = dual._strategy_basis(geo).reshape(-1, d)
        charged = tree.subtree_sums(np.exp(geo.log_interior[-tree.n_leaves:])) > 0
        kids = np.append(lay.first_child, len(lay.ids))
        for k in range(lay.level_starts[-2]):
            live = kids[k] + np.flatnonzero(charged[kids[k]:kids[k + 1]])
            if not charged[k] or live.size < 2:
                assert not basis[k].any()
                continue
            x = lay.prices[live] - lay.prices[k]
            x = x / np.where(np.abs(x).max(axis=0) > 0, np.abs(x).max(axis=0), 1.0)
            rank = np.linalg.matrix_rank(x, tol=geometry._TOL)
            assert basis[k].sum() == rank
            assert np.linalg.matrix_rank(x[:, basis[k]], tol=geometry._TOL) == rank


def test_a_kept_column_without_weight_fails_its_row_alone():
    # a start that is zero on a live leaf leaves the core at c = 0, where U'
    # underflows on both leaves of the first time-1 node, so its column has
    # no weight: that row fails typed, the other row of the stack converges
    # as it does alone, and no singular triangle reaches the solve
    tree = treegen.product_market([[1.2, 0.9], [1.2, 0.9]])
    pair = exponential_utility(1.0, 2.0)
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    p = tree.leaf_probability_array
    e = np.array([[800.0, 800.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    start = np.array([[0.0, 0.3, 0.3, 0.4], [0.0, 0.3, 0.3, 0.4]])
    mu, _, value, _, steps, errors = dual._newton_core(A, p, e, pair, geo.mask, start=start)
    assert isinstance(errors[0], NonconvergedError) and errors[1] is None
    assert value[1] == pytest.approx(1.107086908267888, rel=1e-14, abs=0)
    assert steps[1] == 5
    mu_alone, _, value_alone, *_ = dual._newton_core(A, p, e[1:], pair, geo.mask,
                                                     start=start[1:])
    assert value[1] == value_alone[0]
    assert np.array_equal(mu[1], mu_alone[0])


def _qr_fits_by_concatenation(J, T):
    """Oracle of ``dual._qr_fits``: [J | T] and its padding rows joined by
    ``concatenate``, R by ``qr(mode="r")`` (``triu`` of the factored
    matrix), then the same solve on its leading triangle."""
    r, n, k = J.shape
    m = T.shape[2]
    zero = ~J.any(axis=1)
    M = np.concatenate((J, T), axis=2)
    if zero.any() or n < k + m:
        pad = np.zeros((r, k + max(k + m - n, 0), k + m))
        pad[:, :k, :k] = zero[:, :, None] * np.eye(k)
        M = np.concatenate((M, pad), axis=1)
    R = np.linalg.qr(M, mode="r")
    tri, rhs = R[:, :k, :k], R[:, :k, k:]
    try:
        return np.linalg.solve(tri, rhs)
    except np.linalg.LinAlgError:
        singular = ~np.diagonal(tri, axis1=1, axis2=2).all(axis=1)[:, None, None]
        return np.linalg.solve(np.where(singular, np.eye(k), tri), np.where(singular, np.nan, rhs))


@pytest.mark.parametrize("seed", range(16))
def test_qr_fits_meet_the_concatenated_form_bit_for_bit(seed):
    # stacks of 1-4 rows, 1-5 strategy columns scaled over 16 decades and
    # 1-2 fitted columns, with n below k + m (padding), at k + m and above;
    # zero columns in some rows and, in every other stack, a singular row
    rng = np.random.default_rng(seed)
    r, k, m = 1 + seed % 4, 1 + seed % 5, 1 + seed % 2
    for n in (max(k + m - 2, 1), k + m, 3 * (k + m)):
        J = rng.normal(size=(r, n, k)) * 10.0 ** rng.uniform(-8, 8, size=(1, 1, k))
        T = rng.normal(size=(r, n, m))
        J[rng.uniform(size=r) < 0.4, :, rng.integers(k)] = 0.0
        if seed % 2 and k >= 2 and n >= 2:
            j = rng.integers(r)
            J[j] = 0.0
            J[j, 0, :2] = 1.0
            J[j, 1:, 2:] = rng.normal(size=(n - 1, k - 2))
        got, want = dual._qr_fits(J, T), _qr_fits_by_concatenation(J, T)
        assert got.shape == (r, k, m)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_newton_core_evaluates_each_point_in_one_closed_form_pass(warm):
    # U, U' and A come from the pair's one pass, once per point (the start
    # and each trial); A alone is read only at the warm start's wealth
    # I(q/p), before the loop
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    base = two_power_utility(0.5, 1.0, 1.0)
    calls, seen = collections.Counter(), []

    def counted(name, f):
        def g(x):
            calls[name] += 1
            if name == "u_point":
                seen.append(np.array(x).tobytes())
            return f(x)
        return g

    pair = dataclasses.replace(base, **{name: counted(name, getattr(base, name))
                                        for name in ("u", "u_prime", "risk_aversion", "u_point")})
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    e = np.random.default_rng(4).uniform(-1.0, 1.0, (3, tree.n_leaves))
    start = np.tile(solve_dual(tree, base, e[0]).mu, (3, 1)) if warm else None
    out = dual._newton_core(A, tree.leaf_probability_array, e, pair, geo.mask,
                            mass=np.array([math.nan, 1.3, 0.8]), start=start)
    assert out[-1] == [None] * 3
    assert calls["u"] == calls["u_prime"] == 0
    assert calls["risk_aversion"] == (1 if warm else 0)
    assert calls["u_point"] == len(set(seen)) >= out[4].max() + 1
    plain = dual._newton_core(A, tree.leaf_probability_array, e, base, geo.mask,
                              mass=np.array([math.nan, 1.3, 0.8]), start=start)
    for a, b in zip(out[:-1], plain[:-1]):
        assert np.array_equal(a, b, equal_nan=True)


def test_the_curve_rows_factor_no_curvature(monkeypatch):
    # one QR for the start fit and one per Newton step, for a curve and a
    # fixed-mass solve alike; W'' is read off the optimum on first use, by
    # the backward pass with no QR, and kept
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    pair = two_power_utility(0.5, 1.0, 1.0)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    sol = solve_dual(tree, pair, e)
    qrs, steps, real_qr, real_core = [], [], dual._qr_fits, dual._newton_core

    def core(*args, **kwargs):
        out = real_core(*args, **kwargs)
        steps.append(int(out[4].max()))
        return out

    monkeypatch.setattr(dual, "_qr_fits", lambda J, T: qrs.append(len(J)) or real_qr(J, T))
    monkeypatch.setattr(dual, "_newton_core", core)
    dual_value_curve(sol, log_masses=sol._log_mass + np.log([0.5, 0.75, 1.0, 1.5, 2.0]))
    assert steps[-1] > 0 and len(qrs) == 1 + steps[-1]
    qrs.clear()
    fixed = solve_dual_fixed_mass(tree, pair, e, log_mass=sol._log_mass + math.log(1.5))
    assert len(qrs) == 1 + steps[-1]
    w2 = fixed.mass_curvature
    assert w2 > 0 and len(qrs) == 1 + steps[-1]
    assert fixed.mass_curvature is w2 and len(qrs) == 1 + steps[-1]   # cached


def test_qr_fits_give_a_zero_column_no_fit():
    # the padding row leaves the other columns' fits as without the column
    rng = np.random.default_rng(0)
    J, T = rng.normal(size=(3, 9, 4)), rng.normal(size=(3, 9, 2))
    J[1, :, 2] = 0.0
    got = dual._qr_fits(J, T)
    assert got[1, 2].tolist() == [0.0, 0.0]
    keep = [0, 1, 3]
    assert np.allclose(got[1, keep], _lstsq_step(J[1:2, :, keep], T[1:2])[0],
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(got[[0, 2]], _lstsq_step(J[[0, 2]], T[[0, 2]]), rtol=1e-12, atol=1e-14)


def test_qr_fits_fail_a_singular_row_alone():
    # two equal columns leave an exact zero on the triangle's diagonal: that
    # row's fits are NaN, and the other rows' equal their fits alone
    rng = np.random.default_rng(1)
    J, T = rng.normal(size=(3, 9, 3)), rng.normal(size=(3, 9, 2))
    J[1] = 0.0
    J[1, 0, :2] = 1.0
    J[1, 1:, 2] = rng.normal(size=8)
    got = dual._qr_fits(J, T)
    assert np.isnan(got[1]).all()
    for j in (0, 2):
        assert np.array_equal(got[j], dual._qr_fits(J[j:j + 1], T[j:j + 1])[0])


def test_a_singular_newton_step_fails_its_row_alone(monkeypatch):
    # a row whose Newton system turns singular after its start gets NaN fits
    # from _qr_fits: it fails with a NonconvergedError naming the singular
    # system, and the other row converges as it does alone
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    pair = two_power_utility(0.5, 1.0, 1.0)
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    p = tree.leaf_probability_array
    e = np.random.default_rng(2).uniform(-1.0, 1.0, (2, tree.n_leaves))
    calls, real = [], dual._qr_fits

    def second_step_singular_on_row_0(J, T):
        fits = real(J, T)
        calls.append(1)
        if len(calls) == 2 and len(fits) == 2:
            fits[0] = np.nan
        return fits
    monkeypatch.setattr(dual, "_qr_fits", second_step_singular_on_row_0)
    mu, _, value, _, _, errors = dual._newton_core(A, p, e, pair, geo.mask)
    assert isinstance(errors[0], NonconvergedError)
    assert "singular Newton system" in str(errors[0]) and errors[1] is None
    monkeypatch.setattr(dual, "_qr_fits", real)
    mu_alone, _, value_alone, *_ = dual._newton_core(A, p, e[1:], pair, geo.mask)
    assert value[1] == value_alone[0]
    assert np.array_equal(mu[1], mu_alone[0])


@pytest.mark.parametrize("r", [1, 5])
def test_newton_core_factors_once_per_step_whatever_the_rows(r, monkeypatch):
    # one QR per Newton step over all rows, plus one for the warm start,
    # whether the stack holds 1 row or 5
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    pair = two_power_utility(0.5, 1.0, 1.0)
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    e = np.tile(np.random.default_rng(1).uniform(-1.0, 1.0, tree.n_leaves), (r, 1))
    warm = solve_dual(tree, pair, e[0]).mu
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for mass, start, extra in ((None, None, 0), (np.full(r, 1.3), None, 0),
                               (None, np.tile(warm, (r, 1)), 1)):
        calls.clear()
        out = dual._newton_core(A, tree.leaf_probability_array, e, pair, geo.mask,
                                mass=mass, start=start)
        assert out[-1] == [None] * r
        assert len(calls) == out[4].max() + extra


# -- complete markets in closed form --------------------------------------------


def _complete_markets():
    """A one-asset binomial, a two-asset trinomial and random complete trees:
    binomial moves with random probabilities, and two-asset moves whose
    triangle holds the origin."""
    rng = np.random.default_rng(5)
    yield treegen.product_market([[1.2, 0.9]] * 3)
    yield treegen.product_market([[(1.2, 0.95), (0.9, 1.2), (0.95, 0.85)]] * 2)
    for _ in range(3):
        periods = int(rng.integers(1, 4))
        probs = [[float(x), 1.0 - float(x)] for x in rng.uniform(0.2, 0.8, periods)]
        yield treegen.product_market([[float(rng.uniform(1.05, 1.5)), float(rng.uniform(0.6, 0.95))]
                                      for _ in range(periods)], probs)
    for _ in range(3):
        yield treegen.product_market(
            [[tuple(m) for m in treegen._straddling_moves_2d(rng)] for _ in range(2)],
            s0=(1.0, 1.0))


@pytest.mark.parametrize("k", range(8))
def test_the_closed_form_meets_the_newton_core_on_complete_markets(k):
    # free and fixed-mass rows against the core, the named oracle: value,
    # mass, mu, W'' (the pass at the closed form's optimum against the QR
    # oracle at the core's, :func:`_w2_at`) and the strategy's gains, and the
    # conditional problems of every non-leaf node against the core's
    # per-time solves
    tree = list(_complete_markets())[k]
    geo = geometry._support_structure(tree)
    assert geo.complete
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    rng = np.random.default_rng(k)
    pair = two_power_utility(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0)), 1.0)
    e = rng.uniform(-1.0, 1.0, tree.n_leaves)
    endows, ss = np.array([e, e, 2.0 * e]), np.array([np.nan, math.log(0.7), math.log(1.6)])
    got, want = dual._solutions(tree, pair, endows, ss), dual._core_solutions(tree, pair, endows, ss)
    w2 = _w2_at(A, tree.leaf_probability_array, endows, pair, geo.mask,
                np.array([b.mu for b in want]))
    for a, b, w2_core in zip(got, want, w2):
        assert a.iterations[0]["steps"] <= 12 and a.stationarity <= 1e-13
        scale = 1.0 + np.abs(b.terminal_gain).max()
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)
        assert a.mass == pytest.approx(b.mass, rel=1e-12)
        assert np.abs(a.mu - b.mu).max() <= 1e-12 * b.mass
        assert np.abs(tree.gains(a._h_arr) - tree.gains(b._h_arr)).max() <= 1e-10 * scale
        assert a.mass_curvature == pytest.approx(b.mass_curvature, rel=1e-10)
        assert a.mass_curvature == pytest.approx(w2_core, rel=1e-10)
    sol = got[0]
    ps = recover(tree, pair, e, sol)
    assert ps.replication_residual <= 1e-12 * (1.0 + np.abs(ps.terminal_wealth).max())
    nodes = np.arange(tree.layout.level_starts[-2])
    log_m = sol._log_mass + sol.node_log_q[nodes]
    raw, deriv = dual._subtree_duals(sol, nodes, log_m)
    raw_o, deriv_o = dual._subtree_solves(sol, nodes, np.exp(log_m))
    assert np.abs(raw - raw_o).max() <= 1e-12 * (1.0 + np.abs(raw_o).max())
    assert np.abs(deriv - deriv_o).max() <= 1e-10 * (1.0 + np.abs(deriv_o).max())


def _assert_whole_tree_rows_are_the_kept_constraint_rows(tree):
    geo = geometry._support_structure(tree)
    whole = dual._subtree_rows(tree)[0]
    want = build_constraints(tree)[dual._strategy_basis(geo)]
    assert whole.rows.shape == (1,) + want.shape and whole.rows.tobytes() == want.tobytes()
    assert not whole.pad.any() and np.array_equal(whole.leaf[0], np.arange(tree.n_leaves))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
def test_the_whole_trees_core_rows_are_the_kept_constraint_rows(seed, n_assets):
    # time 0 of the subtree layout, which every whole-tree core solve reads,
    # is the rows of the constraint matrix that the strategy basis keeps
    _assert_whole_tree_rows_are_the_kept_constraint_rows(
        treegen.random_market(np.random.default_rng(seed), max_periods=3, n_assets=n_assets))


def test_the_whole_trees_core_rows_are_the_kept_constraint_rows_across_the_sweep():
    # mixed widths, units 1e-12 and 1e12, a zero increment, three assets,
    # a dead leaf and the caterpillar
    for tree in _sweep_trees().values():
        _assert_whole_tree_rows_are_the_kept_constraint_rows(tree)


def test_a_complete_binomial_solves_without_the_core_or_constraints(tp_pair, monkeypatch):
    # 2 048 leaves: the closed form reads neither the Newton core (which
    # took ~0.7 s there) nor the dense constraint matrix
    tree = treegen.product_market([[1.1, 0.9]] * 11)
    e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
    calls = collections.Counter()
    for name in ("_newton_core", "build_constraints"):
        monkeypatch.setattr(dual, name, lambda *args, name=name, **kw: calls.update([name]))
    sol = solve_dual(tree, tp_pair, e)
    assert not calls and sol.stationarity <= 1e-13


def test_a_fixed_mass_past_the_float_range_is_a_typed_error(tp_pair):
    # I(y) overflows at y = 1e-200, and I(y q/p) overflows on the DD-floor
    # tree's up-up leaf at y = 1e-140, where I(y) alone does not
    tree = treegen.product_market([[1e5, 0.99999]] * 2)
    with pytest.raises(EvaluationOverflowError, match="wealth I"):
        solve_dual_fixed_mass(tree, tp_pair, 0.0, log_mass=math.log(1e-200))
    assert math.isfinite(tp_pair.v_prime(1e-140))
    with pytest.raises(EvaluationOverflowError, match="r.0.0") as exc:
        solve_dual_fixed_mass(tree, tp_pair, 0.0, log_mass=math.log(1e-140))
    assert exc.value.node_id == "r.0.0"


def test_the_core_reads_w2_on_one_side_of_the_kink(tp_pair):
    # bin1 at mass 1.5: y q/p = 1 on leaf 0, whose optimal wealth sits on
    # U''s kink at 0, where A jumps from b = 1 to a = 0.5.  Whatever side the
    # last iterate's rounding leaves it on, the core's W'' reads A(0) = a
    # there: (1/3) / (1.5 a) + (2/3) / (1.5 A(-1)) = 4/3, as the closed form
    # at y q/p = 1; the backward pass meets the QR oracle at each optimum
    tree, rng = treegen.bin1(), np.random.default_rng(0)
    e = rng.uniform(-2.0, 2.0, (8, tree.n_leaves))
    sols = dual._core_solutions(tree, tp_pair, e, np.full(8, math.log(1.5)))
    assert [s.mass_curvature for s in sols] == pytest.approx([4.0 / 3.0] * 8, rel=1e-12)
    _assert_w2_meets_the_qr_oracle(sols)
    closed, = dual._solutions(tree, tp_pair, e[:1], np.array([math.log(1.5)]))
    assert closed.mass_curvature == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_the_core_qr_reads_w2_on_one_side_of_the_kink(tp_pair):
    # the QR oracle of the tests (:func:`_w2_at`) at the same 8 optima
    # reads 4/3 as well, by the kink guard
    tree, rng = treegen.bin1(), np.random.default_rng(0)
    e = rng.uniform(-2.0, 2.0, (8, tree.n_leaves))
    sols = dual._core_solutions(tree, tp_pair, e, np.full(8, math.log(1.5)))
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    w2 = _w2_at(A, tree.leaf_probability_array, e, tp_pair, geo.mask,
                np.array([s.mu for s in sols]))
    assert w2.tolist() == pytest.approx([4.0 / 3.0] * 8, rel=1e-12)


_TWO_POWER_SUITE = [case for case in treegen.acceptance_suite() if case[1].family == "two_power"]


@pytest.mark.parametrize("k", range(len(_TWO_POWER_SUITE)))
def test_the_w2_pass_meets_the_qr_oracle_on_the_acceptance_suite(k):
    tree, pair, endow = _TWO_POWER_SUITE[k]
    _assert_w2_meets_the_qr_oracle([solve_dual(tree, pair, endow)])


def _free_and_fixed(tree, pair, e):
    """The free optimum at ``e`` and the fixed-mass ones at 0.5 and 2 times
    its mass."""
    free = solve_dual(tree, pair, e)
    return [free] + dual._solutions(tree, pair, np.array([e, e]),
                                    free._log_mass + np.log([0.5, 2.0]))


@pytest.mark.parametrize("ab", [(0.5, 1.0), (0.3, 2.0), (0.2, 3.0), (0.9, 10.0)])
def test_the_w2_pass_meets_the_qr_oracle_across_the_sweep(ab):
    # mixed widths, units 1e-12 and 1e12, a zero increment and three assets;
    # the dead leaf has no finite two-power dual, and the caterpillar's
    # optimal wealth is past the float range
    rng = np.random.default_rng(7)
    for name, tree in _sweep_trees().items():
        if name not in ("dead leaf", "caterpillar"):
            e = rng.uniform(-1.0, 1.0, tree.n_leaves)
            _assert_w2_meets_the_qr_oracle(_free_and_fixed(tree, two_power_utility(*ab, 1.0), e))


@pytest.mark.parametrize("moves", [[(1.2, 1.0), (1.0, 1.0), (0.85, 1.0)],
                                   [(1.2, 1.4), (1.0, 1.0), (0.85, 0.7)]],
                         ids=["still", "collinear"])
def test_the_w2_pass_meets_the_qr_oracle_at_rank_deficient_nodes(tp_pair, moves):
    # a second asset that never moves, or moves with the first: every node's
    # increments span one direction of two, and the lift leaves the other
    tree = treegen.product_market([moves] * 2, s0=(1.0, 1.0))
    e = np.random.default_rng(1).uniform(-1.0, 1.0, tree.n_leaves)
    _assert_w2_meets_the_qr_oracle(_free_and_fixed(tree, tp_pair, e))


def test_the_w2_pass_meets_the_qr_oracle_on_2187_leaves(tp_pair):
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 7)
    _assert_w2_meets_the_qr_oracle(
        [solve_dual(tree, tp_pair, np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves))])


def test_w2_reads_no_constraint_matrix_and_no_qr(tp_pair, monkeypatch):
    # nor the exponential start: a fresh incomplete two-power tree goes
    # through solve_dual and W'' without building it
    e = np.random.default_rng(2).uniform(-1.0, 1.0, 27)
    misses = dual._exponential_start.cache_info().misses
    fresh = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    assert solve_dual(fresh, tp_pair, e).mass_curvature > 0.0
    assert dual._exponential_start.cache_info().misses == misses
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    sols = _free_and_fixed(tree, tp_pair, e)

    def refuse(*args, **kwargs):
        raise AssertionError("W'' read a dense matrix or the exponential start")
    for name in ("build_constraints", "_qr_fits", "_exponential_start"):
        monkeypatch.setattr(dual, name, refuse)
    assert all(s.mass_curvature > 0.0 for s in sols)


def test_a_fresh_tree_runs_one_batched_eigh(exp_pair, tp_pair, monkeypatch):
    # the structural batches' pseudo-inverse and null projectors come from
    # one eigh, which the exponential start reuses: pricing under both
    # families and reading W'' on a fresh tree runs it once
    calls = []

    def counted(a, _fn=np.linalg.eigh):
        calls.append(a.shape)
        return _fn(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for moves in ([[1.2, 1.0, 0.85]] * 3, [[1.2, 0.85]] * 3):
        tree = treegen.product_market(moves)
        e = np.random.default_rng(0).uniform(-1.0, 1.0, tree.n_leaves)
        claim = np.maximum(tree.layout.prices[tree.layout.level_starts[-2]:, 0] - 1.0, 0.0)
        price_report(tree, exp_pair, e, claim)
        assert solve_dual(tree, tp_pair, e).mass_curvature > 0.0
        assert len(calls) == 1
        calls.clear()
