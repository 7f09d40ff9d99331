import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treegen
from treedual import (DomainError, EvaluationOverflowError, InfeasibleEntropyError,
                      NoMartingaleMeasureError, NonconvergedError, TreedualError,
                      ValueAtSupremumError, build_constraints,
                      check_maximal_support, dual_derivative,
                      dual_value_curve, exponential_utility, leaf_values,
                      load_market, market_from_dict,
                      optimal_measure_price_process, price_report,
                      relative_entropy, solve_dual,
                      solve_dual_fixed_mass,
                      two_power_utility, vertex_enumerate)
from treedual import dual, geometry, market, oracle

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
    for v in vertex_enumerate(build_constraints(tri1)):
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
    # a replaced measure shows through mu and q_hat, as the battery's
    # corrupted-measure hook needs
    sol = solve_dual(tri1, request.getfixturevalue(pair_name), {"a": 0.3, "b": -0.2, "c": 0.1})
    mu = np.array([0.2, 0.3, 0.4])
    new = dataclasses.replace(sol, mu=mu, q_hat=mu / 0.9)
    assert new.mu.tolist() == mu.tolist()
    assert new.q_hat.tolist() == (mu / 0.9).tolist()


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
    verts = np.array(vertex_enumerate(build_constraints(tri1)))
    for pair in (exp_pair, tp_pair):
        ref = solve_dual(tri1, pair, e)
        starts = np.array([(0.8 * rng.dirichlet(np.ones(len(verts))) @ verts
                            + 0.2 * ref.q_hat) * rng.uniform(0.3, 3.0) for _ in range(4)])
        sols = dual._core_solutions(tri1, pair, np.tile(e, (4, 1)), starts=starts)
        cold, = dual._core_solutions(tri1, pair, e[None])
        # the starts are read: some row takes another path than the cold one
        assert {s.iterations[0]["steps"] for s in sols} != {cold.iterations[0]["steps"]}
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
    ys = sol.mass * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
    rep = dual_value_curve(tri1, exp_pair, e, ys)
    at_opt = [p for p in rep.points if p.y == pytest.approx(sol.mass)]
    assert at_opt[0].value == pytest.approx(sol.value, abs=1e-8)
    assert rep.min_second_difference >= -1e-8
    assert rep.min_value >= sol.value - 1e-9


@pytest.mark.parametrize("family", ["exponential", "two_power"])
def test_value_curve_reads_the_same_margin_from_masses_and_log_masses(tri1, exp_pair,
                                                                       tp_pair, family):
    pair = exp_pair if family == "exponential" else tp_pair
    e = [0.3, -0.2, 0.1]
    ys = solve_dual(tri1, pair, e).mass * np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    by_mass = dual_value_curve(tri1, pair, e, ys).min_second_difference
    by_log = dual_value_curve(tri1, pair, e, np.log(ys), log=True).min_second_difference
    assert by_mass == pytest.approx(by_log, rel=1e-12, abs=1e-12)


def test_value_curve_bin1_closed_form(bin1, exp_pair_raw):
    # single measure: the curve is one conjugate evaluation per mass
    q = np.array([1 / 3, 2 / 3])
    p = np.array([0.5, 0.5])
    ys = [0.4, 0.8, 1.2, 2.0]
    rep = dual_value_curve(bin1, exp_pair_raw, 0.0, ys)
    for pt in rep.points:
        direct = float(p @ exp_pair_raw.v(pt.y * q / p))
        assert pt.value == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_value_curve_refuses_a_repeated_mass(bin1, pair_name, request):
    # a repeated mass made the second difference divide by zero
    with pytest.raises(DomainError, match="curve masses must be distinct"):
        dual_value_curve(bin1, request.getfixturevalue(pair_name), 0.0, [1.0, 1.0, 2.0])


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_masses_must_be_finite_and_positive(tri1, pair_name, request):
    # a NaN mass marks a free row inside the solvers, so it must not get in:
    # it gave the free optimum or a curve point at y = nan; an empty grid
    # gave a ValueError or a TypeError
    pair = request.getfixturevalue(pair_name)
    e = [0.3, -0.2, 0.1]
    with pytest.raises(DomainError, match="at least one"):
        dual_value_curve(tri1, pair, e, [])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="masses must be finite"):
            solve_dual_fixed_mass(tri1, pair, e, bad)
        with pytest.raises(DomainError, match="masses must be finite"):
            dual_value_curve(tri1, pair, e, [0.5, bad, 1.0])
    for bad in (0.0, -1.0, -math.inf):
        with pytest.raises(NoMartingaleMeasureError, match="masses must be positive"):
            solve_dual_fixed_mass(tri1, pair, e, bad)
        with pytest.raises(NoMartingaleMeasureError, match="masses must be positive"):
            dual_value_curve(tri1, pair, e, [0.5, bad, 1.0])


def test_log_curve_takes_convexity_from_the_derivatives(tri1, exp_pair):
    # masses e^-800 and e^-760 underflow to 0, the log masses stay exact;
    # W'(y) = (ln y - L)/gamma rises by the log-mass steps over gamma
    e = [0.3, -0.2, 0.1]
    rep = dual_value_curve(tri1, exp_pair, e, [-750.0, -800.0, -760.0], log=True)
    assert [p.y for p in rep.points] == [0.0, 0.0, math.exp(-750.0)]
    assert rep.min_second_difference == pytest.approx(10.0, rel=1e-12)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="log masses must be finite"):
            dual_value_curve(tri1, exp_pair, e, [-1.0, bad], log=True)
    with pytest.raises(DomainError, match="curve masses must be distinct"):
        dual_value_curve(tri1, exp_pair, e, [-800.0, -800.0], log=True)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_mass_derivative_is_the_envelope_formula(tri1, pair_name, request):
    # one expression, -E_q_hat[X], serves the curve and the derivative, bit
    # for bit; it is the envelope E_q_hat[V'(density) + e], exactly for the
    # two-power family and to rounding where X comes from the log-masses
    pair = request.getfixturevalue(pair_name)
    e = np.array([0.3, -0.2, 0.1])
    for y in (0.5, 1.0, 2.0):
        sol = solve_dual_fixed_mass(tri1, pair, e, y)
        got = sol.mass_derivative
        assert got == dual_derivative(tri1, pair, e, y)
        assert dual_value_curve(tri1, pair, e, [y]).points[0].derivative == got
        envelope = float(np.dot(sol.q_hat, pair.v_prime(sol.density_array) + e))
        ulps = 0 if pair.family == "two_power" else 4
        assert abs(got - envelope) <= ulps * np.spacing(abs(envelope))


def test_mass_derivative_is_finite_on_dead_leaves(exp_pair):
    # q_hat is 0 on the dead leaf, where V'(0) = -inf; the derivative of
    # W(y) = C + y (ln y - 1 - L)/gamma is (ln y - L)/gamma
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    assert sol.support == "DEGENERATE" and 0.0 in sol.q_hat
    ys = [0.3, 0.9, 1.5]
    with np.errstate(all="raise"):
        got = [dual_derivative(tree, exp_pair, 0.0, sol.mass)] + [
            p.derivative for p in dual_value_curve(tree, exp_pair, 0.0, ys).points]
    gamma = exp_pair.params["gamma"]
    want = [(math.log(y) - sol._log_mass) / gamma for y in [sol.mass] + ys]
    assert all(map(math.isfinite, got))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_derivative_zero_at_optimum(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    assert abs(dual_derivative(tri1, exp_pair, e, sol.mass)) <= 1e-7


@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_derivative_matches_finite_differences(tri1, tp_pair, y):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    d = dual_derivative(tri1, tp_pair, e, y)
    h = 1e-5 * y
    up = solve_dual_fixed_mass(tri1, tp_pair, e, y + h).value
    dn = solve_dual_fixed_mass(tri1, tp_pair, e, y - h).value
    fd = (up - dn) / (2 * h)
    assert d == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_derivative_increases_to_infinity(tri1, exp_pair):
    ds = [dual_derivative(tri1, exp_pair, 0.0, y)
          for y in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_fixed_mass_consistency(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    pinned = solve_dual_fixed_mass(tri1, exp_pair, e, sol.mass)
    assert pinned.value == pytest.approx(sol.value, abs=1e-8)


def test_maximal_support_full(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, 0.0)
    verts = vertex_enumerate(build_constraints(tri1))
    rep = check_maximal_support(sol, verts)
    assert not rep.violations
    assert rep.vertices_tested == 2


def test_maximal_support_dead_leaf_vacuous(exp_pair):
    tree = treegen.dead_leaf_market()
    sol = solve_dual(tree, exp_pair, 0.0)
    assert sol.support == "DEGENERATE"
    verts = vertex_enumerate(build_constraints(tree))
    rep = check_maximal_support(sol, verts)
    assert not rep.violations  # dead leaf uncharged by every vertex


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
        vals, fine = (relative_entropy(tree, pair, mus) + mus @ e for mus in rays)
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
        verts = vertex_enumerate(build_constraints(tree))
        for q in list(verts) + [sol.q_hat]:
            on = q > 0
            ray = -float(q[on] @ np.log(q[on] / p[on])) - gamma * float(q @ e)
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
    assert np.isnan(out[5][[0, 3]]).all() and (out[5][1:3] > 0).all()
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
    rep = check_maximal_support(sol, vertex_enumerate(build_constraints(tree)))
    assert rep.vertices_tested > 0 and not rep.violations


def test_maximal_support_flags_an_uncharged_vertex_leaf(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, {"a": 0.3, "b": -0.2, "c": 0.1})
    verts = vertex_enumerate(build_constraints(tri1))
    # the optimum charges leaf a nowhere: neither mu, q_hat nor its log masses
    mu, q, log_q = sol.mu.copy(), sol.q_hat.copy(), sol._log_q.copy()
    a = tri1.leaf_ids.index("a")
    mu[a], q[a], log_q[a] = 0.0, 0.0, -np.inf
    rep = check_maximal_support(dataclasses.replace(sol, mu=mu, q_hat=q, _log_q=log_q), verts)
    charging = [k for k, v in enumerate(verts) if v[0] > 0]
    assert charging and rep.violations == tuple((k, "a") for k in charging)


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


def _assert_core_meets_the_lstsq_oracle(tree, pair, e, mass=None, start=None):
    """The core on the tree's strategy basis against the core that steps by
    ``_lstsq_step`` on every column: the same mu (relative to its mass),
    value and W'' to 1e-12 relative, the same steps and errors."""
    A, p = build_constraints(tree), tree.leaf_probability_array
    geo = geometry._support_structure(tree)
    basis = dual._strategy_basis(geo)
    got = dual._newton_core(A[basis], p, e, pair, geo.mask, mass=mass, start=start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dual, "_qr_fits", _lstsq_step)
        want = dual._newton_core(A, p, e, pair, geo.mask, mass=mass, start=start)
    assert [type(err) for err in got[-1]] == [type(err) for err in want[-1]]
    assert np.array_equal(got[4], want[4])
    ok = np.array([err is None for err in got[-1]])
    mu, mu_o = got[0][ok], want[0][ok]
    assert (np.abs(mu - mu_o).max(axis=1) <= 1e-12 * mu_o.sum(axis=1)).all()
    for a, b in ((got[2], want[2]), (got[5], want[5])):
        a, b = a[ok], b[ok]
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
        basis = dual._strategy_basis(geometry._support_structure(tree)).reshape(-1, d)
        charged = tree.subtree_sums(geometry._support_structure(tree).interior) > 0
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
    # U' underflows on both leaves of the first time-1 node, so its column
    # has no weight: that row fails typed, the other row of the stack
    # converges as it does alone, and no singular triangle reaches the solve
    tree = treegen.product_market([[1.2, 0.9], [1.2, 0.9]])
    pair = exponential_utility(1.0, 2.0)
    e = np.array([[800.0, 800.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    bad, good = dual._core_solutions(tree, pair, e)
    assert isinstance(bad, NonconvergedError)
    assert good.value == pytest.approx(1.107086908267888, rel=1e-14, abs=0)
    assert good.iterations[0]["steps"] == 5
    alone, = dual._core_solutions(tree, pair, e[1:])
    assert (good.value, good.mass) == (alone.value, alone.mass)
    assert np.array_equal(good.mu, alone.mu)


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


@pytest.mark.parametrize("r", [1, 5])
def test_newton_core_factors_once_per_step_whatever_the_rows(r, monkeypatch):
    # one QR per Newton step over all rows, plus one for the warm start and
    # one for W'' at the fixed masses, whether the stack holds 1 row or 5
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    pair = two_power_utility(0.5, 1.0, 1.0)
    geo = geometry._support_structure(tree)
    A = build_constraints(tree)[dual._strategy_basis(geo)]
    e = np.tile(np.random.default_rng(1).uniform(-1.0, 1.0, tree.n_leaves), (r, 1))
    warm = solve_dual(tree, pair, e[0]).mu
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for mass, start, extra in ((None, None, 0), (np.full(r, 1.3), None, 1),
                               (None, np.tile(warm, (r, 1)), 1)):
        calls.clear()
        out = dual._newton_core(A, tree.leaf_probability_array, e, pair, geo.mask,
                                mass=mass, start=start)
        assert out[-1] == [None] * r
        assert len(calls) == out[4].max() + extra
