import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from certification_oracle import certify_assumptions_by_grid
from treedual import (AssumptionFailError, DomainError, ParseError,
                      UtilityPair, certify_assumptions, evaluate,
                      exponential_utility, parse_utility_spec, run_battery,
                      two_power_utility)
from treedual import utility

INF = float("inf")


def conjugate_by_maximization(pair, y, lo=-1e6, hi=1e6):
    """Independent oracle: V(y) = sup_x {U(x) - x y} by 1-D maximization."""
    res = minimize_scalar(lambda x: -(pair.u(x) - x * y),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    return -res.fun


def test_exponential_conjugate_values():
    pair = exponential_utility(1.0, 2.0)
    assert pair.v(1.0) == pytest.approx(1.0, abs=1e-14)   # C + (ln 1 - 1)
    assert pair.v(0.0) == 2.0                             # V(0) = U(inf) = C
    assert pair.v(math.inf) == INF
    assert pair.v_prime(0.0) == -INF
    assert pair.v_prime(math.inf) == INF
    assert evaluate(pair, "V", 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        evaluate(pair, "V", -0.5)


def test_two_power_conjugate_at_one():
    pair = two_power_utility(0.5, 1.0, 1.0)
    # U'(0) = 1 puts the supremum of U(x) - x at x = 0, so V(1) = U(0) = 1
    assert pair.v(1.0) == pytest.approx(1.0, abs=1e-12)
    oracle = conjugate_by_maximization(pair, 1.0)
    assert pair.v(1.0) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("y", [0.05, 0.3, 1.0, 2.5, 17.0])
def test_two_power_conjugate_matches_maximization_oracle(y):
    pair = two_power_utility(0.4, 0.8, 1.0)
    assert pair.v(y) == pytest.approx(conjugate_by_maximization(pair, y),
                                      abs=1e-8, rel=1e-8)


def test_two_power_boundary_sentinels():
    pair = two_power_utility(0.5, 1.0, 1.0)
    assert pair.v(0.0) == INF          # U(inf) = inf
    assert pair.v(math.inf) == INF
    assert pair.v_prime(0.0) == -INF
    assert pair.v_prime(math.inf) == INF


def test_two_power_inversion_residual():
    pair = two_power_utility(0.5, 1.0, 1.0)
    ys = np.logspace(-10, 10, 300)
    x = -pair.v_prime(ys)
    resid = np.abs(pair.u_prime(x) - ys)
    assert np.all(resid <= 1e-12 * (1.0 + ys))


def _bisect_inverse_marginal(pair, ys, iters=200):
    """Independent oracle: U'(x) = y by bisection on the decreasing U'.

    Bisects in t with x = sign(t) expm1(|t|), over |t| <= 705 (|x| up to
    ~1e306), so every decade of x gets the same number of steps.
    """
    lo = np.full_like(ys, -705.0)
    hi = np.full_like(ys, 705.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x = np.sign(mid) * np.expm1(np.abs(mid))
        above = pair.u_prime(x) > ys       # root lies to the right
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    mid = 0.5 * (lo + hi)
    return np.sign(mid) * np.expm1(np.abs(mid))


@pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("b", [0.1, 0.7, 1.0, 3.0])
def test_two_power_closed_form_inversion_matches_bisection(a, b):
    pair = two_power_utility(a, b, 1.0)
    ys = np.concatenate([np.logspace(-12, 12, 241), [1.0 - 1e-9, 1.0 + 1e-9]])
    x = -pair.v_prime(ys)
    oracle = _bisect_inverse_marginal(pair, ys)
    assert np.all(np.abs(x - oracle) <= 1e-12 * (1.0 + np.abs(oracle)))


@pytest.mark.parametrize("a,b", [(0.05, 0.1), (0.5, 1.0), (0.3, 2.5),
                                 (0.95, 3.0)])
def test_two_power_v_second_matches_central_differences(a, b):
    pair = two_power_utility(a, b, 1.0)
    ys = np.logspace(-6, 6, 121)
    ys = ys[np.abs(np.log(ys)) > 0.05]   # V'' jumps at y = 1
    h = 1e-5
    fd = (pair.v_prime(ys * (1.0 + h)) - pair.v_prime(ys * (1.0 - h))) / (2.0 * h * ys)
    assert np.all(np.abs(pair.v_second(ys) - fd) <= 1e-6 * pair.v_second(ys))


@pytest.mark.parametrize("pair", [exponential_utility(0.5, 3.0), exponential_utility(3.0, 1.0),
                                  two_power_utility(0.05, 0.1, 1.0),
                                  two_power_utility(0.5, 1.0, 1.0),
                                  two_power_utility(0.95, 3.0, 1.0)],
                         ids=lambda pair: pair.describe())
def test_risk_aversion_matches_central_differences(pair):
    # -U''/U' against central differences of U'; the two-power U'' jumps at 0
    xs = np.concatenate([-np.logspace(2, -2, 41), np.logspace(-2, 2, 41)])
    h = 1e-6 * (1.0 + np.abs(xs))
    fd = -(pair.u_prime(xs + h) - pair.u_prime(xs - h)) / (2.0 * h * pair.u_prime(xs))
    assert np.all(np.abs(pair.risk_aversion(xs) - fd) <= 1e-6 * pair.risk_aversion(xs))
    assert two_power_utility(0.5, 2.0, 1.0).risk_aversion(INF) == 0.0


@pytest.mark.parametrize("a,b", [(0.05, 0.1), (0.5, 1.0), (0.95, 3.0)])
def test_two_power_v_second_jumps_at_one(a, b):
    # U''(0-) = -b and U''(0+) = -a, so V'' is 1/a up to y = 1 and 1/b above
    pair = two_power_utility(a, b, 1.0)
    assert pair.v_second(1.0) == 1.0 / a
    assert pair.v_second(np.nextafter(1.0, 0.0)) == pytest.approx(1.0 / a, rel=1e-12)
    assert pair.v_second(np.nextafter(1.0, 2.0)) == pytest.approx(1.0 / b, rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.05, 0.1), (0.5, 1.0), (0.95, 3.0)])
def test_two_power_sentinels_at_extreme_arguments(a, b):
    pair = two_power_utility(a, b, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = pair.v(np.array([0.0, INF, 1e-300, 1e300]))
        vp = pair.v_prime(np.array([0.0, INF, 1e-300, 1e300]))
        vs = pair.v_second(np.array([0.0, 1e-300, INF]))
    # V(0) = U(inf) = inf and V(inf) = inf; at 1e-300 and 1e300 V lies
    # above the floating-point range
    assert v.tolist() == [INF, INF, INF, INF]
    # V'(y) = -I(y): -inf at 0 and below the range at 1e-300, +inf at inf;
    # at 1e300 I(y) = 1 - y^(1/b) is finite exactly when y^(1/b) is
    assert vp[:3].tolist() == [-INF, INF, -INF]
    assert vp[3] == pytest.approx(1e300 ** (1.0 / b) if b >= 1.0 else INF)
    # V''(y) = y^(1/b - 1)/b on the left tail tends to inf, 1 or 0 as
    # b < 1, b = 1 or b > 1
    assert vs.tolist() == [INF, INF, INF if b < 1.0 else 1.0 if b == 1.0 else 0.0]



@pytest.mark.parametrize("gamma,shift", [(1.0, 2.0), (0.5, 3.0), (3.0, 1.0)])
def test_exponential_conjugate_derived_from_u_matches_its_closed_form(gamma, shift):
    # V = U(I(y)) - y I(y) with I(y) = -ln(y)/gamma, against
    # C + y(ln y - 1)/gamma, and V' = ln(y)/gamma, V'' = 1/(gamma y) exactly
    pair = exponential_utility(gamma, shift)
    ys = np.logspace(-300, 300)
    closed = shift + ys * (np.log(ys) - 1.0) / gamma
    assert np.all(np.abs(pair.v(ys) - closed) <= 1e-15 * np.abs(closed))
    assert pair.v(np.array([0.0, INF])).tolist() == [shift, INF]
    ys = np.concatenate([[0.0, INF], ys])
    with np.errstate(divide="ignore", over="ignore"):
        assert np.array_equal(pair.v_prime(ys), np.log(ys) / gamma)
        assert np.array_equal(pair.v_second(ys), 1.0 / (gamma * ys))


@pytest.mark.parametrize("b", [1.5, 2.0, 7.0])
def test_two_power_v_second_stays_on_its_tail_where_b_y_overflows(b):
    # V''(y) = y^(1/b - 1)/b on the left tail is well inside the range
    # where b y is above it
    pair = two_power_utility(0.5, b, 1.0)
    y = 1.7e308
    x = -pair.v_prime(y)
    assert pair.v_second(y) == pytest.approx((1.0 - x) / b / y, rel=1e-14)
    assert 0.0 < pair.v_second(y) < INF

@pytest.mark.parametrize("factory", [
    lambda: exponential_utility(1.0, 2.0),
    lambda: exponential_utility(2.5, 1.0),
    lambda: two_power_utility(0.5, 1.0, 1.0),
    lambda: two_power_utility(0.3, 0.6, 2.0),
])
def test_fenchel_inequality(factory):
    pair = factory()
    xs = np.concatenate([-np.logspace(-2, 2, 30), [0.0], np.logspace(-2, 2, 30)])
    ys = np.logspace(-6, 4, 40)
    u = pair.u(xs)
    for y in ys:
        v = pair.v(float(y))
        assert np.all(u <= v + xs * y + 1e-10)


@pytest.mark.parametrize("factory", [
    lambda: exponential_utility(1.0, 2.0),
    lambda: two_power_utility(0.5, 1.0, 1.0),
])
def test_derivative_inversion(factory):
    pair = factory()
    ys = np.logspace(-6, 6, 200)
    resid = np.abs(pair.u_prime(-pair.v_prime(ys)) - ys)
    assert np.all(resid <= 1e-8 * (1.0 + ys))


@pytest.mark.parametrize("factory", [
    lambda: exponential_utility(1.0, 2.0),
    lambda: two_power_utility(0.5, 1.0, 1.0),
])
def test_conjugate_strictly_convex(factory):
    pair = factory()
    ys = np.logspace(-4, 4, 200)
    v = pair.v(ys)
    slopes = np.diff(v) / np.diff(ys)
    assert np.all(np.diff(slopes) > 0)


def test_certification_exponential():
    rep = certify_assumptions(exponential_utility(1.0, 2.0))
    assert (rep.ae_minus, rep.ae_plus) == (math.inf, 0.0)
    assert rep.ae_plus_estimate == pytest.approx(0.0, abs=1e-6)
    assert rep.ae_minus_estimate > 100.0
    assert rep.conjugacy_max_residual <= 1e-7
    assert rep.u_at_zero > 0


def test_certification_two_power():
    rep = certify_assumptions(two_power_utility(0.5, 1.0, 1.0))
    assert (rep.ae_minus, rep.ae_plus) == (2.0, 0.5)
    # analytic tail exponents 1 - a and 1 + b
    assert rep.ae_plus_estimate == pytest.approx(0.5, abs=5e-3)
    assert rep.ae_minus_estimate == pytest.approx(2.0, abs=5e-3)
    assert rep.conjugacy_max_residual <= 1e-7


@pytest.mark.parametrize("gamma", [2.0, 3.0, 5.0])
def test_battery_certifies_strongly_risk_averse_exponential(bin1, gamma):
    # U(-10) ~ exp(10 gamma): the biconjugacy residual is measured relative
    # to it, so rounding alone no longer fails the check
    pair = exponential_utility(gamma, 1.0 + 1.0 / gamma)
    cert = run_battery(bin1, pair, {"u": 0.2, "d": -0.1})[0]
    assert cert.name == "utility certification"
    assert cert.passed
    assert cert.residual <= 1e-13


def _hostile_pair():
    """Exponential below x=1 spliced with a linear branch above: not strictly
    concave."""
    base = exponential_utility(1.0, 2.0)
    u1 = base.u(1.0)
    s1 = base.u_prime(1.0)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 1.0, base.u(x), u1 + s1 * (x - 1.0))

    def u_prime(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 1.0, base.u_prime(x), s1)

    return UtilityPair(family="custom", params={}, u=u, u_prime=u_prime,
                       v=base.v, v_prime=base.v_prime, v_second=base.v_second,
                       risk_aversion=base.risk_aversion,
                       u_inf=INF, ae_plus=0.0, ae_minus=INF)


def test_certification_rejects_hostile_pair():
    with pytest.raises(AssumptionFailError) as exc:
        certify_assumptions(_hostile_pair())
    assert "concavity" in exc.value.assumption or "Inada" in exc.value.assumption


@pytest.mark.parametrize("a", [0.05, 0.2, 0.3, 0.32])
def test_certification_two_power_weak_right_tail(a):
    # U'(x) = (1+x)^(-a) tends to 0 for every a > 0, though U'(1e6) stays
    # above 1e-2 when a <= 1/3
    rep = certify_assumptions(two_power_utility(a, 1.0, 1.0))
    assert rep.ae_plus == 1.0 - a and rep.conjugacy_max_residual <= 1e-7
    assert rep.ae_plus_estimate == pytest.approx(1.0 - a, abs=5e-3)


def _marginal_floor_pair():
    """Strictly concave, but U' decreases to 1/2 instead of 0 on the right."""
    base = exponential_utility(1.0, 2.0)

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 + 0.5 * x + 0.5 * np.log1p(np.abs(x)),
                        1.0 + 0.5 * x - ((1.0 - x) ** 2 - 1.0) / 4.0)

    def u_prime(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 0.5 + 0.5 / (1.0 + np.abs(x)),
                        0.5 + 0.5 * (1.0 - x))

    return UtilityPair(family="custom", params={}, u=u, u_prime=u_prime,
                       v=base.v, v_prime=base.v_prime, v_second=base.v_second,
                       risk_aversion=base.risk_aversion,
                       u_inf=INF, ae_plus=1.0, ae_minus=2.0)


def test_certification_rejects_marginal_bounded_away_from_zero():
    with pytest.raises(AssumptionFailError) as exc:
        certify_assumptions(_marginal_floor_pair())
    assert exc.value.assumption == "Inada conditions"


def test_certification_strong_risk_aversion_is_warning_free():
    # U(x +- h) overflows at the left end of the finite-difference window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = certify_assumptions(exponential_utility(10.0, 1.1))
    assert rep.conjugacy_max_residual <= 1e-7


_ZOOM_POINTS = 65  # grid points per lane and round of the grid zoom


def _zoom_min(f, lo, hi, rounds, *, points=_ZOOM_POINTS, expand=False):
    """Grid-zoom minimizer, elementwise over lanes of brackets [lo, hi].

    ``lo`` and ``hi`` are arrays (lanes,) and ``f`` maps an array (lanes, m)
    of points to their values, lane by lane.  Each round lays an evenly
    spaced grid of ``points`` (odd, at least 5) over each lane's bracket and
    keeps the grid neighbours of its least value, which hold the minimizer
    of a unimodal function; an argmin at an end keeps the two points next
    to it, so a round shrinks the bracket by (points - 1)/2, 32-fold at the
    default 65.  The kept points are the ends and the middle of the next
    grid: one call of ``f`` evaluates the first grid, then one per round
    its other points.  A wide grid makes few calls, for lanes few enough
    that a call's overhead dominates; where many lanes make ``f``'s
    arithmetic dominate, 5 points, two new ones per halving, take the
    fewest evaluations.  With ``expand`` each lane's bracket first doubles
    its width towards any end whose value is below the midpoint's, until
    the midpoint beats both ends.  Returns the midpoints of the final
    brackets.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    if expand:
        for _ in range(80):
            fa, fm, fb = f(np.stack([a, 0.5 * (a + b), b], axis=1)).T
            grow_a = ~(fm <= fa + 1e-18 * np.abs(fm))
            grow_b = ~(fm <= fb + 1e-18 * np.abs(fm))
            if not np.any(grow_a | grow_b):
                break
            a = np.where(grow_a, a - (b - a), a)
            b = np.where(grow_b, b + (b - a), b)
    grid, kept = np.linspace(0.0, 1.0, points), [0, points // 2, points - 1]
    fresh = np.ones(points, dtype=bool)
    fresh[kept] = False
    x = a[:, None] + (b - a)[:, None] * grid
    fx = np.array(f(x), dtype=float)
    for r in range(rounds):
        if r:
            fx[:, fresh] = f(x[:, fresh])
        # of tied least values, the first, or the last where the first is
        # the left end: a flat run at an end is a tail at rounding level,
        # the minimizer next to its inner edge
        first, last = np.argmin(fx, axis=1), points - 1 - np.argmin(fx[:, ::-1], axis=1)
        at = np.clip(np.where(first == 0, last, first), 1, points - 2)[:, None] + [-1, 0, 1]
        ends = np.take_along_axis(x, at, axis=1)
        fx[:, kept] = np.take_along_axis(fx, at, axis=1)
        x = ends[:, :1] + (ends[:, 2:] - ends[:, :1]) * grid
        x[:, kept] = ends
    return 0.5 * (x[:, 0] + x[:, -1])


@pytest.mark.parametrize("pair", [exponential_utility(0.5, 0.0),
                                  exponential_utility(1.0, 0.0),
                                  exponential_utility(2.0, 0.0),
                                  two_power_utility(0.5, 1.0, 1.0),
                                  two_power_utility(0.3, 2.0, 1.0)],
                         ids=lambda p: p.describe())
def test_golden_min_lanes_find_each_conjugate_argmin(pair):
    # s -> V(e^s) + x e^s is least at s = ln U'(x).  The exponential pairs
    # are unshifted: a shift C adds rounding of ~1e-16 C to an objective
    # whose curvature at x = 10 is ~e^(-10 gamma), which hides its minimum
    # at the 1e-6 level
    x = np.concatenate([-np.logspace(-2, 1, 25), [0.0], np.logspace(-2, 1, 25)])
    s_true = np.log(pair.u_prime(x))
    # the biconjugacy oracle's setting: 13 rounds of the 65-point grid
    s = _zoom_min(lambda s: pair.v(np.exp(s)) + x[:, None] * np.exp(s),
                  s_true - 8.0, s_true + 5.0, 13)
    assert s.shape == x.shape
    assert np.abs(s - s_true).max() <= 1e-6


def test_no_module_defines_or_imports_the_zoom():
    # the grid zoom lives here, as the search of the biconjugacy oracle:
    # the entropic penalty and the oracle's mass profile take their
    # minimum at the root of a derivative
    import ast
    from pathlib import Path

    package = Path(utility.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.alias))}
        names |= {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)}
        assert not names & {"_zoom_min", "_ZOOM_POINTS"}, path.name


@pytest.mark.parametrize("points, rounds", [(5, 27), (65, 6)])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["left-tail", "right-tail"])
def test_zoom_min_leaves_a_flat_tail_at_its_inner_edge(points, rounds, side):
    # 2 + e^s (s + 0.65)/100, least at s = -1.65, rounds to 2.0 below
    # s ~ -33: from [-120, 40] the 5-point grid ties at -120, -80 and -40,
    # and the minimizer lies next to the inner edge of that run, not next
    # to its first point
    def f(s):
        s = side * s
        return 2.0 + np.exp(s) * (s + 0.65) / 100.0

    lo, hi = np.array([-120.0]), np.array([40.0])
    if side < 0:
        lo, hi = -hi, -lo
    s = _zoom_min(f, lo, hi, rounds, points=points)
    assert abs(side * s[0] + 1.65) <= 1e-5


def _zoom_biconjugacy_residual(pair):
    """Oracle of the certification's biconjugacy: max over its 51 points x
    of |U(x) - min_y {V(y) + x y}| / (1 + |U(x)|), the inner minimum over
    s = ln y by a grid zoom of 13 rounds from ln U'(x) +- 8, a lane per x."""
    x = np.concatenate([-np.logspace(-2, 1, 25), [0.0], np.logspace(-2, 1, 25)])
    s_mid = np.log(pair.u_prime(x))
    s = _zoom_min(lambda s: pair.v(np.exp(s)) + x[:, None] * np.exp(s),
                  s_mid - 8.0, s_mid + 8.0, 13)
    u_x = pair.u(x)
    val = pair.v(np.exp(s)) + x * np.exp(s)
    return float(np.max(np.abs(u_x - val) / (1.0 + np.abs(u_x))))


_SWEEP = [exponential_utility(g, 1.0 + 1.0 / g) for g in (0.5, 1.0, 3.0, 10.0)] + [
    two_power_utility(a, b, 1.0) for a in (0.05, 0.2, 0.32, 0.5, 0.9)
    for b in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("pair", _SWEEP, ids=lambda p: p.describe())
def test_closed_form_biconjugacy_meets_the_zoom_oracle(pair):
    rep = certify_assumptions(pair)
    assert rep.conjugacy_max_residual <= 1e-7
    assert _zoom_biconjugacy_residual(pair) <= 1e-7


def _mutant(base, **kw):
    """``base`` with some evaluators replaced, as a custom pair."""
    fields = dict(u=base.u, u_prime=base.u_prime, v=base.v, v_prime=base.v_prime,
                  v_second=base.v_second, risk_aversion=base.risk_aversion)
    fields.update(kw)
    return UtilityPair(family="custom", params={}, u_inf=base.u_inf,
                       ae_plus=base.ae_plus, ae_minus=base.ae_minus, **fields)


def _mutants(base):
    """Wrong conjugates of ``base``: V shifted by 1e-6 (1 + |V|), V' moved by
    1e-6, and V'' negative above y = 2."""
    return {
        "V shifted": _mutant(base, v=lambda y: base.v(y) + 1e-6 * (1.0 + np.abs(base.v(y)))),
        "V' moved": _mutant(base, v_prime=lambda y: base.v_prime(y) + 1e-6),
        "V'' negative": _mutant(base, v_second=lambda y: np.where(
            np.asarray(y) > 2.0, -1.0, 1.0) * base.v_second(y)),
    }


@pytest.mark.parametrize("base", [exponential_utility(1.0, 2.0),
                                  two_power_utility(0.5, 1.0, 1.0)],
                         ids=lambda p: p.family)
@pytest.mark.parametrize("kind", ["V shifted", "V' moved", "V'' negative"])
def test_certification_catches_a_wrong_conjugate(base, kind):
    pair = _mutants(base)[kind]
    if kind == "V'' negative":
        with pytest.raises(AssumptionFailError) as exc:
            certify_assumptions(pair)
        assert exc.value.assumption == "strict convexity of the conjugate"
        return
    # the battery's certification gate is conjugacy_max_residual <= 1e-7
    assert certify_assumptions(pair).conjugacy_max_residual > 1e-7
    assert certify_assumptions(base).conjugacy_max_residual <= 1e-13


@pytest.mark.parametrize("pair, closed", [
    (exponential_utility(1.0, 2.0), (INF, 0.0)),
    (two_power_utility(0.5, 1.0, 1.0), (2.0, 0.5))], ids=["exp", "two_power"])
def test_certification_reports_the_closed_form_elasticities(bin1, pair, closed):
    rep = certify_assumptions(pair)
    assert (rep.ae_minus, rep.ae_plus) == closed
    detail = run_battery(bin1, pair, {"u": 0.2, "d": -0.1})[0].detail
    assert detail == (f"AE ({closed[0]:.3g}, {closed[1]:.3g}) "
                      f"est ({rep.ae_minus_estimate:.3g}, {rep.ae_plus_estimate:.3g})")


def test_certification_rejects_nonpositive_shift():
    with pytest.raises(AssumptionFailError, match="zero"):
        certify_assumptions(exponential_utility(1.0, 0.0))


def _certified(certify, pair):
    """The report's fields as float hex, or the refusal's assumption and
    message."""
    try:
        rep = certify(pair)
    except AssumptionFailError as exc:
        return exc.assumption, str(exc)
    return tuple(float(x).hex() for x in dataclasses.astuple(rep))


_PIN_SWEEP = [exponential_utility(float(g), c) for g in np.geomspace(0.05, 12.0, 12)
              for c in (1.0 + 1.0 / g, 2.0)] + [
    two_power_utility(float(a), float(b), 1.0) for a in np.linspace(0.3, 0.95, 6)
    for b in np.geomspace(0.2, 3.0, 5)]
_HOSTILE = {"spliced": _hostile_pair, "marginal floor": _marginal_floor_pair,
            "unshifted": lambda: exponential_utility(1.0, 0.0)} | {
    f"{base.family} {kind}": lambda base=base, kind=kind: _mutants(base)[kind]
    for base in (exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0))
    for kind in ("V shifted", "V' moved", "V'' negative")}


@pytest.mark.parametrize("pair", _PIN_SWEEP, ids=lambda p: p.describe())
def test_certification_meets_the_grid_by_grid_oracle_bit_for_bit(pair):
    # gamma 0.05-12 (U(0) <= 0 below gamma = 0.5 at C = 2), a 0.3-0.95,
    # b 0.2-3: every report field, or the refusal, as the oracle has it
    assert _certified(certify_assumptions, pair) == _certified(certify_assumptions_by_grid, pair)


@pytest.mark.parametrize("make", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_certification_refuses_the_hostile_pairs_as_the_oracle_does(make):
    assert _certified(certify_assumptions, make()) == _certified(certify_assumptions_by_grid,
                                                                make())


@pytest.mark.parametrize("pair", [exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0)],
                         ids=lambda p: p.family)
def test_certification_evaluates_each_closed_form_once(pair):
    # U' and U once each over the concatenation of their grids (U(0)
    # among them), V, V' and V'' once each; A and U's inverse not at all
    calls = collections.Counter()

    def counted(name, f):
        def g(x):
            calls[name] += 1
            return f(x)
        return g

    names = ("u", "u_prime", "v", "v_prime", "v_second", "risk_aversion", "u_inverse")
    rep = certify_assumptions(dataclasses.replace(
        pair, **{name: counted(name, getattr(pair, name)) for name in names}))
    assert rep == certify_assumptions(pair)
    assert calls == {"u": 1, "u_prime": 1, "v": 1, "v_prime": 1, "v_second": 1}


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.1, 3.0),
       st.floats(1e-4, 1e3))
def test_two_power_inversion_property(a, b, y):
    pair = two_power_utility(a, b, 1.0)
    x = -pair.v_prime(y)
    assert abs(pair.u_prime(x) - y) <= 1e-10 * (1.0 + y)


def test_parse_utility_spec():
    pair = parse_utility_spec("exp:gamma=1,C=2")
    assert pair.family == "exponential"
    assert pair.params == {"gamma": 1.0, "C": 2.0}
    pair = parse_utility_spec("twopower:a=0.5,b=1,C=1")
    assert pair.family == "two_power"
    with pytest.raises(Exception):
        parse_utility_spec("cobbdouglas:a=1")


@pytest.mark.parametrize("spec,name", [("exp:gamma=1,C=2,zeta=3", "'zeta'"),
                                       ("twopower:a=0.5,c=1", "'c'"),
                                       ("exp:gamma=-1", "gamma"),
                                       ("exp:gamma=nan", "'gamma'"),
                                       ("twopower:a=2", "a must"),
                                       ("twopower:b=0", "b must")])
def test_parse_utility_spec_names_a_bad_parameter(spec, name):
    with pytest.raises(ParseError, match=name):
        parse_utility_spec(spec)


def test_evaluate_dispatch():
    pair = exponential_utility(1.0, 2.0)
    assert evaluate(pair, "U", 0.0) == pytest.approx(1.0)
    assert evaluate(pair, "U'", 0.0) == pytest.approx(1.0)
    assert evaluate(pair, "V'", 1.0) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        evaluate(pair, "W", 1.0)


@pytest.mark.parametrize("pair", [exponential_utility(1.3, 2.0),
                                  exponential_utility(0.5, 0.0),
                                  two_power_utility(0.4, 1.5, 1.0),
                                  two_power_utility(0.7, 0.5, 2.0)])
def test_inverse_utility_round_trip(pair):
    # levels below and above U(0): the loss and gain branches of each family
    xs = np.concatenate([-np.logspace(-6, 2, 40), [0.0],
                         np.logspace(-6, 1.3, 40)])
    v = pair.u(xs)
    assert np.all(v[:40] < pair.u(0.0)) and np.all(v[41:] > pair.u(0.0))
    back = pair.u(pair.u_inverse(v))
    assert np.all(np.abs(back - v) <= 1e-12 * (1.0 + np.abs(v)))
    assert pair.u_inverse(pair.u(0.25)) == pytest.approx(0.25, rel=1e-12)


def test_inverse_utility_at_supremum():
    pair = exponential_utility(1.0, 2.0)
    assert pair.u_inverse(2.0) == INF
    assert pair.u_inverse(2.5) == INF
