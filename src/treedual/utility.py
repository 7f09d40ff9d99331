"""Utility/conjugate pairs on the whole real line.

Two built-in families:

* ``exponential``: ``U(x) = shift - exp(-gamma*x)/gamma``.
* ``two_power``: polynomial tails ``U(x) = shift + ((1+x)^(1-a) - 1)/(1-a)``
  for ``x >= 0`` and ``U(x) = shift - ((1-x)^(1+b) - 1)/(1+b)`` for ``x < 0``.

A family supplies its closed forms on the U side: U, U', the inverse
marginal I = (U')^-1, the risk aversion A = -U''/U', U's inverse and limits.
:func:`_pair` derives the conjugate ``V(y) = U(I(y)) - y I(y)``,
``V'(y) = -I(y)`` and ``V''(y) = 1/(y A(I(y)))``, with explicit infinities
at the boundary: ``V(0) = U(inf)``, ``V(inf) = inf``, ``V'(0) = -inf`` and
``V'(inf) = inf``.  :func:`certify_assumptions` certifies the standing
assumptions numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import AssumptionFailError, DomainError, ParseError

INF = float("inf")

# certified inversion residual of U' in the conjugate: |U'(x*) - y| <= RES*(1+y)
_MARGINAL_RESIDUAL = 1e-12
_CERT_EXTENT = 1e6  # certification grids span [-1e6, 1e6]


@dataclass(frozen=True, eq=False)
class UtilityPair:
    """A utility function with its convex conjugate and derivatives.

    All evaluators are vectorized over numpy arrays; the built-in families
    supply the U side and :func:`_pair` derives V, V' and V''.  ``u_inf``
    is the supremum of U (finite for the exponential family), and
    ``ae_plus`` and ``ae_minus`` are the claimed tail elasticities.
    ``u_inverse`` maps a utility level back to wealth (+inf at or above
    ``u_inf``); pricing measures values in these certainty-equivalent
    units.  ``risk_aversion`` is the absolute risk aversion A = -U''/U' in
    closed form: it gives the dual Newton core its curvature -U'' = U' A
    and the conjugate its V''(y) = 1/(y A(-V'(y))).
    """

    family: str
    params: Mapping[str, float]
    u: Callable
    u_prime: Callable
    v: Callable
    v_prime: Callable
    v_second: Callable
    risk_aversion: Callable
    u_inf: float
    ae_plus: float
    ae_minus: float
    u_inverse: Callable | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def describe(self) -> str:
        ps = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.family}:{ps}"


def _vectorized(fn):
    """Wrap an array-in/array-out function so scalars come back as floats."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    return wrapped


def _pair(family, params, *, u, u_prime, inverse_marginal, risk_aversion, u_inverse,
          u_inf, ae_plus, ae_minus, v_second_at_inf) -> UtilityPair:
    """The pair of a family given by its closed forms on the U side.

    ``inverse_marginal`` solves U'(x) = y for arrays y >= 0, with I(0) = inf
    and I(inf) = -inf; ``v_second_at_inf`` is V'' at y = inf, where
    1/(y A(I(y))) reads inf * 0.  V, V' and V'' raise :class:`DomainError`
    on a conjugate argument below 0 or NaN.
    """

    def conjugate_point(y):
        if not np.all(y >= 0):  # also false for NaN
            raise DomainError("conjugate argument must be >= 0")
        return inverse_marginal(y)

    def v(y):
        x = conjugate_point(y)
        with np.errstate(over="ignore", invalid="ignore"):
            out = u(x) - x * y
        # inf * 0 at y = 0, inf - inf at y = inf or where U(x) and x y overflow
        out[np.isnan(out)] = INF
        out[y == 0] = u_inf
        return out

    def v_prime(y):
        return -conjugate_point(y)

    def v_second(y):
        x = conjugate_point(y)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = 1.0 / (y * risk_aversion(x))
        out[np.isinf(y)] = v_second_at_inf
        return out

    return UtilityPair(
        family=family, params=params, u=_vectorized(u), u_prime=_vectorized(u_prime),
        v=_vectorized(v), v_prime=_vectorized(v_prime), v_second=_vectorized(v_second),
        risk_aversion=_vectorized(risk_aversion), u_inf=u_inf, ae_plus=ae_plus,
        ae_minus=ae_minus, u_inverse=_vectorized(u_inverse))


# -- exponential family -------------------------------------------------------

def exponential_utility(gamma: float, shift: float = 0.0) -> UtilityPair:
    """Exponential utility with absolute risk aversion ``gamma`` (> 0).

    ``shift`` moves U additively; ``shift > 1/gamma`` makes U(0) positive,
    which the certification checks require.  U' = exp(-gamma x) inverts to
    ``-ln(y)/gamma``, so V(y) = shift + (y/gamma)(ln y - 1).
    """
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    g = float(gamma)
    c = float(shift)

    def u(x):
        with np.errstate(over="ignore"):
            return c - np.exp(-g * x) / g

    def u_prime(x):
        with np.errstate(over="ignore"):
            return np.exp(-g * x)

    def inverse_marginal(y):
        with np.errstate(divide="ignore"):
            return -np.log(y) / g  # inf at 0, -inf at inf

    def risk_aversion(x):
        return np.full_like(x, g)

    def u_inverse(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = g * (c - v)
            return np.where(gap > 0, -np.log(gap) / g, INF)

    return _pair("exponential", {"gamma": g, "C": c}, u=u, u_prime=u_prime,
                 inverse_marginal=inverse_marginal, risk_aversion=risk_aversion,
                 u_inverse=u_inverse, u_inf=c, ae_plus=0.0, ae_minus=INF,
                 v_second_at_inf=0.0)


# -- two-power family ----------------------------------------------------------

def two_power_utility(a: float, b: float, shift: float = 1.0) -> UtilityPair:
    """Polynomial-tail utility: right tail exponent ``1-a``, left ``1+b``.

    Requires ``a`` in (0,1) and ``b > 0``; ``shift > 0`` keeps U(0) positive.
    The marginal is ``U'(x) = (1+x)^(-a)`` for x >= 0 and ``(1-x)^b`` below,
    so it is C^1 at 0 with U'(0) = 1.  Tail elasticities are ``1-a`` and
    ``1+b``.  U' inverts exactly, to ``y^(-1/a) - 1`` for y <= 1 and
    ``1 - y^(1/b)`` above; the risk aversion, and with it V'', jumps at
    x = 0 (y = 1).
    """
    if not (0.0 < a < 1.0):
        raise DomainError("a must lie in (0, 1)")
    if b <= 0:
        raise DomainError("b must be positive")
    a = float(a)
    b = float(b)
    c = float(shift)

    # both tails are powers of 1 + |x|: one power per element, its exponent
    # picked by sign; U divides by the signed exponent 1 - a or -(1 + b)
    def u(x):
        signed = np.where(x >= 0, 1.0 - a, -1.0 - b)
        with np.errstate(over="ignore"):
            return c + (np.power(1.0 + np.abs(x), np.abs(signed)) - 1.0) / signed

    def u_prime(x):
        with np.errstate(over="ignore"):
            return np.power(1.0 + np.abs(x), np.where(x >= 0, -a, b))

    def risk_aversion(x):
        # -U''/U' = a/(1+x) on the right, b/(1-x) on the left
        return np.where(x >= 0, a, b) / (1.0 + np.abs(x))

    def u_inverse(v):
        out = np.empty_like(v)
        up = v >= c
        with np.errstate(over="ignore"):
            out[up] = np.power(1.0 + (1.0 - a) * (v[up] - c), 1.0 / (1.0 - a)) - 1.0
            out[~up] = 1.0 - np.power(1.0 + (1.0 + b) * (c - v[~up]), 1.0 / (1.0 + b))
        return out

    def inverse_marginal(y):
        """Solve U'(x) = y in closed form, with a certified residual.

        Each tail inverts exactly: x = y^(-1/a) - 1 for y <= 1 and
        x = 1 - y^(1/b) above, computed as expm1 of ln y over the tail's
        exponent.  The sentinels follow from IEEE arithmetic: y = 0 gives
        x = inf (U' vanishes only there), y = inf gives x = -inf.  Raises
        ``ArithmeticError`` when a finite x has |U'(x) - y| > 1e-12 (1+y).
        """
        right = y <= 1.0
        with np.errstate(over="ignore", divide="ignore"):
            x = np.expm1(np.log(y) / np.where(right, -a, b))
        np.negative(x, out=x, where=~right)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.abs(u_prime(x) - y)
        bad = ~(resid <= _MARGINAL_RESIDUAL * (1.0 + y)) & np.isfinite(x)
        if np.any(bad):
            raise ArithmeticError(
                f"marginal inversion residual {resid[bad].max():.3e} above target")
        return x

    # V'' = y^(1/b - 1)/b on the left tail, which tends to inf, 1 or 0
    return _pair("two_power", {"a": a, "b": b, "C": c}, u=u, u_prime=u_prime,
                 inverse_marginal=inverse_marginal, risk_aversion=risk_aversion,
                 u_inverse=u_inverse, u_inf=INF, ae_plus=1.0 - a, ae_minus=1.0 + b,
                 v_second_at_inf=INF ** (1.0 / b - 1.0) / b)


# -- generic operations --------------------------------------------------------

_WHICH = {"U": "u", "U'": "u_prime", "V": "v", "V'": "v_prime"}


def evaluate(pair: UtilityPair, which: str, arg):
    """Evaluate U, U', V or V' with the boundary conventions of the pair.

    ``which`` is one of ``"U"``, ``"U'"``, ``"V"``, ``"V'"``.  Conjugate
    arguments must be non-negative; infinities are explicit sentinels.
    """
    try:
        attr = _WHICH[which]
    except KeyError:
        raise DomainError(f"unknown evaluator {which!r}") from None
    return getattr(pair, attr)(arg)


def parse_utility_spec(spec: str) -> UtilityPair:
    """Build a pair from a CLI spec like ``exp:gamma=1,C=2``.

    Families: ``exp`` (params gamma, C) and ``twopower`` (params a, b, C).
    Raises :class:`ParseError` naming an unknown parameter or one whose value
    is not finite or lies outside the family's domain.
    """
    try:
        family, _, rest = spec.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                k, _, v = item.partition("=")
                params[k.strip()] = float(v)
    except ValueError:
        raise ParseError(f"malformed utility spec: {spec!r}") from None
    family = family.strip().lower()
    if family in ("exp", "exponential"):
        make, defaults = exponential_utility, {"gamma": 1.0, "C": 2.0}
    elif family in ("twopower", "two_power"):
        make, defaults = two_power_utility, {"a": 0.5, "b": 1.0, "C": 1.0}
    else:
        raise ParseError(f"unknown utility family {family!r}")
    for k, v in params.items():
        if k not in defaults:
            raise ParseError(f"unknown parameter {k!r} of family {family!r} "
                             f"(expected {', '.join(defaults)})")
        if not math.isfinite(v):
            raise ParseError(f"parameter {k!r} must be finite, got {v!r}")
    try:
        return make(*(params.get(k, v) for k, v in defaults.items()))
    except DomainError as exc:
        raise ParseError(f"utility spec {spec!r}: {exc}") from None


@dataclass(frozen=True)
class CertificationReport:
    """Numeric certification of the standing assumptions on a pair.

    ``ae_plus`` and ``ae_minus`` are the pair's closed-form tail
    elasticities; the ``*_estimate`` fields read x U'(x)/U(x) at the
    largest finite grid points.  :func:`certify_assumptions` raises on a
    failed assumption, so a report is a passed certification.
    """

    ae_plus: float
    ae_minus: float
    ae_plus_estimate: float
    ae_minus_estimate: float
    growth_constant_estimate: float
    conjugacy_max_residual: float
    u_at_zero: float


def _finite_window(f, xs, positive=False):
    """Points of xs (order kept) where f is finite, optionally positive.

    Overflow/underflow at extreme arguments is treated as "outside the
    numeric window" rather than an assumption failure.
    """
    vals = f(xs)
    ok = np.isfinite(vals)
    if positive:
        ok &= vals > 0
    return xs[ok], vals[ok]


def certify_assumptions(pair: UtilityPair) -> CertificationReport:
    """Certify Inada, strict concavity, tail elasticity and conjugate growth.

    Grids are log-spaced out to +-1e6 (``_CERT_EXTENT``), 400 points on each
    side of 0.  The Inada conditions U'(inf) = 0 and U'(-inf) = inf
    are read from the log-log slope of U' over the last decade of the grid
    on which U' is finite and positive: below -1e-3 on the right, above
    1e-3 on the left.  The biconjugacy U(x) = min_y V(y) + x y is checked at
    51 points x in +-[1e-2, 10] and 0 without a search: its minimizer is
    y = U'(x), where ``conjugacy_max_residual`` is the larger of the value
    residual |V(y) + x y - U(x)| / (1 + |U(x)|) and the stationarity
    residual |V'(y) + x| / (1 + |x|); V'' must be positive at these y and
    on the conjugate-growth grid.  Raises :class:`AssumptionFailError`
    naming the first violated assumption; otherwise returns the report
    with the empirical estimates.
    """
    # strict monotonicity / strict concavity / positive U(0) on a dense grid
    xs = np.concatenate([
        -np.logspace(math.log10(_CERT_EXTENT), -8, 400),
        [0.0],
        np.logspace(-8, math.log10(_CERT_EXTENT), 400),
    ])
    xs = np.unique(xs)
    raw_up = pair.u_prime(xs)
    if np.any(np.isfinite(raw_up) & (raw_up <= 0) & (xs < 1.0)):
        # underflow of U' at very large x is numeric, not a violation
        raise AssumptionFailError("monotonicity", "U' not strictly positive")
    xs_f, up = _finite_window(pair.u_prime, xs, positive=True)
    flat = np.where(np.diff(up) >= 0)[0]
    if flat.size:
        raise AssumptionFailError("strict concavity",
                                  f"U' non-decreasing near x={xs_f[flat[0]]:.3g}")
    u0 = pair.u(0.0)
    if not u0 > 0:
        raise AssumptionFailError("positive utility at zero", f"U(0)={u0:.3g}")

    # C1: central differences of U against U' on a moderate window
    # (U overflows at the window's left end for large risk aversion; those
    # points are dropped below)
    mid = xs[(np.abs(xs) > 1e-3) & (np.abs(xs) < 100.0)]
    h = 1e-6 * (1.0 + np.abs(mid))
    with np.errstate(over="ignore", invalid="ignore"):
        fd = (pair.u(mid + h) - pair.u(mid - h)) / (2.0 * h)
        upm = pair.u_prime(mid)
    okc = np.isfinite(fd) & np.isfinite(upm)
    if np.max(np.abs(fd[okc] - upm[okc]) / (1.0 + np.abs(upm[okc]))) > 1e-5:
        raise AssumptionFailError("continuous differentiability",
                                  "U' disagrees with finite differences of U")

    # Inada: U' monotone on expanding grids, both directions, and still
    # decaying (growing) like a power over the last decade of the finite
    # window: the log-log slope of U' there must be below -1e-3 on the
    # right and above 1e-3 on the left.  No level test decides this:
    # U' = (1+x)^(-a) tends to 0 for every a > 0 but exceeds 1e-2 at x = 1e6
    # for a < 1/3
    pos_grid = np.logspace(0, math.log10(_CERT_EXTENT), 60)
    xp, upp = _finite_window(pair.u_prime, pos_grid, positive=True)
    xn, upn = _finite_window(pair.u_prime, -pos_grid, positive=True)
    slope_p = _last_decade_slope(xp, upp)
    slope_n = _last_decade_slope(-xn, upn)
    if not (slope_p < -1e-3 and np.all(np.diff(upp) < 0)
            and slope_n > 1e-3 and np.all(np.diff(upn) > 0)):
        raise AssumptionFailError("Inada conditions",
                                  f"log-log slope of U' {slope_p:.3g} up to "
                                  f"x={xp[-1]:.3g}, {slope_n:.3g} down to "
                                  f"x={xn[-1]:.3g}")

    # tail elasticity x U'(x)/U(x) at the largest finite grid points
    def elasticity(x):
        return x * pair.u_prime(x) / pair.u(x)

    with np.errstate(over="ignore", invalid="ignore"):
        xp_f, _ = _finite_window(lambda t: pair.u_prime(t) * pair.u(t), pos_grid)
        xn_f, _ = _finite_window(lambda t: pair.u_prime(t) * pair.u(t), -pos_grid)
    ae_plus_est = float(elasticity(xp_f[-1]))
    ae_minus_est = float(elasticity(xn_f[-1]))
    if not ae_plus_est < 1.0 - 1e-3:
        raise AssumptionFailError("reasonable asymptotic elasticity",
                                  f"limsup estimate {ae_plus_est:.6g} not < 1")
    if not ae_minus_est > 1.0 + 1e-3:
        raise AssumptionFailError("reasonable asymptotic elasticity",
                                  f"liminf estimate {ae_minus_est:.6g} not > 1")

    # conjugate growth: C' = max y|V'(y)|/V(y) over a log grid (V > 0 when U(0) > 0)
    ys = np.logspace(-6, 6, 200)
    vy = pair.v(ys)
    vpy = pair.v_prime(ys)
    ok = np.isfinite(vy) & np.isfinite(vpy) & (vy > 0)
    growth = float(np.max(ys[ok] * np.abs(vpy[ok]) / vy[ok]))
    if not math.isfinite(growth):
        raise AssumptionFailError("conjugate growth", "y|V'|/V unbounded on grid")

    # biconjugacy at the minimizer y = U'(x) of V(y) + x y (Fenchel-Young:
    # Rockafellar, Convex Analysis, 1970, Thm 23.5); the value residual is
    # relative to 1 + |U(x)|: U(-10) grows like exp(10 gamma), so an absolute
    # residual fails on rounding alone
    conj_x = np.concatenate([-np.logspace(-2, 1, 25), [0.0],
                             np.logspace(-2, 1, 25)])
    conj_y = pair.u_prime(conj_x)
    u_x = pair.u(conj_x)
    resid = float(np.max(np.maximum(
        np.abs(pair.v(conj_y) + conj_x * conj_y - u_x) / (1.0 + np.abs(u_x)),
        np.abs(pair.v_prime(conj_y) + conj_x) / (1.0 + np.abs(conj_x)))))
    curv_y = np.concatenate([conj_y, ys])
    bent = ~(pair.v_second(curv_y) > 0)  # also true for NaN
    if np.any(bent):
        raise AssumptionFailError("strict convexity of the conjugate",
                                  f"V'' not positive at y={curv_y[bent][0]:.3g}")

    return CertificationReport(
        ae_plus=pair.ae_plus,
        ae_minus=pair.ae_minus,
        ae_plus_estimate=ae_plus_est,
        ae_minus_estimate=ae_minus_est,
        growth_constant_estimate=growth,
        conjugacy_max_residual=resid,
        u_at_zero=float(u0),
    )


def _last_decade_slope(xs, vals):
    """Log-log slope of ``vals`` over the last decade of the positive grid xs."""
    first = np.searchsorted(xs, xs[-1] / 10.0)
    return float(np.log(vals[-1] / vals[first]) / np.log(xs[-1] / xs[first]))

