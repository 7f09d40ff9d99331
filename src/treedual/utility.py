"""Utility/conjugate pairs on the whole real line.

Two built-in families:

* ``exponential``: ``U(x) = shift - exp(-gamma*x)/gamma``.
* ``two_power``: polynomial tails ``U(x) = shift + ((1+x)^(1-a) - 1)/(1-a)``
  for ``x >= 0`` and ``U(x) = shift - ((1-x)^(1+b) - 1)/(1+b)`` for ``x < 0``.

A family supplies its closed forms on the U side: U, U', the inverse
marginal I = (U')^-1, the risk aversion A = -U''/U', U's inverse and limits,
and U, U' and A together in one pass over the wealth.
:func:`_pair` derives the conjugate ``V(y) = U(I(y)) - y I(y)``,
``V'(y) = -I(y)`` and ``V''(y) = 1/(y A(I(y)))``, each alone and all three
from one inversion of U' (``v_point``), with explicit infinities at the
boundary: ``V(0) = U(inf)``, ``V(inf) = inf``, ``V'(0) = -inf`` and
``V'(inf) = inf``.  :func:`certify_assumptions` certifies the standing
assumptions numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
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
    and the conjugate its V''(y) = 1/(y A(-V'(y))).  ``u_point`` maps an
    array of wealths to the arrays U, U' and A there, bit for bit as the
    three closed forms give them, in one pass: the Newton core evaluates
    each point by it.  ``v_point`` is its conjugate twin: an array of
    y >= 0 to the arrays V, V' and V'' there, bit for bit as ``v``,
    ``v_prime`` and ``v_second``, from one certified inversion of U'; every
    optimum's value, wealth and W'' and the certification's V grid read it.
    Each family's pair fuses both passes (:func:`_pair`); a pair built
    without one composes it of its own evaluators, so a custom pair is
    evaluated through the functions it was given.
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
    u_point: Callable | None = field(default=None, repr=False)
    v_point: Callable | None = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.u_point is None:
            u, u_prime, risk_aversion = self.u, self.u_prime, self.risk_aversion
            object.__setattr__(self, "u_point",
                               lambda x: (u(x), u_prime(x), risk_aversion(x)))
        if self.v_point is None:
            v, v_prime, v_second = self.v, self.v_prime, self.v_second
            object.__setattr__(self, "v_point", lambda y: (v(y), v_prime(y), v_second(y)))

    def describe(self) -> str:
        ps = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.family}:{ps}"


def _vectorized(fn):
    """Wrap an array-in/array-out function (or one returning a tuple of
    arrays) so scalars come back as floats."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        out = fn(np.atleast_1d(arr))
        if arr.ndim:
            return out
        return tuple(float(o[0]) for o in out) if isinstance(out, tuple) else float(out[0])

    return wrapped


def _pair(family, params, *, u, u_prime, inverse_marginal, risk_aversion, u_inverse,
          u_inf, ae_plus, ae_minus, v_second_at_inf, u_point=None) -> UtilityPair:
    """The pair of a family given by its closed forms on the U side.

    ``u_point``, if given, is the family's fused pass x -> (U, U', A) over
    an array, bit for bit the three closed forms; else the pair composes
    it.  ``inverse_marginal`` solves U'(x) = y for arrays y >= 0, with
    I(0) = inf and I(inf) = -inf; ``v_second_at_inf`` is V'' at y = inf,
    where 1/(y A(I(y))) reads inf * 0.  V, V' and V'' raise
    :class:`DomainError` on a conjugate argument below 0 or NaN.  Each is
    a function of y and of the inversion x = I(y), which ``v_point`` forms
    once for all three.
    """

    def conjugate_point(y):
        if not np.all(y >= 0):  # also false for NaN
            raise DomainError("conjugate argument must be >= 0")
        return inverse_marginal(y)

    def v_at(y, x):
        with np.errstate(over="ignore", invalid="ignore"):
            out = u(x) - x * y
        # inf * 0 at y = 0, inf - inf at y = inf or where U(x) and x y overflow
        out[np.isnan(out)] = INF
        out[y == 0] = u_inf
        return out

    def v_second_at(y, x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = 1.0 / (y * risk_aversion(x))
        out[np.isinf(y)] = v_second_at_inf
        return out

    def v_point(y):
        x = conjugate_point(y)
        return v_at(y, x), -x, v_second_at(y, x)

    return UtilityPair(
        family=family, params=params, u=_vectorized(u), u_prime=_vectorized(u_prime),
        v=_vectorized(lambda y: v_at(y, conjugate_point(y))),
        v_prime=_vectorized(lambda y: -conjugate_point(y)),
        v_second=_vectorized(lambda y: v_second_at(y, conjugate_point(y))),
        risk_aversion=_vectorized(risk_aversion), u_inf=u_inf, ae_plus=ae_plus,
        ae_minus=ae_minus, u_inverse=_vectorized(u_inverse), u_point=u_point,
        v_point=_vectorized(v_point))


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

    def u_point(x):
        up = u_prime(x)
        return c - up / g, up, risk_aversion(x)

    def u_inverse(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = g * (c - v)
            return np.where(gap > 0, -np.log(gap) / g, INF)

    return _pair("exponential", {"gamma": g, "C": c}, u=u, u_prime=u_prime,
                 inverse_marginal=inverse_marginal, risk_aversion=risk_aversion,
                 u_inverse=u_inverse, u_inf=c, ae_plus=0.0, ae_minus=INF,
                 v_second_at_inf=0.0, u_point=u_point)


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

    def u_point(x):
        # U, U' and A off one sign test and one 1 + |x|
        right, t = x >= 0, 1.0 + np.abs(x)
        signed = np.where(right, 1.0 - a, -1.0 - b)
        with np.errstate(over="ignore"):
            return (c + (np.power(t, np.abs(signed)) - 1.0) / signed,
                    np.power(t, np.where(right, -a, b)), np.where(right, a, b) / t)

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
                 v_second_at_inf=INF ** (1.0 / b - 1.0) / b, u_point=u_point)


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


def _joined(grids):
    """The concatenation of ``grids``, read-only, as the pair's evaluators
    receive it, and the slice of each grid in it."""
    ends = np.cumsum([len(g) for g in grids]).tolist()
    joined = np.concatenate(grids)
    joined.setflags(write=False)
    return joined, tuple(slice(a, b) for a, b in zip([0] + ends, ends))


@cache
def _certification_grids():
    """The certification's grids, built at the first certification and kept
    (built at import they would page in NumPy code that a process which
    never certifies does not run).  x is log-spaced out to +-1e6
    (``_CERT_EXTENT``), 400 points on each side of 0, strictly increasing;
    the finite-difference window 1e-3 < |x| < 100 of it (a mask) has steps
    1e-6 (1 + |x|); the tails are +-[1, 1e6] at 60 points; the
    conjugate-growth grid is 200 points y on [1e-6, 1e6]; the biconjugacy
    points are 51 points x in +-[1e-2, 10] and 0.  Then U' and U each at
    the concatenation of the grids that read it, U at 0 last, with the
    slice of each grid."""
    xs = np.concatenate([-np.logspace(math.log10(_CERT_EXTENT), -8, 400), [0.0],
                         np.logspace(-8, math.log10(_CERT_EXTENT), 400)])
    mid = (np.abs(xs) > 1e-3) & (np.abs(xs) < 100.0)
    step = 1e-6 * (1.0 + np.abs(xs[mid]))
    tail = np.logspace(0, math.log10(_CERT_EXTENT), 60)
    conj_x = np.concatenate([-np.logspace(-2, 1, 25), [0.0], np.logspace(-2, 1, 25)])
    return (xs, mid, step, tail, np.logspace(-6, 6, 200), conj_x,
            _joined([xs, tail, -tail, conj_x]),
            _joined([xs[mid] + step, xs[mid] - step, tail, -tail, conj_x, [0.0]]))


def certify_assumptions(pair: UtilityPair) -> CertificationReport:
    """Certify Inada, strict concavity, tail elasticity and conjugate growth.

    Grids are log-spaced out to +-1e6 (``_CERT_EXTENT``), 400 points on each
    side of 0, and built once (:func:`_certification_grids`).  Each closed
    form is evaluated once, over the concatenation of the grids that read
    it: U' at the x grid, the tails and the biconjugacy points; U at the
    finite-difference points, the tails, the biconjugacy points and 0; V,
    V' and V'' in one ``v_point`` pass over the biconjugacy minimizers and
    the conjugate-growth grid, after every check on the U side has passed.
    The Inada conditions U'(inf) = 0 and U'(-inf) = inf are read from the
    log-log slope of U' over the last decade of the grid on which U' is
    finite and positive: below -1e-3 on the right, above 1e-3 on the left.
    The biconjugacy U(x) = min_y V(y) + x y is checked at 51 points x in
    +-[1e-2, 10] and 0 without a search: its minimizer is y = U'(x), where
    ``conjugacy_max_residual`` is the larger of the value residual
    |V(y) + x y - U(x)| / (1 + |U(x)|) and the stationarity residual
    |V'(y) + x| / (1 + |x|); V'' must be positive at these y and on the
    conjugate-growth grid.  Raises :class:`AssumptionFailError` naming the
    first violated assumption; otherwise returns the report with the
    empirical estimates.
    """
    xs, mid, step, tail, ys, conj_x, (up_at, up_parts), (u_at, u_parts) = _certification_grids()
    # strict monotonicity / strict concavity / positive U(0) on a dense grid
    up = pair.u_prime(up_at)
    raw_up, tail_up, left_up, conj_y = (up[part] for part in up_parts)
    if np.any(np.isfinite(raw_up) & (raw_up <= 0) & (xs < 1.0)):
        # underflow of U' at very large x is numeric, not a violation
        raise AssumptionFailError("monotonicity", "U' not strictly positive")
    ok = np.isfinite(raw_up) & (raw_up > 0)
    flat = np.where(np.diff(raw_up[ok]) >= 0)[0]
    if flat.size:
        raise AssumptionFailError("strict concavity",
                                  f"U' non-decreasing near x={xs[ok][flat[0]]:.3g}")
    # U overflows at the finite-difference window's left end for large risk
    # aversion; those points are dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        u = pair.u(u_at)
        u_up, u_down, tail_u, left_u, u_x, (u0,) = (u[part] for part in u_parts)
        if not u0 > 0:
            raise AssumptionFailError("positive utility at zero", f"U(0)={u0:.3g}")

        # C1: central differences of U against U' on a moderate window
        fd = (u_up - u_down) / (2.0 * step)
        upm = raw_up[mid]
        okc = np.isfinite(fd) & np.isfinite(upm)
        if np.max(np.abs(fd[okc] - upm[okc]) / (1.0 + np.abs(upm[okc]))) > 1e-5:
            raise AssumptionFailError("continuous differentiability",
                                      "U' disagrees with finite differences of U")
        tail_prod, left_prod = tail_up * tail_u, left_up * left_u

    # Inada: U' monotone on expanding grids, both directions, and still
    # decaying (growing) like a power over the last decade of the finite
    # window: the log-log slope of U' there must be below -1e-3 on the
    # right and above 1e-3 on the left.  No level test decides this:
    # U' = (1+x)^(-a) tends to 0 for every a > 0 but exceeds 1e-2 at x = 1e6
    # for a < 1/3
    okp = np.isfinite(tail_up) & (tail_up > 0)
    okn = np.isfinite(left_up) & (left_up > 0)
    xp, upp, xn, upn = tail[okp], tail_up[okp], -tail[okn], left_up[okn]
    slope_p = _last_decade_slope(xp, upp)
    slope_n = _last_decade_slope(-xn, upn)
    if not (slope_p < -1e-3 and np.all(np.diff(upp) < 0)
            and slope_n > 1e-3 and np.all(np.diff(upn) > 0)):
        raise AssumptionFailError("Inada conditions",
                                  f"log-log slope of U' {slope_p:.3g} up to "
                                  f"x={xp[-1]:.3g}, {slope_n:.3g} down to "
                                  f"x={xn[-1]:.3g}")

    # tail elasticity x U'(x)/U(x) at the largest grid points where U' U
    # is finite
    i = np.flatnonzero(np.isfinite(tail_prod))[-1]
    ae_plus_est = float(tail[i] * tail_up[i] / tail_u[i])
    i = np.flatnonzero(np.isfinite(left_prod))[-1]
    ae_minus_est = float(-tail[i] * left_up[i] / left_u[i])
    if not ae_plus_est < 1.0 - 1e-3:
        raise AssumptionFailError("reasonable asymptotic elasticity",
                                  f"limsup estimate {ae_plus_est:.6g} not < 1")
    if not ae_minus_est > 1.0 + 1e-3:
        raise AssumptionFailError("reasonable asymptotic elasticity",
                                  f"liminf estimate {ae_minus_est:.6g} not > 1")

    # V, V' and V'' at the biconjugacy minimizers y = U'(x), then the
    # conjugate-growth grid
    curv_y = np.concatenate([conj_y, ys])
    n = conj_y.size
    v_all, vp_all, vs_all = pair.v_point(curv_y)

    # conjugate growth: C' = max y|V'(y)|/V(y) over a log grid (V > 0 when U(0) > 0)
    vy, vpy = v_all[n:], vp_all[n:]
    ok = np.isfinite(vy) & np.isfinite(vpy) & (vy > 0)
    growth = float(np.max(ys[ok] * np.abs(vpy[ok]) / vy[ok]))
    if not math.isfinite(growth):
        raise AssumptionFailError("conjugate growth", "y|V'|/V unbounded on grid")

    # biconjugacy at the minimizer y = U'(x) of V(y) + x y (Fenchel-Young:
    # Rockafellar, Convex Analysis, 1970, Thm 23.5); the value residual is
    # relative to 1 + |U(x)|: U(-10) grows like exp(10 gamma), so an absolute
    # residual fails on rounding alone
    resid = float(np.max(np.maximum(
        np.abs(v_all[:n] + conj_x * conj_y - u_x) / (1.0 + np.abs(u_x)),
        np.abs(vp_all[:n] + conj_x) / (1.0 + np.abs(conj_x)))))
    bent = ~(vs_all > 0)  # also true for NaN
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
