"""The certification of the standing assumptions grid by grid, as a test
oracle.

``certify_assumptions_by_grid`` builds every grid on each call and
evaluates each closed form once per grid that reads it.  It checks the same
assumptions at the same points, with the same tolerances and messages, as
:func:`treedual.utility.certify_assumptions`, which evaluates each closed
form once over the concatenation of its grids, so the two must agree bit
for bit, on every report and every refusal.
"""

import math

import numpy as np

from treedual import AssumptionFailError, CertificationReport

_CERT_EXTENT = 1e6


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


def certify_assumptions_by_grid(pair) -> CertificationReport:
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

