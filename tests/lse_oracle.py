"""The damped log-space kernel: the named oracle of ``dual._lse_min``.

``damped_lse_min`` minimizes ``logsumexp_c(b_c - x_c.k)`` row by row with a
line search, independently of the package's kernel: Newton steps under
Levenberg-Marquardt damping relative to the trace of the Hessian (the
covariance of x under the softmax weights), which falls a hundredfold on
each accepted step to 1e-16, so that the last steps are plain Newton steps;
a step moves no exponent by more than one unit, and a clipped step is
doubled while that keeps lowering the value.  A step s is accepted on a
quarter of its predicted decrease ``(E_w[x] - H s / 2).s`` or, where the
value is flat to rounding, on a smaller gradient.  A row is done once its
gradient and predicted decrease are at rounding level, or once a step fails
with its predicted decrease below rounding.  Its damped systems are solved
by Cramer's rule for d <= 2 and by LAPACK beyond, a pseudo-inverse where
LAPACK finds a system singular.
"""

from __future__ import annotations

import numpy as np

CAP = 100  # damped Newton steps


def point(b, x, k):
    """At k (g, d): f = logsumexp_c(b_c - x_c.k), the softmax weights (g,
    m), their mean of x (g, d) and x.k (g, m)."""
    xk = np.einsum("gmd,gd->gm", x, k)
    z = b - xk
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    total = e.sum(axis=1)
    w = e / total[:, None]
    return top + np.log(total), w, np.einsum("gm,gmd->gd", w, x), xk


def _solve(a, rhs):
    d = rhs.shape[1]
    if d == 1:
        return rhs / a[:, 0]
    if d == 2:   # a singular damped system steps to inf or nan, which no trial accepts
        det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.stack([a[:, 1, 1] * rhs[:, 0] - a[:, 0, 1] * rhs[:, 1],
                             a[:, 0, 0] * rhs[:, 1] - a[:, 1, 0] * rhs[:, 0]], axis=1) / det[:, None]
    try:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return (np.linalg.pinv(a) @ rhs[:, :, None])[:, :, 0]


def _select(mask, new, old):
    return tuple(np.where(mask if a.ndim == 1 else mask[:, None], a, c)
                 for a, c in zip(new, old))


def damped_lse_min(b, x, k0):
    """The minima (g,), the minimizers k (g, d) and the steps, from k0;
    ``b`` (g, m) is -inf and ``x`` (g, m, d) zero at padding.  Raises
    AssertionError at the cap."""
    top_b = b.max(axis=1)
    b = b - top_b[:, None]
    scale = np.abs(x).max(axis=(1, 2))
    floor = 1e-30 * scale ** 2
    d = x.shape[2]
    damp, k, active = np.full(len(b), 1e-3), k0, np.ones(len(b), dtype=bool)
    now = point(b, x, k)
    for steps in range(CAP + 1):
        f, w, mean, xk = now
        gnorm = np.abs(mean).max(axis=1)
        gtol = scale * (1e-13 + 1e-15 * np.abs(xk).max(axis=1))
        dev = x - mean[:, None, :]
        hess = np.einsum("gm,gmd,gme->gde", w, dev, dev)
        active &= gnorm > 0.0
        lam = np.where(active, damp * (np.trace(hess, axis1=1, axis2=2) + floor), 1.0)
        step = _solve(hess + lam[:, None, None] * np.eye(d), np.where(active[:, None], mean, 0.0))
        shift = np.abs(np.einsum("gmd,gd->gm", x, step)).max(axis=1)
        clipped = shift > 1.0
        step /= np.maximum(shift, 1.0)[:, None]
        pred = ((mean - 0.5 * np.einsum("gde,ge->gd", hess, step)) * step).sum(axis=1)
        active &= ((gnorm > gtol) | (pred > 1e-17 * (1.0 + np.abs(f + top_b)))
                   | (damp > 1e-2))
        if not active.any():
            break
        assert steps < CAP, f"damped oracle cap {CAP} reached at {active.sum()} rows"
        trial = point(b, x, k + step)
        f1 = trial[0]
        tiny = 1e-15 * (1.0 + np.abs(f))
        ok = active & (((f1 < f) & (f1 <= f - 0.25 * pred))
                       | ((f1 <= f + tiny) & (np.abs(trial[2]).max(axis=1) <= 0.5 * gnorm)))
        active &= ok | (pred > tiny)
        grow, alpha = ok & clipped, 1.0
        while grow.any():
            longer = point(b, x, k + 2.0 * step)
            grow &= longer[0] < trial[0]
            alpha = np.where(grow, 2.0 * alpha, alpha)
            step = np.where(grow[:, None], 2.0 * step, step)
            trial = _select(grow, longer, trial)
        k = np.where(ok[:, None], k + step, k)
        now = _select(ok, trial, now)
        damp = np.where(ok, np.maximum(0.01 * damp / alpha, 1e-16), 4.0 * damp)
    return now[0] + top_b, k, steps
