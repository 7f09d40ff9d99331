"""Dual problem: entropy-plus-endowment minimization over the martingale cone.

The objective is ``F(mu) = sum_l [ p_l V(mu_l/p_l) + mu_l e_l ]`` minimized
over non-negative leaf measures satisfying the martingale equality rows (and
optionally a fixed total mass).  Two solvers share the result type.

* Exponential family: exponential utility does not depend on wealth, so the
  dual is solved exactly by backward induction on the log-partition (Rouge &
  El Karoui, *Math. Finance* 10, 2000; Delbaen et al., *Exponential hedging
  and entropic penalties*, *Math. Finance* 12, 2002).  Each non-leaf node n
  takes ``L_n = min_k logsumexp_c(ln p_(c|n) + L_c - gamma k.dS_c)`` over its
  live children, from ``L_leaf = -gamma e``; the value is
  ``C - exp(L_root)/gamma``, the mass ``exp(L_root)`` and the normalized
  optimizer the product of the nodes' softmax weights.  Masses like
  e^-1000 are exact in this form.
* Two-power family, ``dynamic_dual`` and the tests' oracle: damped Newton
  in the null space of the equality rows, from a strictly positive feasible
  point, with the analytic V'' of the pair, fraction-to-boundary steps and
  Armijo acceptance; where the objective is flat to rounding a step is
  accepted when it shrinks the projected gradient.  V'(0) = -inf keeps
  every optimum off the boundary, so no barrier is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import null_space

from .errors import (EvaluationOverflowError, InfeasibleEntropyError,
                     NoMartingaleMeasureError, NonconvergedError,
                     ValueAtSupremumError)
from .geometry import (MeasureVector, SupportStructure, _support_structure,
                       build_constraints, relative_entropy)
from .market import MarketTree, leaf_values
from .utility import UtilityPair

DEFAULT_TOL = 1e-9
DEFAULT_NEWTON_CAP = 200
_VALUE_FLOOR = -1e250  # below this the optimal utility is numerically -inf


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal measure, mass, normalization, value and diagnostics.

    ``stationarity`` is the exit residual of the solver: for the exponential
    family the largest one-step drift of the normalized optimizer over the
    non-leaf nodes, |E[dS | n]| / (1 + |S_n|) in the max norm; for the Newton
    core the projected-gradient norm |Z'g| / (1 + |g|).  ``iterations`` logs
    the Newton steps taken.
    """

    tree: MarketTree
    pair: UtilityPair
    mu: MeasureVector
    mass: float
    q_hat: MeasureVector
    value: float
    stationarity: float
    support: str                      # "EQUIVALENT" | "DEGENERATE"
    iterations: tuple[dict, ...]
    _mu_arr: np.ndarray = field(repr=False, default=None)
    _endow_arr: np.ndarray = field(repr=False, default=None)
    _q_arr: np.ndarray = field(repr=False, default=None)
    _log_mass: float = field(repr=False, default=None)  # exact where mass underflows

    @property
    def q_hat_array(self) -> np.ndarray:
        return self._q_arr

    @property
    def density_array(self) -> np.ndarray:
        return self._mu_arr / self.tree.leaf_probability_array


def _solution(tree, pair, e, mu, q, mass, log_mass, value, residual, flag, steps):
    return DualSolution(
        tree=tree, pair=pair,
        mu=MeasureVector.from_array(tree, mu),
        mass=mass,
        q_hat=MeasureVector.from_array(tree, q),
        value=value,
        stationarity=residual,
        support=flag,
        iterations=({"steps": steps, "residual": residual},),
        _mu_arr=mu, _endow_arr=e, _q_arr=q, _log_mass=log_mass)


# -- exponential family: backward induction in log space ------------------------

_LSE_CAP = 100  # damped Newton steps per level


def _lse_min(b, x):
    """``min_k logsumexp_c(b_c - x_c.k)`` for a batch of g nodes.

    ``b`` (g, m) is -inf and ``x`` (g, m, d) zero at padding.  Newton steps
    with Levenberg-Marquardt damping relative to the trace of the Hessian,
    the covariance of x under the softmax weights, which is near-singular
    where the weights sit on few children.  A step moves no exponent by more
    than one unit and is doubled while that keeps lowering the value, which
    crosses exponential tails in a few steps; it is accepted on a quarter of
    its predicted decrease or, where the value is flat to rounding, on a
    smaller gradient.  A node is done once its gradient and predicted
    decrease are at rounding level, or once a step fails with its predicted
    decrease below rounding.  Returns the minima, log softmax weights,
    gradients E_w[x] (up to sign) and steps.
    """
    top_b = b.max(axis=1)
    b = b - top_b[:, None]
    g, _, d = x.shape

    def evaluate(k):
        z = b - np.einsum("gmd,gd->gm", x, k)
        top = z.max(axis=1)
        f = top + np.log(np.exp(z - top[:, None]).sum(axis=1))
        return f, z - f[:, None], np.einsum("gm,gmd->gd", np.exp(z - f[:, None]), x)

    scale = np.abs(x).max(axis=(1, 2))
    damp, k, active = np.full(g, 1e-3), np.zeros((g, d)), np.ones(g, dtype=bool)
    f, logw, mean = evaluate(k)
    for steps in range(_LSE_CAP + 1):
        gnorm = np.abs(mean).max(axis=1)
        # rounding level of the gradient: exponents are b - x.k
        gtol = scale * (1e-13 + 1e-15 * np.abs(np.einsum("gmd,gd->gm", x, k)).max(axis=1))
        dev = x - mean[:, None, :]   # centred: E[x x'] - mean mean' cancels
        hess = np.einsum("gm,gmd,gme->gde", np.exp(logw), dev, dev)
        lam = damp * (np.trace(hess, axis1=1, axis2=2) + 1e-30 * scale ** 2)
        active &= gnorm > 0.0
        step = np.zeros((g, d))
        step[active] = np.linalg.solve(hess[active] + lam[active, None, None] * np.eye(d),
                                       mean[active, :, None])[..., 0]
        shift = np.abs(np.einsum("gmd,gd->gm", x, step)).max(axis=1)
        clipped = shift > 1.0
        step[clipped] /= shift[clipped, None]
        pred = (mean * step).sum(axis=1) - 0.5 * np.einsum("gd,gde,ge->g", step, hess, step)
        active &= ((gnorm > gtol) | (pred > 1e-17 * (1.0 + np.abs(f + top_b)))
                   | (damp > 1e-2))
        if not active.any():
            break
        if steps == _LSE_CAP:
            raise NonconvergedError(
                f"log-partition Newton cap {_LSE_CAP} reached at {active.sum()} nodes")
        f1, logw1, mean1 = evaluate(k + step)
        tiny = 1e-15 * (1.0 + np.abs(f))
        ok = active & (((f1 < f) & (f1 <= f - 0.25 * pred))
                       | ((f1 <= f + tiny) & (np.abs(mean1).max(axis=1) <= 0.5 * gnorm)))
        active &= ok | (pred > tiny)   # else no change is measurable
        grow, alpha = ok & (clipped | (f - f1 > pred + tiny)), np.ones(g)
        while grow.any():
            f2, logw2, mean2 = evaluate(k + 2.0 * alpha[:, None] * step)
            grow &= f2 < f1
            alpha[grow] *= 2.0
            f1[grow], logw1[grow], mean1[grow] = f2[grow], logw2[grow], mean2[grow]
        k[ok] += alpha[ok, None] * step[ok]
        f[ok], logw[ok], mean[ok] = f1[ok], logw1[ok], mean1[ok]
        damp = np.where(ok, np.maximum(0.25 * damp / alpha, 1e-12), 4.0 * damp)
    return f + top_b, logw, mean, steps


@lru_cache(maxsize=256)
def _live_levels(geo: SupportStructure):
    """Per non-leaf level, bottom-up, the live nodes (g,), their padded live
    children (g, m) with a mask, log branch probabilities (-inf at padding)
    and price increments (g, m, d; zero at padding and below a node with one
    live child, where it is zero up to the support tolerance).  A child is
    live when a valid one-step vertex of its live parent charges it.
    """
    lay = geo.layout
    n, starts = len(lay.ids), lay.level_starts
    live = np.zeros(n, dtype=bool)
    live[geo.child[geo.weight > 0]] = live[0] = True
    for lo, hi in zip(starts[1:-1], starts[2:]):
        live[lo:hi] &= live[lay.parent[lo:hi]]
    count = np.diff(lay.first_child, append=n)
    out = []
    for lo, hi in zip(starts[-3::-1], starts[-2:0:-1]):
        node = lo + np.flatnonzero(live[lo:hi])
        kids = np.minimum(lay.first_child[node, None] + np.arange(count[node].max()), n - 1)
        on = (np.arange(kids.shape[1]) < count[node, None]) & live[kids]
        with np.errstate(divide="ignore"):
            lnp = np.where(on, np.log(lay.prob[kids]), -np.inf)
        dS = np.where((on & (on.sum(axis=1, keepdims=True) > 1))[..., None],
                      lay.prices[kids] - lay.prices[node, None], 0.0)
        out.append((node, kids, on, lnp, dS))
    return tuple(out)


def _log_partition(tree, gamma, e):
    """Backward induction on ``L_n = ln min_h E[exp(-gamma(e + gains)) | n]``.

    Returns L at the root, the log normalized optimizer on the leaves (-inf
    off the maximal support), its largest scaled one-step drift and the
    Newton steps taken."""
    lay = tree.layout
    inner = lay.level_starts[-2]
    big_l = np.concatenate([np.zeros(inner), -gamma * e])
    logw = np.concatenate([[0.0], np.full(len(lay.ids) - 1, -np.inf)])
    drift, steps = 0.0, 0
    for node, kids, on, lnp, dS in _live_levels(_support_structure(tree)):
        big_l[node], lw, mean, used = _lse_min(lnp + big_l[kids], gamma * dS)
        logw[kids[on]] = lw[on]
        steps += used
        s = np.abs(lay.prices[node]).max(axis=1)
        drift = max(drift, float((np.abs(mean).max(axis=1) / gamma / (1.0 + s)).max()))
    for lo, hi in zip(lay.level_starts[1:-1], lay.level_starts[2:]):
        logw[lo:hi] += logw[lay.parent[lo:hi]]
    return float(big_l[0]), logw[inner:], drift, steps


def _log_space_solution(tree, pair, endow, mass=None) -> DualSolution:
    """The exponential family's optimum (at total mass ``mass`` if given).

    The normalized optimizer does not depend on the mass, so the fixed-mass
    optimum is ``mass * q_hat`` with value ``C + mass (ln mass - 1 - L)/gamma``.
    Raises nothing for extreme endowments: the log-mass stays exact when the
    mass or the value leaves the floating-point range.
    """
    gamma, c = pair.params["gamma"], pair.params["C"]
    e = leaf_values(tree, endow)
    _, _, flag = _prepare(tree, pair)
    log_z, log_q, drift, steps = _log_partition(tree, gamma, e)
    log_y = log_z if mass is None else math.log(mass)
    with np.errstate(over="ignore"):
        y = float(np.exp(log_z)) if mass is None else mass
        value = c - y / gamma if mass is None else c + y * (log_y - 1.0 - log_z) / gamma
        mu = np.exp(log_y + log_q)
    return _solution(tree, pair, e, mu, np.exp(log_q), y, log_y, value, drift, flag, steps)


# -- Newton core ------------------------------------------------------------------


def _objective(pair, p, e, mu):
    dens = mu / p
    vals = pair.v(dens)
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.dot(p, vals) + np.dot(mu, e))


def _gradient(pair, p, e, mu):
    return pair.v_prime(mu / p) + e


def _newton_core(A, p, e, pair, q0, *, mass=None, tol=DEFAULT_TOL,
                 newton_cap=DEFAULT_NEWTON_CAP, start_mu=None):
    """Minimize F over {A mu = 0 (, sum mu = mass), mu > 0} by damped Newton.

    ``q0`` must be strictly positive and feasible for the equalities with
    unit mass; ``start_mu``, when strictly positive (and feasible), replaces
    it as the starting point.  Each step is the Newton step on the equality
    rows' null space Z, computed in the H^-1/2 scaling with the rows then
    restored to rounding, and stops 1% short of the boundary.  It is
    accepted on Armijo decrease, or, where the objective is flat to
    rounding, on a smaller stationarity |Z'g| / (1 + |g|).  Returns (mu,
    value, residual, iteration log).
    """
    M = A if mass is None else np.vstack([A, np.ones((1, p.size))])
    rhs = np.append(np.zeros(len(A)), [] if mass is None else [mass])
    Z = null_space(M) if M.size else np.eye(p.size)
    if start_mu is not None and np.all(np.asarray(start_mu) > 0):
        mu = np.array(start_mu, dtype=float)
    else:
        mu = q0 * (1.0 if mass is None else mass)

    def residual(g):
        if not np.all(np.isfinite(g)):
            return math.inf
        return float(np.linalg.norm(Z.T @ g)) / (1.0 + float(np.linalg.norm(g)))

    f = _objective(pair, p, e, mu)
    g = _gradient(pair, p, e, mu)
    res = residual(g)
    steps = 0
    while res > tol:
        if steps >= newton_cap:
            raise NonconvergedError(
                f"Newton cap {newton_cap} reached (stationarity {res:.3e})",
                best=mu, residual=res)
        # Newton step -H^-1 (g - M'lam) with lam fitted in the H^-1/2 scaling,
        # which resolves masses many orders of magnitude apart
        s = np.sqrt(p / pair.v_second(mu / p))
        lam, *_ = np.linalg.lstsq(M.T * s[:, None], s * g, rcond=None)
        r = s * (g - M.T @ lam)
        dmu = -s * r
        # restore M (mu + dmu) = rhs to rounding, in the same scaling
        fix, *_ = np.linalg.lstsq(M * s, rhs - M @ (mu + dmu), rcond=None)
        dmu += s * fix
        neg = dmu < 0
        alpha = min(1.0, 0.99 * float(np.min(-mu[neg] / dmu[neg]))) if neg.any() else 1.0
        slope = -float(r @ r)
        # the rounding level of F: its leaf terms are of the order of mu |g|
        flat = 1e-14 * (1.0 + abs(f) + float(mu @ np.abs(g)))
        for _ in range(60):
            trial = mu + alpha * dmu
            f1 = _objective(pair, p, e, trial)
            if f1 <= f + flat:
                g1 = _gradient(pair, p, e, trial)
                if f1 < f and f1 <= f + 1e-4 * alpha * slope or residual(g1) < res:
                    break
            alpha *= 0.5
        else:
            raise NonconvergedError(
                f"no acceptable step at stationarity {res:.3e} above tolerance "
                f"{tol:.1e}", best=mu, residual=res)
        mu, f, g = trial, f1, g1
        res = residual(g)
        steps += 1
    return mu, f, res, ({"steps": steps, "residual": res},)


# -- public solver ---------------------------------------------------------------


def _prepare(tree, pair):
    """Support mask, interior start and flag for the tree's polytope."""
    geo = _support_structure(tree)
    flag = "EQUIVALENT" if bool(geo.mask.all()) else "DEGENERATE"
    if flag == "DEGENERATE" and not math.isfinite(pair.u_inf):
        # V(0) = U(inf) = inf: every feasible measure has infinite entropy
        raise InfeasibleEntropyError(
            "no full-support martingale measure and V(0) is infinite; "
            "the dual is +inf over the whole cone")
    return geo.mask, geo.interior, flag


def _core_solution(tree, pair, endow, mass, tol, newton_cap, start):
    """Dense Newton core on the maximal support (the two-power family)."""
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    mask, q_int, flag = _prepare(tree, pair)
    mu_s, value, res, log = _newton_core(
        build_constraints(tree).matrix[:, mask], p[mask], e[mask], pair,
        q_int[mask], mass=mass, tol=tol, newton_cap=newton_cap,
        start_mu=None if start is None else start[mask])
    mu = np.zeros(tree.n_leaves)
    mu[mask] = mu_s
    if flag == "DEGENERATE":
        value = _objective(pair, p, e, mu)  # adds the V(0) terms of dead leaves
    y = float(mu.sum())
    return _solution(tree, pair, e, mu, mu / y, y, math.log(y), value, res, flag,
                     log[-1]["steps"])


def solve_dual(tree: MarketTree, pair: UtilityPair, endow=0.0, *,
               tol: float = DEFAULT_TOL, newton_cap: int = DEFAULT_NEWTON_CAP,
               start=None) -> DualSolution:
    """Minimize entropy plus endowment cost over the martingale cone.

    ``endow`` is a RandomVariable / mapping / array / scalar on the leaves.
    Returns the unique optimal measure with its mass, normalization, value
    and stationarity residual.  The support flag is DEGENERATE when no
    equivalent martingale measure exists (the optimum then sits on the
    boundary and primal recovery refuses).  ``start`` (a measure or leaf
    array) warm-starts the Newton core.  The exponential family is solved
    exactly in log space, ignoring ``tol``, ``newton_cap`` and ``start``; it
    raises :class:`EvaluationOverflowError` for a value below -1e250 and
    :class:`ValueAtSupremumError` when the optimal mass underflows to 0.
    """
    if pair.family == "exponential":
        sol = _log_space_solution(tree, pair, endow)
        if not sol.value >= _VALUE_FLOOR:
            raise EvaluationOverflowError(
                "dual objective fell below the floating-point range")
        if sol.mass == 0.0:
            raise ValueAtSupremumError(
                f"optimal value {sol.value!r} (log dual mass {sol._log_mass!r}) is "
                f"within rounding of sup U = {pair.u_inf!r}")
        return sol
    arr = None
    if start is not None:
        arr = start.as_array(tree) if isinstance(start, MeasureVector) \
            else leaf_values(tree, start)
        if np.any(arr[~_support_structure(tree).mask] > 0):
            raise NoMartingaleMeasureError("start measure charges dead leaves")
    return _core_solution(tree, pair, endow, None, tol, newton_cap, arr)


def solve_dual_fixed_mass(tree: MarketTree, pair: UtilityPair, endow, y: float, *,
                          tol: float = DEFAULT_TOL,
                          newton_cap: int = DEFAULT_NEWTON_CAP,
                          start=None) -> DualSolution:
    """Same as :func:`solve_dual` with total mass pinned to ``y > 0``.

    The exponential family's optimum is ``y`` times the normalized
    optimizer of :func:`solve_dual` (one log-space pass; ``tol``,
    ``newton_cap`` and ``start`` are ignored there).
    """
    if y <= 0:
        raise NoMartingaleMeasureError("mass must be positive")
    if pair.family == "exponential":
        return _log_space_solution(tree, pair, endow, mass=float(y))
    return _core_solution(tree, pair, endow, float(y), tol, newton_cap, start)


@dataclass(frozen=True)
class CurvePoint:
    y: float
    value: float
    q_hat: MeasureVector
    derivative: float


@dataclass(frozen=True)
class CurveReport:
    points: tuple[CurvePoint, ...]
    min_second_difference: float    # convexity margin on the given grid
    min_value: float


def dual_value_curve(tree: MarketTree, pair: UtilityPair, endow,
                     ys: Sequence[float], *, tol: float = DEFAULT_TOL,
                     newton_cap: int = DEFAULT_NEWTON_CAP) -> CurveReport:
    """The mass-indexed dual value curve on a grid of positive masses.

    Each point solves the inner problem with total mass pinned; the report
    carries the worst second difference as a numeric convexity certificate.
    """
    ys = [float(y) for y in ys]
    if any(y <= 0 for y in ys):
        raise NoMartingaleMeasureError("curve masses must be positive")
    pts = []
    prev = None
    for y in sorted(ys):
        start = prev._mu_arr * (y / prev.mass) if prev is not None else None
        sol = solve_dual_fixed_mass(tree, pair, endow, y, tol=tol,
                                    newton_cap=newton_cap, start=start)
        d = float(np.dot(sol.q_hat_array,
                         pair.v_prime(sol.density_array) + sol._endow_arr))
        pts.append(CurvePoint(y=y, value=sol.value, q_hat=sol.q_hat, derivative=d))
        prev = sol
    second = math.inf
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        la = (b.value - a.value) / (b.y - a.y)
        lb = (c.value - b.value) / (c.y - b.y)
        second = min(second, lb - la)
    return CurveReport(points=tuple(pts),
                       min_second_difference=second,
                       min_value=min(p.value for p in pts))


def dual_derivative(tree: MarketTree, pair: UtilityPair, endow, y: float, *,
                    tol: float = DEFAULT_TOL) -> float:
    """Derivative of the mass-indexed dual value at ``y``.

    Evaluated by the envelope formula: the conditional expectation, under the
    inner optimizer at mass ``y``, of V' of its density plus the endowment.
    """
    sol = solve_dual_fixed_mass(tree, pair, endow, y, tol=tol)
    return float(np.dot(sol.q_hat_array,
                        pair.v_prime(sol.density_array) + sol._endow_arr))


@dataclass(frozen=True)
class SupportCheck:
    violations: tuple[tuple[int, str], ...]  # (vertex index, leaf id)
    vertices_tested: int
    vertices_skipped_infinite_entropy: int


def check_maximal_support(tree: MarketTree, sol: DualSolution,
                          vertices) -> SupportCheck:
    """Check that the optimal measure dominates every finite-entropy vertex.

    Any leaf charged by a finite-entropy polytope vertex must also be charged
    by the optimal measure (the optimizer is "as equivalent as possible").
    Report-only.
    """
    mu = sol._mu_arr
    thresh = 1e-12 * (1.0 + sol.mass)
    violations = []
    tested = 0
    skipped = 0
    for k, vtx in enumerate(vertices):
        if not math.isfinite(relative_entropy(tree, sol.pair, vtx)):
            skipped += 1
            continue
        tested += 1
        q = vtx.as_array(tree)
        for i, leaf in enumerate(tree.leaf_ids):
            if q[i] > 1e-10 and mu[i] <= thresh:
                violations.append((k, leaf))
    return SupportCheck(tuple(violations), tested, skipped)
