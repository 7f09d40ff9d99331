"""Dual problem: entropy-plus-endowment minimization over the martingale cone.

The objective is ``F(mu) = sum_l [ p_l V(mu_l/p_l) + mu_l e_l ]`` minimized
over non-negative leaf measures satisfying the martingale equality rows (and
optionally a fixed total mass).  The solver is a primal-feasible interior
point method: a logarithmic barrier on ``mu >= 0`` with Newton steps in the
null space of the equality rows, barrier weight shrunk geometrically, and a
final barrier-free polish.  Curvature uses the analytic V'' of the pair,
and each point's conjugate values are computed once and carried along.

Stationarity is measured by the norm of the gradient projected onto the
feasible directions, with sign conditions at leaves whose optimal mass is at
the numerical floor (those arise when the optimal density underflows; the
objective value is still accurate there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import null_space

from .errors import (EvaluationOverflowError, InfeasibleEntropyError,
                     NoMartingaleMeasureError, NonconvergedError,
                     ValueAtSupremumError)
from .geometry import (MeasureVector, _support_structure, build_constraints,
                       relative_entropy)
from .market import MarketTree, RandomVariable, leaf_values
from .utility import UtilityPair

DEFAULT_TOL = 1e-9
DEFAULT_NEWTON_CAP = 200
BARRIER_SHRINK = 0.2
_VALUE_FLOOR = -1e250  # below this the optimal utility is numerically -inf


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal measure, mass, normalization, value and diagnostics."""

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

    @property
    def q_hat_array(self) -> np.ndarray:
        return self._mu_arr / self.mass

    @property
    def density_array(self) -> np.ndarray:
        return self._mu_arr / self.tree.leaf_probability_array


# -- raw Newton core -----------------------------------------------------------


def _objective(pair, p, e, mu):
    dens = mu / p
    vals = pair.v(dens)
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.dot(p, vals) + np.dot(mu, e))


def _gradient(pair, p, e, mu):
    return pair.v_prime(mu / p) + e


def _hess_diag(pair, p, mu):
    return pair.v_second(mu / p) / p


def _stationarity_residual(M, mu, g):
    """Projected-gradient norm with sign conditions at floored leaves.

    A leaf counts as active (pinned) when its mass is at most the floor
    ``1e-8 (1 + sum mu) / L`` and its multiplier estimate ``s`` is above
    ``1e-7 (1 + |g|)``; an active leaf contributes only a negative ``s``.
    Classification and multipliers are re-fitted until the active set
    stabilizes.  The complementarity product ``mu * s`` is not bounded: a
    pinned leaf may keep a mass far above its optimum (~1e-10 where the
    optimum is ~e^-100), which moves the value in its eighth digit.
    """
    if not np.all(np.isfinite(g)):
        return math.inf
    gnorm = 1.0 + float(np.linalg.norm(g))
    pin = 1e-8 * (1.0 + float(mu.sum())) / mu.size
    act = np.zeros(mu.size, dtype=bool)
    for _ in range(4):
        Mi = M[:, ~act]
        gi = g[~act]
        if Mi.shape[1] == 0:
            lam = np.zeros(M.shape[0])
        else:
            lam, *_ = np.linalg.lstsq(Mi.T, gi, rcond=None)
        s = g - M.T @ lam
        new_act = (mu <= pin) & (s > 1e-7 * gnorm)
        if np.array_equal(new_act, act):
            break
        act = new_act
    r = np.where(act, 0.0, s)
    viol = np.where(act, np.minimum(s, 0.0), 0.0)
    num = math.sqrt(float(r @ r) + float(viol @ viol))
    return num / gnorm


def _polish_loop(M, Z, p, e, pair, mu, g, residual, *, tol, max_steps):
    """Barrier-free Newton accepted on stationarity decrease.

    Near the optimum the objective is flat to rounding, so progress is
    measured on the projected gradient; also serves as the warm-start path.
    ``g`` is the gradient at ``mu``; the accepted trial's gradient carries
    over to the next step.
    """
    steps = 0
    while residual > tol and steps < max_steps:
        if not np.all(np.isfinite(g)):
            break
        h = _hess_diag(pair, p, mu)
        gr = Z.T @ g
        Hr = (Z.T * h) @ Z
        try:
            dw = np.linalg.solve(Hr, -gr)
        except np.linalg.LinAlgError:
            dw, *_ = np.linalg.lstsq(Hr, -gr, rcond=None)
        dmu = Z @ dw
        neg = dmu < 0
        alpha = 1.0
        if np.any(neg):
            alpha = min(1.0, 0.999 * float(np.min(-mu[neg] / dmu[neg])))
        improved = False
        for _ in range(60):
            trial = mu + alpha * dmu
            if np.all(trial > 0):
                g_trial = _gradient(pair, p, e, trial)
                res_trial = _stationarity_residual(M, trial, g_trial)
                if res_trial < residual:
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            break
        mu, g = trial, g_trial
        residual = res_trial
        steps += 1
    return mu, residual, steps


def _newton_core(A, p, e, pair, q0, *, mass=None, tol=DEFAULT_TOL,
                 newton_cap=DEFAULT_NEWTON_CAP, start_mu=None):
    """Minimize F over {A mu = 0 (, sum mu = mass), mu >= 0}.

    ``q0`` must be strictly positive and feasible for the equalities with
    unit mass.  Returns (mu, value, residual, iteration log).
    """
    n = p.size
    M = A if mass is None else np.vstack([A, np.ones((1, n))])
    Z = null_space(M) if M.size else np.eye(n)
    mu = np.array(start_mu if start_mu is not None
                  else q0 * (1.0 if mass is None else mass), dtype=float)
    if mass is not None and Z.shape[1] == 0:
        # unique feasible point; nothing to optimize
        g = _gradient(pair, p, e, mu)
        res = _stationarity_residual(M, mu, g)
        return mu, _objective(pair, p, e, mu), res, ({"tau": 0.0, "steps": 0,
                                                      "residual": res},)

    if start_mu is not None and np.all(mu > 0):
        # warm start: try pure Newton before paying for a barrier sweep
        g0 = _gradient(pair, p, e, mu)
        res0 = _stationarity_residual(M, mu, g0)
        mu_w, res_w, used = _polish_loop(M, Z, p, e, pair, mu, g0, res0,
                                         tol=tol, max_steps=25)
        if res_w <= tol:
            f = _objective(pair, p, e, mu_w)
            if f < _VALUE_FLOOR:
                raise EvaluationOverflowError(
                    "dual objective fell below the floating-point range")
            return mu_w, f, res_w, ({"tau": 0.0, "steps": used,
                                     "residual": res_w},)
        # a failed polish may have left a poor iterate: restart the barrier
        # from the interior point
        mu = np.array(q0 * (1.0 if mass is None else mass), dtype=float)

    def barrier_value(f, m, tau):
        if not math.isfinite(f):
            return math.inf
        return f - tau * float(np.log(m).sum())

    # the conjugate is evaluated once per point: V' at mu (g_raw) and the
    # objective at mu (f_now) are carried from the accepted trial
    g_raw = _gradient(pair, p, e, mu)
    f_now = _objective(pair, p, e, mu)
    tau = 0.1 * (1.0 + float(np.abs(g_raw[np.isfinite(g_raw)]).max(initial=0.0)))
    steps = 0
    log = []
    best = (math.inf, mu)

    def one_stage(tau, stage_tol):
        nonlocal mu, steps, g_raw, f_now
        phi0 = barrier_value(f_now, mu, tau)
        for it in range(60):
            with np.errstate(over="ignore", divide="ignore"):
                g = g_raw - tau / mu
            gr = Z.T @ g
            if it and float(np.linalg.norm(gr)) <= stage_tol * (1.0 + tau):
                return
            if steps >= newton_cap:
                return
            with np.errstate(over="ignore", divide="ignore"):
                h = _hess_diag(pair, p, mu) + tau / mu ** 2
            h = np.where(np.isfinite(h), h, 1e300)
            Hr = (Z.T * h) @ Z
            try:
                dw = np.linalg.solve(Hr, -gr)
            except np.linalg.LinAlgError:
                dw, *_ = np.linalg.lstsq(Hr + 1e-12 * np.trace(Hr) * np.eye(Hr.shape[0]),
                                         -gr, rcond=None)
            dmu = Z @ dw
            steps += 1
            neg = dmu < 0
            alpha = 1.0
            if np.any(neg):
                alpha = min(1.0, 0.99 * float(np.min(-mu[neg] / dmu[neg])))
            slope = float(gr @ dw)
            for _ in range(50):
                trial = mu + alpha * dmu
                f1 = _objective(pair, p, e, trial)
                phi1 = barrier_value(f1, trial, tau)
                if phi1 <= phi0 + 1e-4 * alpha * slope or phi1 <= phi0 - 1e-16 * abs(phi0):
                    break
                alpha *= 0.5
            else:
                return  # no progress at this barrier weight
            mu, f_now, phi0 = trial, f1, phi1
            if f_now < _VALUE_FLOOR:
                raise EvaluationOverflowError(
                    "dual objective fell below the floating-point range")
            g_raw = _gradient(pair, p, e, mu)

    residual = math.inf
    for stage in range(80):
        one_stage(tau, stage_tol=0.1)
        residual = _stationarity_residual(M, mu, g_raw)
        log.append({"tau": tau, "steps": steps, "residual": residual})
        if f_now < best[0]:
            best = (f_now, mu.copy())
        if residual <= tol:
            break
        if steps >= newton_cap:
            raise NonconvergedError(
                f"Newton cap {newton_cap} reached (residual {residual:.3e})",
                best=best[1], residual=residual)
        tau *= BARRIER_SHRINK
        if tau < 1e-18:
            # barrier exhausted; barrier-free polish below
            break

    mu, residual, used = _polish_loop(M, Z, p, e, pair, mu, g_raw, residual,
                                      tol=tol, max_steps=min(40, newton_cap - steps))
    steps += used
    log.append({"tau": 0.0, "steps": steps, "residual": residual})

    if residual > tol:
        raise NonconvergedError(
            f"stationarity {residual:.3e} above tolerance {tol:.1e}",
            best=mu, residual=residual)
    if used:
        f_now = _objective(pair, p, e, mu)
    return mu, f_now, residual, tuple(log)


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


def _ray_log_argmin(gamma, p, e, q):
    """ln t* of the exponential dual objective's minimum along the ray t q.

    For unit-mass q and H = sum q ln(q/p), the objective
    F(t q) = C sum p + (t/gamma)(H + ln t - 1) + t q.e is least at
    t* = exp(-H - gamma q.e), where it equals C sum p - t*/gamma.
    """
    on = q > 0
    entropy = float(np.dot(q[on], np.log(q[on] / p[on])))
    return -entropy - gamma * float(np.dot(q, e))


def _overflow_precheck(pair, tree, e, q_int):
    """Classify the below-float-range regime before iterating.

    An upper bound for the dual value is its minimum along any feasible ray,
    which is closed-form (:func:`_ray_log_argmin`) for the exponential
    family, the only one with a finite sup U.  Gibbs' inequality
    (H >= -ln sum p) and q.e >= min e bound ln t* over every ray at once, on
    the support of the interior point ``q_int``, so the rays through it and
    through the endowment-cost-minimizing vertex of the extremal sweep are
    only tried when that bound does not already rule overflow out.
    """
    if pair.family != "exponential":
        return
    gamma, c = pair.params["gamma"], pair.params["C"]
    mask = q_int > 0
    ps, es = tree.leaf_probability_array[mask], e[mask]
    # C sum p - t*/gamma < _VALUE_FLOOR  <=>  ln t* > log_floor
    log_floor = math.log(c * ps.sum() - _VALUE_FLOOR) + math.log(gamma)
    if math.log(ps.sum()) - gamma * es.min() <= log_floor:
        return
    _, _, vertex = _support_structure(tree).extremes(e)
    if any(_ray_log_argmin(gamma, ps, es, q[mask]) > log_floor
           for q in (q_int, vertex)):
        raise EvaluationOverflowError(
            "dual objective fell below the floating-point range")


def solve_dual(tree: MarketTree, pair: UtilityPair, endow=0.0, *,
               tol: float = DEFAULT_TOL, newton_cap: int = DEFAULT_NEWTON_CAP,
               start=None) -> DualSolution:
    """Minimize entropy plus endowment cost over the martingale cone.

    ``endow`` is a RandomVariable / mapping / array / scalar on the leaves.
    Returns the unique optimal measure with its mass, normalization, value
    and stationarity residual.  The support flag is DEGENERATE when no
    equivalent martingale measure exists (the optimum then sits on the
    boundary and primal recovery refuses).  Raises
    :class:`ValueAtSupremumError` when the optimal value cannot be told apart
    from sup U.
    """
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    mask, q_int, flag = _prepare(tree, pair)
    A_s = build_constraints(tree).matrix[:, mask]
    _overflow_precheck(pair, tree, e, q_int)
    start_s = None
    if start is not None:
        arr = start.as_array(tree) if isinstance(start, MeasureVector) \
            else leaf_values(tree, start)
        if np.any(arr[~mask] > 0):
            raise NoMartingaleMeasureError("start measure charges dead leaves")
        start_s = arr[mask]
    mu_s, value, res, log = _newton_core(
        A_s, p[mask], e[mask], pair, q_int[mask], mass=None,
        tol=tol, newton_cap=newton_cap, start_mu=start_s)
    mu = np.zeros(tree.n_leaves)
    mu[mask] = mu_s
    if flag == "DEGENERATE":
        value = _objective(pair, p, e, mu)  # adds the V(0) terms of dead leaves
    mass = float(mu.sum())
    if not (mass > 0.0 and value < pair.u_inf):
        raise ValueAtSupremumError(
            f"optimal value {value!r} (dual mass {mass!r}) is within solver "
            f"tolerance of sup U = {pair.u_inf!r}")
    return DualSolution(
        tree=tree, pair=pair,
        mu=MeasureVector.from_array(tree, mu),
        mass=mass,
        q_hat=MeasureVector.from_array(tree, mu / mass),
        value=value,
        stationarity=res,
        support=flag,
        iterations=log,
        _mu_arr=mu,
        _endow_arr=e,
    )


def solve_dual_fixed_mass(tree: MarketTree, pair: UtilityPair, endow, y: float, *,
                          tol: float = DEFAULT_TOL,
                          newton_cap: int = DEFAULT_NEWTON_CAP,
                          start=None) -> DualSolution:
    """Same as :func:`solve_dual` with total mass pinned to ``y > 0``."""
    if y <= 0:
        raise NoMartingaleMeasureError("mass must be positive")
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    mask, q_int, flag = _prepare(tree, pair)
    A_s = build_constraints(tree).matrix[:, mask]
    start_s = start[mask] if start is not None else None
    mu_s, value, res, log = _newton_core(
        A_s, p[mask], e[mask], pair, q_int[mask], mass=y,
        tol=tol, newton_cap=newton_cap, start_mu=start_s)
    mu = np.zeros(tree.n_leaves)
    mu[mask] = mu_s
    if flag == "DEGENERATE":
        value = _objective(pair, p, e, mu)
    return DualSolution(
        tree=tree, pair=pair,
        mu=MeasureVector.from_array(tree, mu),
        mass=float(mu.sum()),
        q_hat=MeasureVector.from_array(tree, mu / y),
        value=value,
        stationarity=res,
        support=flag,
        iterations=log,
        _mu_arr=mu,
        _endow_arr=e,
    )


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
