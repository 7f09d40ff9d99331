"""Brute-force certification of the dual and primal optima at desk scale.

The dual oracle eliminates the equality constraints, grids the resulting
low-dimensional parameter box (with zoom refinement that keeps the running
minimum monotone), and minimizes over the mass on each grid point at the
root of the mass derivative.  The primal oracle maximizes expected utility
directly over the unconstrained strategy coefficients with multi-start
quasi-Newton.  Both are deliberately independent of the dual solvers: they
exist to certify them, not to compete with them.  SciPy is imported inside
the primal oracle, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import solve_dual
from .errors import (CapExceededError, DimensionError, GapDetectedError,
                     InfeasibleEntropyError, NoMartingaleMeasureError)
from .geometry import build_constraints, relative_entropy, vertex_enumerate
from .market import MarketTree, leaf_values
from .recovery import recover
from .utility import UtilityPair


def _polytope_frame(tree: MarketTree):
    """M = [A; 1] and an orthonormal basis (L, k) of its null space, the
    polytope's directions, from one SVD whose rank cutoff, 1e-12 of the
    largest singular value, is the solvers': assets they take for one stay one."""
    A = build_constraints(tree)
    M = np.vstack([A, np.ones((1, tree.n_leaves))])
    _, sv, vt = np.linalg.svd(M)
    return M, vt[int(np.count_nonzero(sv > 1e-12 * sv[0])):].T


def polytope_dimension(tree: MarketTree) -> int:
    """Affine dimension of the martingale polytope."""
    return _polytope_frame(tree)[1].shape[1]


def strategy_dimension(tree: MarketTree) -> int:
    """Number of free strategy coefficients (assets times non-leaf nodes)."""
    return tree.n_assets * len(tree.nonleaf_ids)


GRID_DIM_LIMIT = 3
PRIMAL_DIM_LIMIT = 12
_ORACLE_TOL = 1e-5   # oracle values against the solver's dual value, scaled
_GAP_TOL = 1e-7      # the solver's own primal-dual gap, scaled


def _mass_profile(pair, p, e_q, dens_dirs):
    """Least ``sum(p V(y q/p)) + y E_q[e]`` over the mass y > 0 for each
    probability row q of ``dens_dirs`` (m, L), at the root of its mass
    derivative ``sum_{q>0} q V'(y q/p) + E_q[e]``, which increases in y.
    Each row's bracket on the log-mass axis, from [-40, 40], triples about
    its middle until the derivative changes sign in it, then 40 halvings,
    one derivative evaluation of every row each, close it."""
    on = dens_dirs > 0
    dens = np.where(on, dens_dirs / p, 1.0)   # 1: V'(inf * 0) is undefined

    def slope(s):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = dens_dirs * pair.v_prime(np.exp(s)[:, None] * dens)
        return np.where(on, terms, 0.0).sum(axis=1) + e_q

    lo, hi = np.full(e_q.shape, -40.0), np.full(e_q.shape, 40.0)
    while (miss := (slope(lo) > 0) | (slope(hi) < 0)).any():
        lo, hi = lo - miss * (hi - lo), hi + miss * (hi - lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        up = slope(mid) < 0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    y = np.exp(0.5 * (lo + hi))
    with np.errstate(over="ignore", invalid="ignore"):
        out = pair.v(y[:, None] * dens_dirs / p) @ p + y * e_q
    return np.where(np.isfinite(out), out, np.inf)


def brute_force_dual(tree: MarketTree, pair: UtilityPair, endow, *,
                     points_per_dim: int = 13, rounds: int = 8,
                     mode: str = "auto", n_samples: int = 2048,
                     seed: int = 0) -> float:
    """Direct minimization of the dual objective on a discretized polytope.

    Grid mode requires the polytope dimension (after constraint elimination)
    to be at most 3; the box is zoomed around the incumbent across
    ``rounds`` refinements, and the returned value is the monotone running
    minimum.  Otherwise SAMPLE mode draws seeded random polytope points,
    which is weaker evidence.  The value can only sit above the true
    infimum, so it certifies the solver from one side and matches it to the
    discretization error.
    """
    return _brute_force_dual(tree, pair, endow, points_per_dim, rounds, mode,
                             n_samples, seed)[0]


def _brute_force_dual(tree, pair, endow, points_per_dim=13, rounds=8, mode="auto",
                      n_samples=2048, seed=0):
    """:func:`brute_force_dual`'s value, polytope dimension and mode."""
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    L = tree.n_leaves
    M, N = _polytope_frame(tree)
    k = N.shape[1]
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    q_part, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    # one step of refinement on the residual: off the constraints the dual
    # objective moves at the rate of the optimal strategy (~2.5e4 on some
    # two-power trees), so lstsq's ~1e-16 errors in q can cost ~1e-11
    q_part += np.linalg.lstsq(M, rhs - M @ q_part, rcond=None)[0]
    if np.abs(M @ q_part - rhs).max() > 1e-9:
        raise NoMartingaleMeasureError("martingale polytope is empty")

    if mode == "auto":
        mode = "grid" if k <= GRID_DIM_LIMIT else "sample"
    if mode == "grid" and k > GRID_DIM_LIMIT:
        raise DimensionError(
            f"polytope dimension {k} exceeds grid-mode limit {GRID_DIM_LIMIT}")

    def batch_min(qs):
        qs = qs[np.all(qs >= -1e-12, axis=1)]
        if qs.size == 0:
            return math.inf
        qs = np.clip(qs, 0.0, None)
        qs /= qs.sum(axis=1, keepdims=True)
        return float(np.min(_mass_profile(pair, p, qs @ e, qs)))

    if mode == "sample":
        rng = np.random.default_rng(seed)
        try:
            verts = np.exp(vertex_enumerate(tree))
        except CapExceededError:
            verts = np.zeros((0, L))
        pts = []
        if len(verts):
            w = rng.dirichlet(np.ones(len(verts)), size=n_samples)
            pts.append(w @ verts)
        pts.append(q_part[None, :] + rng.standard_normal((n_samples, k)) @ N.T * 0.3)
        return batch_min(np.vstack(pts)), k, mode

    if k == 0:
        return batch_min(q_part[None, :]), k, mode

    R = 1.0 + float(np.linalg.norm(q_part))
    centers = np.zeros((1, k))
    half = R
    best = math.inf
    for _ in range(max(1, rounds)):
        axes = [np.linspace(-half, half, points_per_dim) for _ in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        thetas = np.vstack([c[None, :] + mesh for c in centers])
        qs = q_part[None, :] + thetas @ N.T
        feas = np.all(qs >= -1e-12, axis=1)
        if feas.any():
            qs_f = np.clip(qs[feas], 0.0, None)
            qs_f /= qs_f.sum(axis=1, keepdims=True)
            vals = _mass_profile(pair, p, qs_f @ e, qs_f)
            i = int(np.argmin(vals))
            best = min(best, float(vals[i]))
            order = np.argsort(vals)[:3]
            centers = thetas[feas][order]
        half *= 0.35
    return best, k, mode


def brute_force_primal(tree: MarketTree, pair: UtilityPair, endow, *,
                       n_starts: int = 32, seed: int = 0) -> float:
    """Direct expected-utility maximization over strategy coefficients.

    The terminal gain is linear in the per-node holdings, so the objective
    is smooth and concave; multi-start quasi-Newton from seeded random
    points is overkill by design.  Refuses above 12 free coefficients.
    """
    from scipy.optimize import minimize

    D = strategy_dimension(tree)
    if D > PRIMAL_DIM_LIMIT:
        raise DimensionError(
            f"strategy dimension {D} exceeds the oracle limit {PRIMAL_DIM_LIMIT}")
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    G = build_constraints(tree).T  # leaf-by-coefficient gain matrix

    def neg_value_and_grad(h):
        x = G @ h + e
        u = pair.u(x)
        up = pair.u_prime(x)
        return -float(np.dot(p, u)), -(G.T @ (p * up))

    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(n_starts):
        h0 = rng.standard_normal(D)
        res = minimize(neg_value_and_grad, h0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
        best = max(best, -float(res.fun))
    return best


@dataclass(frozen=True)
class OracleReport:
    regime: str                      # "OK" | "NO_MM" | "INFEASIBLE_ENTROPY"
    solver_dual: float | None
    solver_primal: float | None
    brute_dual: float | None
    brute_primal: float | None
    dual_mode: str | None
    polytope_dim: int | None
    strategy_dim: int | None
    gap_solver: float | None         # |solver primal - solver dual|, scaled
    gap_brute_dual: float | None
    gap_brute_primal: float | None


def check_duality_gap(tree: MarketTree, pair: UtilityPair, endow, *,
                      seed: int = 0) -> OracleReport:
    """Assemble solver and oracle values and assert their agreement.

    Raises :class:`GapDetectedError` (carrying the report) whenever any
    bound is violated beyond tolerance: solver primal vs dual at 1e-7
    (scaled), oracle values vs solver dual at 1e-5 when the exhaustive modes
    apply, and weak duality between the oracle values.  Markets without
    martingale measures are reported, not raised.
    """
    try:
        sol = solve_dual(tree, pair, endow)
    except NoMartingaleMeasureError:
        return OracleReport("NO_MM", None, None, None, None, None,
                            None, None, None, None, None)
    except InfeasibleEntropyError:
        return OracleReport("INFEASIBLE_ENTROPY", None, None, None, None,
                            None, None, None, None, None, None)
    v = sol.value
    scale = 1.0 + abs(v)

    u_primal = None
    gap_solver = None
    if sol.support == "EQUIVALENT":
        u_primal = recover(tree, pair, endow, sol).value
        # against the dual objective of the returned measure, entropy plus cost
        f_mu = relative_entropy(tree, pair, sol.mu) + sol.mu @ leaf_values(tree, endow)
        gap_solver = abs(u_primal - f_mu) / scale

    bd, k, dual_mode = _brute_force_dual(tree, pair, endow, seed=seed)

    D = strategy_dimension(tree)
    bp = None
    if D <= PRIMAL_DIM_LIMIT and sol.support == "EQUIVALENT":
        bp = brute_force_primal(tree, pair, endow, seed=seed)

    gap_bd = abs(bd - v) / scale
    gap_bp = abs(bp - v) / scale if bp is not None else None
    report = OracleReport(
        regime="OK", solver_dual=v, solver_primal=u_primal,
        brute_dual=bd, brute_primal=bp, dual_mode=dual_mode,
        polytope_dim=k, strategy_dim=D,
        gap_solver=gap_solver, gap_brute_dual=gap_bd, gap_brute_primal=gap_bp)

    problems = []
    if gap_solver is not None and gap_solver > _GAP_TOL:
        problems.append(f"solver duality gap {gap_solver:.3e}")
    if bd < v - _ORACLE_TOL * scale:
        problems.append(f"oracle dual {bd!r} undercuts solver {v!r}")
    if dual_mode == "grid" and gap_bd > _ORACLE_TOL:
        problems.append(f"oracle dual gap {gap_bd:.3e}")
    if bp is not None:
        if gap_bp > _ORACLE_TOL:
            problems.append(f"oracle primal gap {gap_bp:.3e}")
        if bp > bd + _ORACLE_TOL * scale:
            problems.append("weak duality violated between oracle values")
    if problems:
        raise GapDetectedError("; ".join(problems), report=report)
    return report
