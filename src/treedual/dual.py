"""Dual problem: entropy-plus-endowment minimization over the martingale cone.

The objective is ``F(mu) = sum_l [ p_l V(mu_l/p_l) + mu_l e_l ]`` minimized
over non-negative leaf measures satisfying the martingale equality rows (and
optionally a fixed total mass).  Two solvers share the result type; both
return the optimal strategy h too, which primal recovery reads.  One
function, ``_solutions``, picks the solver by the utility's family for a
stack of endowments with one mass per row (NaN at a free row) and returns
one optimum or error per row; ``solve_dual``, ``solve_dual_fixed_mass``,
``dual_value_curve`` and the pricing searches all solve through it.

* Exponential family: exponential utility does not depend on wealth, so the
  dual is solved exactly by backward induction on the log-partition (Rouge &
  El Karoui, *Math. Finance* 10, 2000; Delbaen et al., *Exponential hedging
  and entropic penalties*, *Math. Finance* 12, 2002).  Each non-leaf node n
  takes ``L_n = min_k logsumexp_c(ln p_(c|n) + L_c - gamma k.dS_c)`` over its
  live children, from ``L_leaf = -gamma e``; the value is
  ``C - exp(L_root)/gamma``, the mass ``exp(L_root)``, the normalized
  optimizer the product of the nodes' softmax weights and h_n the minimizer
  k of node n.  Masses like e^-1000 are exact in this form.  One pass serves
  a stack of endowments, each distinct row once: each level is one Newton
  batch over the nodes of all of them.  A node starts at the fit of its
  exponents to w0, the mean of its one-step martingale vertices, which is
  the minimizer where w0 fixes the optimal weights' ratios among the moving
  children (binomial and up/flat/down nodes, d + 1 affinely independent
  increments).
* Two-power family, ``dynamic_dual`` and the tests' oracle: the optimal
  measure is the marginal utility of the optimal wealth, mu = p U'(e + gains),
  so the dual is solved through its primal, the unconstrained concave
  maximization of E[U(e + gains)] (less y times the cash at a fixed mass y)
  over the strategy, by damped Newton run to rounding.  One call of the
  Newton core solves a stack of such problems on one tree, free and
  fixed-mass rows alike, each row with its own line search, convergence and
  failure; a single solve is a stack of one.  Each step is one batched
  Householder QR over the stack, on the strategy columns that
  ``_strategy_basis`` keeps once per tree: the columns independent over
  each node's live children, which are independent over the whole tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (DomainError, EvaluationOverflowError, InfeasibleEntropyError,
                     NoMartingaleMeasureError, NonconvergedError,
                     ValueAtSupremumError)
from .geometry import (_TOL, SupportStructure, _support_structure, build_constraints,
                       relative_entropy)
from .market import MarketTree, leaf_values, log_masses
from .utility import UtilityPair

_VALUE_FLOOR = -1e250  # below this the optimal utility is numerically -inf


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal measure, mass, normalization, value and diagnostics.

    ``value`` is the optimal value: from the log-partition for the
    exponential family, and the primal value sum p U(e + gains) (- y x at a
    fixed mass y) at the Newton core's optimum, which equals the dual one.
    ``stationarity`` is the exit residual of the solver: for the exponential
    family the largest one-step drift of the normalized optimizer over the
    non-leaf nodes, |E[dS | n]| / (1 + |S_n|) in the max norm; for the Newton
    core the scaled gradient of the primal, which is the martingale (and
    mass) residual of mu.  ``mass_curvature`` is the core's W''(y), the
    second derivative of the optimal value in a fixed mass y (else None).
    ``iterations`` logs the Newton steps taken (of a log-space pass, summed
    over levels of the most any endowment took).  ``mu`` and ``q_hat``, the
    optimal and normalized measures, are (L,) arrays in leaf order;
    ``_log_q`` = ln q_hat, exact where q_hat underflows, gives
    :attr:`node_log_q` and :attr:`charged`.
    """

    tree: MarketTree
    pair: UtilityPair
    mass: float
    value: float
    stationarity: float
    support: str                      # "EQUIVALENT" | "DEGENERATE"
    iterations: tuple[dict, ...]
    mu: np.ndarray = field(repr=False)
    q_hat: np.ndarray = field(repr=False)
    mass_curvature: float | None = None
    _endow_arr: np.ndarray = field(repr=False, default=None)
    _log_mass: float = field(repr=False, default=None)  # exact where mass underflows
    _h_arr: np.ndarray = field(repr=False, default=None)  # strategy (non-leaf nodes, d)
    _log_q: np.ndarray = field(repr=False, default=None)  # ln q_hat (L,)
    _log_l: np.ndarray = field(repr=False, default=None)  # L_n (N,), exponential family

    @property
    def density_array(self) -> np.ndarray:
        return self.mu / self.tree.leaf_probability_array

    @cached_property
    def node_log_q(self) -> np.ndarray:   # (N,): the node log masses of q_hat
        return self.tree.log_subtree_sums(self._log_q)

    @cached_property
    def charged(self) -> np.ndarray:      # (N,): the nodes q_hat charges
        return self.node_log_q > -np.inf

    @property
    def terminal_gain(self) -> np.ndarray:
        """X = -V'(mu/p) - e (L,), the optimal terminal gain, +inf off the
        charged leaves: for the exponential family ln(p/mu)/gamma - e from
        the exact log-masses, finite where mu underflows."""
        if self._log_l is None:   # a Newton-core optimum
            return -self.pair.v_prime(self.density_array) - self._endow_arr
        p, gamma = self.tree.leaf_probability_array, self.pair.params["gamma"]
        return (np.log(p) - self._log_mass - self._log_q) / gamma - self._endow_arr

    @property
    def mass_derivative(self) -> float:
        """-E_q_hat[X], the envelope derivative of the value in the mass, over
        the charged leaves, read off ``_log_q`` (X is +inf off them)."""
        on = self._log_q > -np.inf
        return float(np.dot(self.q_hat, np.where(on, -self.terminal_gain, 0.0)))


def _solution(tree, pair, e, mu, q, log_q, mass, log_mass, value, residual, flag, steps,
              h, curvature=None, log_l=None):
    return DualSolution(
        tree=tree, pair=pair, mass=mass, value=value, stationarity=residual,
        support=flag, iterations=({"steps": steps, "residual": residual},),
        mu=mu, q_hat=q, mass_curvature=curvature, _endow_arr=e, _log_mass=log_mass,
        _h_arr=h, _log_q=log_q, _log_l=log_l)


# -- exponential family: backward induction in log space ------------------------

_LSE_CAP = 100  # damped Newton steps per level


def _lse_min(b, x, k0):
    """``min_k logsumexp_c(b_c - x_c.k)`` for a batch of g nodes.

    ``b`` (g, m) is -inf and ``x`` (g, m, d) zero at padding.  The loop
    starts at ``k0`` (g, d); a node started at its minimizer exits at the
    first test, before any step.  Newton steps with Levenberg-Marquardt
    damping relative to the trace of the Hessian, the covariance of x under
    the softmax weights, which is near-singular where the weights sit on few
    children.  A step moves no exponent by more than one unit and is doubled
    while that keeps lowering the value, which crosses exponential tails in
    a few steps; it is accepted on a quarter of its predicted decrease or,
    where the value is flat to rounding, on a smaller gradient.  A node is
    done once its gradient and predicted decrease are at rounding level, or
    once a step fails with its predicted decrease below rounding.  Returns
    the minima, minimizers k, log softmax weights, gradients E_w[x] (up to
    sign) and steps.
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
    damp, k, active = np.full(g, 1e-3), k0.copy(), np.ones(g, dtype=bool)
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
    return f + top_b, k, logw, mean, steps


def _increments(lay, live, node):
    """The padded children (g, m) of the non-leaf nodes ``node`` (g,), the
    mask of the live ones, and the price increments (g, m, d), zero off the
    live children and below a node with one live child."""
    n = len(lay.ids)
    count = np.diff(lay.first_child, append=n)[node]
    kids = np.minimum(lay.first_child[node, None] + np.arange(count.max()), n - 1)
    on = (np.arange(kids.shape[1]) < count[:, None]) & live[kids]
    dS = np.where((on & (on.sum(axis=1, keepdims=True) > 1))[..., None],
                  lay.prices[kids] - lay.prices[node, None], 0.0)
    return kids, on, dS


@lru_cache(maxsize=256)
def _live_levels(geo: SupportStructure):
    """Per non-leaf level, bottom-up, the live nodes (g,), their padded
    children (g, m), log branch probabilities (-inf at padding and dead
    children), price increments (g, m, d; zero there and below a node with
    one live child), the start's operator ``fit`` (g, m, d) and shift
    ``ln(p / w0)`` (g, m; 0 off the live children), the live children with
    their flat slots in (g, m), and 1 + |S_n|; live as in
    ``SupportStructure.live``, and w0 the mean of a node's valid vertices
    (``geo.one_step`` of equal weights), positive on its live children.
    The start ``k0 = Cov_w0(x)^+ Cov_w0(x, b - ln w0)`` = sum_c fit_c
    (shift_c + L_c) / gamma fits ``b - ln w0`` by ``x.k + f`` in w0-weighted
    least squares (x = gamma dS, b = ln p + L); the pseudo-inverse, one
    batched eigh without eigenvalues below _RANK_RTOL of the largest, keeps
    k0 in the span of the increments, as the minimum-norm minimizer.
    """
    lay = geo.layout
    starts = lay.level_starts
    w, live = geo.one_step(np.ones(geo.node.size)), geo.live
    out = []
    for lo, hi in zip(starts[-3::-1], starts[-2:0:-1]):
        node = lo + np.flatnonzero(live[lo:hi])
        kids, on, dS = _increments(lay, live, node)
        w0 = np.where(on, w[kids], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lnp = np.where(on, np.log(lay.prob[kids]), -np.inf)
            shift = np.where(on, lnp - np.log(w0), 0.0)
        dev = dS - np.einsum("gm,gmd->gd", w0, dS)[:, None]
        ev, vec = np.linalg.eigh(np.einsum("gm,gmd,gme->gde", w0, dev, dev))
        inv = np.divide(1.0, ev, out=np.zeros_like(ev),
                        where=ev > _RANK_RTOL * np.abs(ev[:, -1:]))
        fit = w0[..., None] * dev @ ((vec * inv[:, None]) @ vec.swapaxes(1, 2))
        out.append((node, kids, lnp, dS, fit, shift, np.flatnonzero(on), kids[on],
                    1.0 + np.abs(lay.prices[node]).max(axis=1)))
    return tuple(out)


@lru_cache(maxsize=256)
def _strategy_basis(geo: SupportStructure):
    """The strategy columns the Newton core keeps: a read-only mask over the
    rows of :func:`build_constraints`, true at asset i of a non-leaf node
    of ``geo.live`` whose live increments (:func:`_increments`, each asset
    scaled by its largest) keep a Gram-Schmidt residual (orthogonalized
    twice) above geometry's _TOL against the node's kept assets before i;
    for one asset, any nonzero live increment.  A strategy v at node n
    gains dS_c.v on child c's leaves, and strategies at different nodes
    cannot cancel (the gains of a martingale measure charging every live
    leaf would vanish at each step), so the kept columns are independent
    on the live leaves under any positive weights, and span the gains.
    """
    lay = geo.layout
    node = np.flatnonzero(geo.live[:lay.level_starts[-2]])
    x = _increments(lay, geo.live, node)[2]
    scale = np.abs(x).max(axis=1, keepdims=True)
    x = x / np.where(scale > 0, scale, 1.0)
    q = np.zeros_like(x)               # orthonormal basis of the kept increments
    keep = np.zeros((lay.level_starts[-2], x.shape[2]), dtype=bool)
    for i in range(x.shape[2]):
        res = x[..., i]
        for _ in range(2 if i else 0):
            res = res - np.einsum("gmj,gj->gm", q, np.einsum("gmj,gm->gj", q, res))
        norm = np.sqrt((res * res).sum(axis=1))
        kept = norm > _TOL
        keep[node, i] = kept
        q[kept, :, i] = res[kept] / norm[kept, None]
    keep = keep.ravel()
    keep.setflags(write=False)
    return keep


def _log_partition(tree, gamma, e):
    """Backward induction on ``L_n = ln min_h E[exp(-gamma(e + gains)) | n]``
    for r endowments ``e`` (r, leaves); row j * g + i of a level's batch is
    endowment j at node i, started at the fit k0 of :func:`_live_levels`.
    Where w0 fixes the ratios of the optimal weights w* among a node's
    moving children (also at a degenerate node left with two live children),
    the fit's residual ln(w*/w0) + const is constant on them, with no
    w0-covariance with x: k0 is the minimizer, and the node takes no step.
    Returns per endowment L at every node (N,; 0 at the non-leaf nodes
    ``_live_levels`` drops), the strategy (inner, d) of minimizers k (0
    where ``_live_levels`` zeroes dS or drops the node), the log normalized
    optimizer on the leaves (-inf off the maximal support) and its largest
    scaled one-step drift, and the steps."""
    lay = tree.layout
    r, inner = e.shape[0], lay.level_starts[-2]
    big_l = np.concatenate([np.zeros((r, inner)), -gamma * e], axis=1)
    logw = np.where(np.arange(len(lay.ids)) == 0, 0.0, np.full((r, 1), -np.inf))
    drift, steps, h = np.zeros(r), 0, np.zeros((r, inner, lay.prices.shape[1]))
    for (node, kids, lnp, dS, fit, shift, slots, on_kids,
         unit) in _live_levels(_support_structure(tree)):
        g, kid_l = node.size, big_l.take(kids, axis=1)
        k0 = np.einsum("gmd,gm->gd", np.concatenate([fit] * r),
                       (shift + kid_l).reshape(r * g, -1)) / gamma
        f, k, lw, mean, used = _lse_min((lnp + kid_l).reshape(r * g, -1),
                                        np.concatenate([gamma * dS] * r), k0)
        big_l[:, node], h[:, node] = f.reshape(r, g), k.reshape(r, g, -1)
        logw[:, on_kids] = lw.reshape(r, -1).take(slots, axis=1)
        steps += used
        drift = np.maximum(drift, (np.abs(mean).max(axis=1).reshape(r, g)
                                   / gamma / unit).max(axis=1))
    for lo, hi in zip(lay.level_starts[1:-1], lay.level_starts[2:]):
        logw[:, lo:hi] += logw.take(lay.parent[lo:hi], axis=1)
    return big_l, h, logw[:, inner:], drift, steps


def _log_space_solutions(tree, pair, endows, log_mass=None) -> list[DualSolution]:
    """Exponential optima for a stack of endowments (r, L), row j at the log
    mass ``log_mass[j]`` if given (NaN at a free row), from one pass over
    the distinct rows.

    The normalized optimizer does not depend on the mass, so the fixed-mass
    optimum is ``mass * q_hat`` with value ``C + mass (ln mass - 1 - L)/gamma``.
    Raises nothing for extreme endowments: the log-mass stays exact when the
    mass or the value leaves the floating-point range.
    """
    gamma, c = pair.params["gamma"], pair.params["C"]
    _, flag = _prepare(tree, pair)
    place = {}   # each distinct row's index in the pass, keyed by its bytes
    slots = [place.setdefault(ej.tobytes(), len(place)) for ej in endows]
    distinct = np.empty((len(place), tree.n_leaves))
    distinct[slots] = endows
    log_ls, hs, log_qs, drifts, steps = _log_partition(tree, gamma, distinct)
    log_zs, drifts = log_ls[:, 0].tolist(), drifts.tolist()
    log_ys = np.full(len(slots), math.nan) if log_mass is None else log_mass
    out = []
    for ej, i, s in zip(endows, slots, np.asarray(log_ys, dtype=float).tolist()):
        log_z, log_q = log_zs[i], log_qs[i]
        free = math.isnan(s)
        log_y = log_z if free else s
        with np.errstate(over="ignore"):
            y = float(np.exp(log_y))
            value = c - y / gamma if free else c + y * (log_y - 1.0 - log_z) / gamma
            mu = np.exp(log_y + log_q)
        out.append(_solution(tree, pair, ej, mu, np.exp(log_q), log_q, y, log_y, value,
                             drifts[i], flag, steps, hs[i], log_l=log_ls[i]))
    return out


# -- Newton core ------------------------------------------------------------------


_NEWTON_CAP = 200
_RANK_RTOL = 1e-12  # rank cutoff of the log-space start, as geometry's _TOL


def _row_dot(a, b):
    """Per row of ``a`` (r, n), its dot product with ``b`` ((n,) or (r, n)),
    by one ``dot`` per row, as for a single row."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _qr_fits(J, T):
    """Per row of a stack, the least-squares fits (r, k, m) of the columns of
    ``T`` (r, n, m) by the columns of ``J`` (r, n, k), whose nonzero columns
    are independent: one batched Householder QR of [J | T] (``mode="r"``)
    and one batched solve on its leading k x k triangle.  A zero column of J
    gets a padding row with 1 in that column, so it fits 0 and leaves the
    other columns' fits unchanged; zero rows pad n up to k + m."""
    r, n, k = J.shape
    m = T.shape[2]
    zero = ~J.any(axis=1)
    M = np.concatenate((J, T), axis=2)
    if zero.any() or n < k + m:
        pad = np.zeros((r, k + max(k + m - n, 0), k + m))
        pad[:, :k, :k] = zero[:, :, None] * np.eye(k)
        M = np.concatenate((M, pad), axis=1)
    R = np.linalg.qr(M, mode="r")
    return np.linalg.solve(R[:, :k, :k], R[:, :k, k:])


def _newton_core(A, p, e, pair, live, *, mass=None, start=None, curvature=True):
    """The dual optima of a stack of r endowments on the leaves ``live``,
    found through their primals.

    Row j maximizes the concave Phi(c) = sum p U(e_j + B c) - y_j x over
    c = (h, x), the strategy and the cash, with B = [A', 1]: at a fixed
    mass y_j over both, else over h at x = 0; its optimal measure is
    mu = p U'(e_j + B c).  The rows of ``A`` are independent on ``live``
    (:func:`_strategy_basis`).  ``e`` is (r, L), ``mass`` None (every row
    free) or (r,) with NaN at free rows, and ``start`` None or (r, L).  The
    Newton step solves H d = grad Phi, H = B' diag(-p U'') B, as least
    squares in the H^1/2 scaling with Jacobi-scaled columns, by one batched
    QR over the rows that step (:func:`_qr_fits`); a strategy column whose
    weights all underflow gets no step.  -p U'' is mu times the risk
    aversion -U''/U' of the wealth, both in closed form, and 0 where U'
    underflows.  A step is
    accepted on Armijo increase or, where Phi is flat to rounding (of U and
    of the wealth), on a scaled gradient at most half as large,
    ``max_j |B' mu - y e_x|_j / ((1 + max|B_j|) sum mu)``, the martingale
    and mass residual of mu relative to its mass.  A row runs to 1e-13, or
    stops below 1e-9 once no step is acceptable.  Rows share the loop but
    not their arithmetic: each has its own Armijo search, flat test,
    convergence and failure, and a row that is done stands still, so a
    row's result does not depend on the others.  Row j of ``start``, a leaf
    measure positive on ``live``, starts it at the least-squares fit of
    B c to -V'(start/p) - e_j, the same solve at unit weights; other rows
    start at 0.  Returns per row mu
    (r, L; 0 off ``live``), h (r, k), the value (plus p V(0) off ``live``),
    the residual, the steps, W''(y) = [H^-1]_xx (NaN at free rows, and
    everywhere without ``curvature``, which saves its factorization) and the
    row's error, None or a :class:`NonconvergedError` (after 200 steps,
    from a start outside the domain, or without an acceptable step above
    1e-9).
    """
    pl, el = p[live], e[:, live]
    r, n = el.shape
    y = np.full(r, math.nan) if mass is None else np.asarray(mass, dtype=float)
    fixed = ~np.isnan(y)
    y0 = np.where(fixed, y, 0.0)
    k = A.shape[0]              # strategy columns; the cash column follows
    B = np.empty((n, k + 1))
    B[:, :k], B[:, k] = A[:, live].T, 1.0
    Bk, Bt = B[:, :k], B.T
    # the scale of each gradient entry, infinite at the cash of free rows
    scale = np.where(fixed[:, None] | (np.arange(k + 1) < k),
                     1.0 + np.abs(B).max(axis=0), math.inf)

    def point(c):
        """Per row: Phi, the scaled gradient, U, the wealth, mu and grad Phi."""
        w = el + (B @ c[:, :, None])[:, :, 0]
        u = pair.u(w)
        mu = pl * pair.u_prime(w)
        g = (Bt @ mu[:, :, None])[:, :, 0]
        g[:, k] -= y0
        phi = _row_dot(u, pl) - y0 * c[:, k]
        res = np.abs(g / scale).max(axis=1) / mu.sum(axis=1)
        bad = ~np.isfinite(phi + res)
        phi[bad], res[bad] = -math.inf, math.inf
        return phi, res, u, w, mu, g

    def fit(ts, cash, ys):
        """Per row of ``ts`` = [t | s] (a, n, 2), the c (a, k + 1) with
        J'(J c - t) = -ys e_x, J = diag(s) B, over (h, x) at the rows
        ``cash``, else over h at x = 0; and [(J'J)^-1]_xx at the cash rows
        (NaN elsewhere)."""
        t, s = ts[:, :, 0], ts[:, :, 1]
        jh = s[:, :, None] * Bk
        norm = np.sqrt((jh * jh).sum(axis=1))
        d = 1.0 / np.where(norm > 0, norm, 1.0)                  # Jacobi scaling
        jd = jh * d[:, None, :]
        # the fits of t and of s, the cash column, by the strategy columns;
        # z, the part of s off them, has J'z = |z|^2 e_x, so the cash rows
        # fit t - kappa z, kappa = (z't - ys) / |z|^2
        f = _qr_fits(jd, ts)
        c = np.zeros((len(s), k + 1))
        if not cash.any():
            c[:, :k] = d * f[:, :, 0]
            return c, np.full(len(s), math.nan)
        z = s - (jd @ f[:, :, 1:])[:, :, 0]
        zz = _row_dot(z, z)
        kappa = np.where(cash, (_row_dot(z, t) - ys) / zz, 0.0)
        c[:, :k], c[:, k] = d * (f[:, :, 0] - kappa[:, None] * f[:, :, 1]), kappa
        return c, np.where(cash, 1.0 / zz, math.nan)

    def direction(rows):
        """The Newton steps (r, k + 1) of the rows in the mask ``rows``, 0
        elsewhere, and [H^-1]_xx there at fixed masses (else NaN)."""
        m = mu[rows]
        ts = np.zeros(m.shape + (2,))
        s = ts[:, :, 1] = np.sqrt(m * pair.risk_aversion(w[rows]))    # H = J'J
        np.divide(m, s, out=ts[:, :, 0], where=s > 0)                 # J't = B'mu
        step, inv = np.zeros((r, k + 1)), np.full(r, math.nan)
        step[rows], inv[rows] = fit(ts, fixed[rows], y0[rows])
        return step, inv

    c = np.zeros((r, k + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if start is not None:
            q = start[:, live]
            warm = (q > 0).all(axis=1)
            if warm.any():
                ts = np.ones(q[warm].shape + (2,))
                ts[:, :, 0] = -pair.v_prime(q[warm] / pl) - el[warm]
                c[warm] = fit(ts, fixed[warm], 0.0)[0]
        phi, res, u, w, mu, g = point(c)
        errors = [None if x < math.inf else NonconvergedError(
            f"start outside the domain (scaled gradient {x:.3e})", residual=x)
            for x in res.tolist()]
        steps, active = np.zeros(r, dtype=int), res < math.inf
        active &= res > 1e-13
        for _ in range(_NEWTON_CAP):
            if not active.any():
                break
            delta = direction(active)[0]          # 0 at rows not active
            slope, alpha, search = _row_dot(g, delta), np.ones(r), active.copy()
            for _ in range(60):
                ct = c + alpha[:, None] * delta
                trial = point(ct)
                phi1, res1 = trial[:2]
                ok = search & (phi < phi1) & (phi1 >= phi + 1e-4 * alpha * slope)
                if (ok != search).any():
                    # Phi flat to rounding: of U, and of the wealth e + B c,
                    # where B c may cancel e; |B c| <= |w| + |e|
                    flat = 1e-14 * (1.0 + _row_dot(np.abs(u), pl) + np.abs(y0 * c[:, k])
                                    + _row_dot(np.abs(el) + np.abs(w), mu))
                    ok |= search & (phi1 >= phi - flat) & (res1 <= 0.5 * res)
                steps += ok
                search &= ~ok
                if not search.any():
                    # rows not searching have no step left: their trial
                    # repeats their point
                    c, (phi, res, u, w, mu, g) = ct, trial
                    break
                c[ok], delta[ok] = ct[ok], 0.0
                for now, new in zip((phi, res, u, w, mu, g), trial):
                    now[ok] = new[ok]
                alpha[search] *= 0.5
            else:
                for j in np.flatnonzero(search):      # no acceptable step
                    if res[j] > 1e-9:
                        errors[j] = NonconvergedError(
                            f"no acceptable step at scaled gradient {res[j]:.3e}",
                            residual=float(res[j]))
            active &= ~search & (res > 1e-13)
        for j in np.flatnonzero(active):
            errors[j] = NonconvergedError(
                f"Newton cap {_NEWTON_CAP} reached (scaled gradient {res[j]:.3e})",
                residual=float(res[j]))
        last = fixed & np.array([err is None for err in errors]) & curvature
        w2 = direction(last)[1] if last.any() else np.full(r, math.nan)
    full = np.zeros((r, p.size))
    full[:, live] = mu
    if not live.all():
        phi = phi + float(p[~live].sum()) * float(pair.v(0.0))
    return full, c[:, :k], phi, res, steps, w2, errors


# -- public solver ---------------------------------------------------------------


def _prepare(tree, pair):
    """Support mask and flag for the tree's polytope."""
    geo = _support_structure(tree)
    flag = "EQUIVALENT" if bool(geo.mask.all()) else "DEGENERATE"
    if flag == "DEGENERATE" and not math.isfinite(pair.u_inf):
        # V(0) = U(inf) = inf: every feasible measure has infinite entropy
        raise InfeasibleEntropyError(
            "no full-support martingale measure and V(0) is infinite; "
            "the dual is +inf over the whole cone")
    return geo.mask, flag


def _core_solutions(tree, pair, endows, log_mass=None, starts=None):
    """The Newton core on the maximal support for a stack of endowments (r, L),
    at masses e^log_mass (r,) if given (NaN at a free row), started at leaf
    measures (r, L) if given (rows not positive on the support start cold):
    one optimum or the row's :class:`NonconvergedError` per row.  The core
    runs on the columns of :func:`_strategy_basis`; the others get h = 0."""
    mask, flag = _prepare(tree, pair)
    basis = _strategy_basis(_support_structure(tree))
    mass = None if log_mass is None else np.array([math.exp(s) for s in log_mass])
    mu, h_basis, value, res, steps, curvature, errors = _newton_core(
        build_constraints(tree)[basis], tree.leaf_probability_array, endows, pair, mask,
        mass=mass, start=starts)
    h = np.zeros((len(errors), basis.size))
    h[:, basis] = h_basis
    out = []
    for j, err in enumerate(errors):
        if err is not None:
            out.append(err)
            continue
        y = float(mu[j].sum())
        out.append(_solution(tree, pair, endows[j], mu[j], mu[j] / y, log_masses(mu[j] / y),
                             y, math.log(y), float(value[j]), float(res[j]), flag,
                             int(steps[j]), h[j].reshape(-1, tree.n_assets),
                             None if math.isnan(curvature[j]) else float(curvature[j])))
    return out


def _solutions(tree, pair, endows, log_mass=None, starts=None):
    """The dual optima of a stack of endowments (r, L) on one tree, row j at
    the log mass ``log_mass[j]`` if given (NaN at a free row), exact in the
    log-space pass where the mass is subnormal: one optimum or the row's
    :class:`NonconvergedError` per row.  The one place the family picks the
    solver: one log-space pass for the exponential family, else one call of
    the Newton core, started at the leaf measures ``starts`` (r, L) if given."""
    if pair.family == "exponential":
        return _log_space_solutions(tree, pair, endows, log_mass)
    return _core_solutions(tree, pair, endows, log_mass, starts)


def _at_masses(tree, pair, endow, ss):
    """The optima of one endowment at each log mass of ``ss`` (NaN: free),
    from one :func:`_solutions` call; raises the first row's error."""
    ss = np.asarray(ss, dtype=float)
    sols = _solutions(tree, pair, leaf_values(tree, endow)[None].repeat(ss.size, axis=0), ss)
    for sol in sols:
        if isinstance(sol, Exception):
            raise sol
    return sols


def _check_masses(ys):
    """Refuse masses at or below 0, NaN or infinite masses and no mass at all."""
    if any(y <= 0 for y in ys):
        raise NoMartingaleMeasureError("masses must be positive")
    if not ys or not all(math.isfinite(y) for y in ys):
        raise DomainError("masses must be finite, at least one of them")


def solve_dual(tree: MarketTree, pair: UtilityPair, endow=0.0) -> DualSolution:
    """Minimize entropy plus endowment cost over the martingale cone.

    ``endow`` is a RandomVariable / mapping / array / scalar on the leaves.
    Returns the unique optimal measure with its mass, normalization, value
    and stationarity residual.  The support flag is DEGENERATE when no
    equivalent martingale measure exists (the optimum then sits on the
    boundary and primal recovery refuses).  Raises
    :class:`EvaluationOverflowError` for a value below -1e250 and
    :class:`ValueAtSupremumError` when the optimal mass underflows to 0
    (the exponential family, solved exactly in log space, reaches both).
    """
    sol, = _at_masses(tree, pair, endow, [math.nan])
    if not sol.value >= _VALUE_FLOOR:
        raise EvaluationOverflowError("dual objective fell below the floating-point range")
    if sol.mass == 0.0:
        raise ValueAtSupremumError(
            f"optimal value {sol.value!r} (log dual mass {sol._log_mass!r}) is "
            f"within rounding of sup U = {pair.u_inf!r}")
    return sol


def solve_dual_fixed_mass(tree: MarketTree, pair: UtilityPair, endow,
                          y: float) -> DualSolution:
    """Same as :func:`solve_dual` with total mass pinned to a finite ``y > 0``.

    The exponential family's optimum is ``y`` times the normalized
    optimizer of :func:`solve_dual`, from one log-space pass.
    """
    _check_masses([y])
    return _at_masses(tree, pair, endow, [math.log(y)])[0]


@dataclass(frozen=True, eq=False)
class CurvePoint:
    y: float
    value: float
    q_hat: np.ndarray               # (L,), leaf order
    derivative: float


@dataclass(frozen=True)
class CurveReport:
    points: tuple[CurvePoint, ...]
    min_second_difference: float    # least rise of W' between neighbouring masses
    min_value: float


def dual_value_curve(tree: MarketTree, pair: UtilityPair, endow,
                     ys: Sequence[float], *, log: bool = False) -> CurveReport:
    """The mass-indexed dual value curve on a grid of positive masses, given
    as log masses with ``log``, which keep a subnormal mass exact.

    Each point solves the inner problem with total mass pinned, all of them
    by one :func:`_solutions` call at the log masses: one log-space pass for
    the exponential family, one Newton-core call, each row started cold,
    otherwise.  A point's ``y`` is the caller's mass, or e^s (which may
    underflow).  The report carries a numeric convexity certificate, on
    either kind of grid: the least rise of the mass derivative between
    neighbours, since W is convex exactly where W' does not fall; the
    derivatives are exact, also where e^s underflows.  ``log`` chooses
    only how the grid is read.
    """
    ys = sorted(float(y) for y in ys)
    if log:
        if not ys or not all(math.isfinite(s) for s in ys):
            raise DomainError("log masses must be finite, at least one of them")
        with np.errstate(over="ignore"):
            masses = np.exp(ys).tolist()
    else:
        _check_masses(ys)
        masses = ys
    if any(a == b for a, b in zip(ys, ys[1:])):
        raise DomainError("curve masses must be distinct")
    sols = _at_masses(tree, pair, endow, ys if log else [math.log(y) for y in ys])
    pts = [CurvePoint(y=y, value=sol.value, q_hat=sol.q_hat,
                      derivative=sol.mass_derivative) for y, sol in zip(masses, sols)]
    rises = (b.derivative - a.derivative for a, b in zip(pts, pts[1:]))
    return CurveReport(points=tuple(pts),
                       min_second_difference=min(rises, default=math.inf),
                       min_value=min(p.value for p in pts))


def dual_derivative(tree: MarketTree, pair: UtilityPair, endow, y: float) -> float:
    """Derivative of the mass-indexed dual value at ``y``.

    Evaluated by the envelope formula: the conditional expectation, under the
    inner optimizer at mass ``y``, of V' of its density plus the endowment.
    """
    return solve_dual_fixed_mass(tree, pair, endow, y).mass_derivative


@dataclass(frozen=True)
class SupportCheck:
    violations: tuple[tuple[int, str], ...]  # (vertex index, leaf id)
    vertices_tested: int
    vertices_skipped_infinite_entropy: int


def check_maximal_support(sol: DualSolution, vertices) -> SupportCheck:
    """Check that the optimal measure dominates every finite-entropy vertex.

    Any leaf charged (above 1e-10) by a finite-entropy polytope vertex must
    also be charged by the optimum, in :attr:`DualSolution.charged` (the
    optimizer is "as equivalent as possible"; ``q_hat`` may underflow on a
    charged leaf).  ``vertices`` is a stack
    (k, L), checked by one entropy evaluation and one mask; violations run
    by vertex, then leaf.  Report-only.
    """
    tree = sol.tree
    q = np.asarray(vertices, dtype=float).reshape(-1, tree.n_leaves)
    finite = np.isfinite(relative_entropy(tree, sol.pair, q))
    k, i = np.nonzero(finite[:, None] & (q > 1e-10) & ~sol.charged[-tree.n_leaves:])
    return SupportCheck(tuple((int(a), tree.leaf_ids[b]) for a, b in zip(k, i)),
                        int(finite.sum()), int(finite.size - finite.sum()))
