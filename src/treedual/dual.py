"""Dual problem: entropy-plus-endowment minimization over the martingale cone.

The objective is ``F(mu) = sum_l [ p_l V(mu_l/p_l) + mu_l e_l ]`` minimized
over non-negative leaf measures satisfying the martingale equality rows (and
optionally a fixed total mass).  Three solvers share the result type; each
returns the optimal strategy h too, which primal recovery reads.  One
function, ``_solutions``, picks the solver by the utility's family and the
market's completeness for a stack of endowments with one mass per row (NaN
at a free row) and returns one optimum or error per row; ``solve_dual``,
``solve_dual_fixed_mass`` and the pricing searches solve through it.
``dual_value_curve`` reads its points off a solved problem: in closed form
from the exponential pass, else by one ``_solutions`` call started at the
optimum.

* Exponential family: exponential utility does not depend on wealth, so the
  dual is solved exactly by backward induction on the log-partition (Rouge &
  El Karoui, *Math. Finance* 10, 2000; Delbaen et al., *Exponential hedging
  and entropic penalties*, *Math. Finance* 12, 2002).  Each non-leaf node n
  takes ``L_n = min_k logsumexp_c(ln p_(c|n) + L_c - gamma k.dS_c)`` over its
  live children, from ``L_leaf = -gamma e``, and h_n is the minimizer k.
  The pass returns L and h, and the rest is read off them: the normalized
  optimizer has the log weights ``ln p_(c|n) + L_c - L_n - gamma h_n.dS_c``,
  which give its drift and whose path sums are its node log masses, and every
  optimum is a mass times it, the free one at mass ``exp(L_root)`` with
  value ``C - exp(L_root)/gamma``.  Masses like e^-1000 are exact in this
  form.  One pass serves a stack of endowments, each distinct row once.  A
  node with one valid one-step vertex w0 (binomial nodes, d + 1 affinely
  independent increments, a single live child) has no other martingale
  weights, so its optimum is in closed form: the weights w0, ``L_n =
  sum_c w0_c (ln p_(c|n) + L_c - ln w0_c)`` and k the exact fit of its
  exponents.  The nodes with a choice make one Newton batch per level over
  all the endowments, each started at the fit of its exponents to w0, the
  mean of its valid vertices, which is the minimizer where w0 fixes the
  optimal weights' ratios among the moving children (up/flat/down nodes).
  The batch's damped d x d systems are solved by Cramer's rule for up to
  two assets and by LAPACK beyond.  All of it reads the increments over
  each node's ``top``, and h is k over it, so the pass is unit-free (Boyd &
  Vandenberghe 2004, 9.5.1: a Newton step does not depend on the scaling).
* Other families on a complete market (every live non-leaf node has one
  valid vertex, ``SupportStructure.complete``), EQUIVALENT: the martingale
  measure q is unique, so every optimum is y q with the wealth W = I(y q/p)
  (the martingale method of Karatzas, Lehoczky & Shreve, *SIAM J. Control
  Optim.* 25, 1987, and Cox & Huang, *J. Econ. Theory* 49, 1989).  A fixed
  row keeps its y; a free row takes ln y from the budget E_q[I(y q/p)] =
  E_q[e], by the package's one safeguarded root-finder,
  ``_bracketed_newton``, which the pricing searches share.  The value, the
  wealth and W'' come from one ``v_point`` pass, and h is each node's
  one-vertex fit of the conditional gains.  A wealth past the float range
  on a leaf is that leaf's ``EvaluationOverflowError``.
* Other families on an incomplete market, ``dynamic_dual`` and the tests'
  oracle: the optimal
  measure is the marginal utility of the optimal wealth, mu = p U'(e + gains),
  so the dual is solved through its primal, the unconstrained concave
  maximization of E[U(e + gains)] (less y times the cash at a fixed mass y)
  over the strategy, by damped Newton run to rounding.  One call of the
  Newton core solves a stack of such problems on one tree, free and
  fixed-mass rows alike, each row with its own line search, convergence and
  failure; a single solve is a stack of one.  The rows may also be
  different problems, padded to one size: ``dynamic_dual`` solves one
  time's conditional problems, a subtree each, in one call.  Each point
  is one closed-form pass of U, U' and the risk aversion.  Every row
  starts at a measure, fitted in the Newton metric: a warm row at the
  optimum it continues, a cold row at y times the support pass's
  equivalent martingale measure, the whole solution of a complete market
  but for the budget (the martingale method of Karatzas, Lehoczky & Shreve,
  1987, and Cox & Huang, 1989).  Each step is
  one batched Householder QR over the stack, on the strategy columns that
  ``_strategy_basis`` keeps once per tree: the columns independent over
  each node's live children, which are independent over the whole tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (BracketFailError, DomainError, EvaluationOverflowError,
                     InfeasibleEntropyError, NoMartingaleMeasureError, NonconvergedError,
                     ValueAtSupremumError)
from .geometry import _TOL, SupportStructure, _support_structure, build_constraints
from .market import MarketTree, leaf_values, log_masses
from .utility import UtilityPair

_VALUE_FLOOR = -1e250  # below this the optimal utility is numerically -inf
_MAX_PROBES = 100      # probes of one bracketed Newton search


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal measure, mass, normalization, value and diagnostics.

    ``value`` is the optimal value: from the log-partition for the
    exponential family, the dual value sum p V(mu/p) + mu e of a
    complete market's closed form, and the primal value sum p U(e + gains)
    (- y x at a fixed mass y) at the Newton core's optimum, which equals the
    dual one.  ``stationarity`` is the exit residual of the solver: for the
    exponential family the largest one-step drift |E[dS_i | n]| / top_i
    over the assets and live non-leaf nodes, read off the one-step log
    weights of the normalized optimizer; for the closed form the budget
    residual |E_q[X]| / (1 + E_q[|W| + |e|]) at a free mass (0 at a fixed
    one); for the Newton core the scaled gradient of the primal, which is
    the martingale (and mass) residual of mu.  ``mass_curvature`` is W''(y),
    the second derivative of the optimal value in a fixed mass y (else
    None).  ``iterations`` logs the Newton steps taken (of a log-space
    pass, summed over levels of the most any endowment took; of the closed
    form's budget root, its probes).  ``mu`` and ``q_hat``, the optimal and
    normalized measures, are (L,) arrays in leaf order; ``_log_q`` = ln
    q_hat, exact where q_hat underflows, gives :attr:`node_log_q` and
    :attr:`charged`.  :attr:`entropy_terms` and, but for the exponential
    family, :attr:`terminal_gain` read one conjugate point (V, V', V'') at
    mu/p per optimum, formed once by ``pair.v_point`` (by the closed form
    as it solves).
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

    @cached_property
    def _conjugate(self) -> tuple:   # (V, V', V'') at mu/p (L,): one inversion of U'
        return self.pair.v_point(self.density_array)

    @cached_property
    def entropy_terms(self) -> np.ndarray:   # (L,): p V(mu/p), the entropy per leaf
        return self.tree.leaf_probability_array * self._conjugate[0]

    @property
    def terminal_gain(self) -> np.ndarray:
        """X = -V'(mu/p) - e (L,), the optimal terminal gain, +inf off the
        charged leaves: for the exponential family ln(p/mu)/gamma - e from
        the exact log-masses, finite where mu underflows."""
        if self._log_l is None:   # a closed-form or Newton-core optimum
            return -self._conjugate[1] - self._endow_arr
        return _exponential_gain(self, self._log_mass)

    @property
    def mass_derivative(self) -> float:
        """-E_q_hat[X], the envelope derivative of the value in the mass, over
        the charged leaves, read off ``_log_q`` (X is +inf off them):
        :func:`_envelope`."""
        on = self._log_q > -np.inf
        return float(_envelope(self.q_hat, self.terminal_gain[None], on)[0])

    def _require(self, tree, pair, e, caller):
        """Raise :class:`DomainError` unless this solved ``tree`` and
        ``pair`` at the leaf endowment ``e``."""
        if tree is not self.tree or pair is not self.pair or not np.array_equal(e, self._endow_arr):
            raise DomainError(f"{caller} needs the tree, utility and endowment the "
                              "dual solution was solved for")


def _solution(tree, pair, e, mu, q, log_q, mass, log_mass, value, residual, flag, steps,
              h, curvature=None, log_l=None, point=None):
    """The one builder of every kind of optimum; ``point``, the conjugate
    point at mu/p if the solver formed it, becomes the optimum's cached one
    (a copy made by ``dataclasses.replace`` forms its own)."""
    sol = DualSolution(
        tree=tree, pair=pair, mass=mass, value=value, stationarity=residual,
        support=flag, iterations=({"steps": steps, "residual": residual},),
        mu=mu, q_hat=q, mass_curvature=curvature, _endow_arr=e, _log_mass=log_mass,
        _h_arr=h, _log_q=log_q, _log_l=log_l)
    if point is not None:
        sol.__dict__["_conjugate"] = point   # the slot of the cached property
    return sol


# -- exponential family: backward induction in log space ------------------------

_LSE_CAP = 100  # damped Newton steps per level


def _lse_point(b, x, k):
    """At k (g, d) of a batch: f = logsumexp_c(b_c - x_c.k), the softmax
    weights (g, m), their mean of x (g, d) and x.k (g, m)."""
    xk = (x @ k[:, :, None])[:, :, 0]
    z = b - xk
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    total = e.sum(axis=1)
    w = e / total[:, None]
    return top + np.log(total), w, (w[:, None, :] @ x)[:, 0, :], xk


def _lse_solve(hess, lam, rhs):
    """The solutions s (g, d) of the damped systems (hess + lam I) s = rhs,
    hess (g, d, d) and lam (g,): by Cramer's rule for d <= 2, a division
    for d = 1, else by LAPACK."""
    d = rhs.shape[1]
    if d == 1:
        return rhs / (hess[:, 0] + lam[:, None])
    a = hess + lam[:, None, None] * np.eye(d)
    if d > 2:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    # the adjugate [[a11, -a01], [-a10, a00]]
    adj = a[:, ::-1, ::-1].swapaxes(1, 2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return (adj @ rhs[:, :, None])[:, :, 0] / det[:, None]


def _rows(mask, new, old):
    """Per row of a batch, the arrays (g,) or (g, n) of ``new`` where
    ``mask`` (g,) holds, else those of ``old``."""
    return tuple(np.where(mask if a.ndim == 1 else mask[:, None], a, b)
                 for a, b in zip(new, old))


def _lse_min(b, x, k0):
    """``min_k logsumexp_c(b_c - x_c.k)`` for a batch of g nodes with a
    choice of weights (more than one valid vertex).

    ``b`` (g, m) is -inf and ``x`` (g, m, d) zero at padding.  The loop
    starts at ``k0`` (g, d).  Newton steps with Levenberg-Marquardt damping
    relative to the trace of the Hessian, the covariance of x under the
    softmax weights, which is near-singular where the weights sit on few
    children; the damping falls a hundredfold on each accepted step, to
    1e-16, so that the last steps are plain Newton steps.  The damped
    systems are solved by Cramer's rule for d <= 2 and by LAPACK beyond
    (:func:`_lse_solve`); a node that is done solves ``(H + I) s = 0``, so
    the batch stays one stack, with no gather of its active rows.  A step
    moves no exponent by more than one unit; a clipped step is doubled
    while that keeps lowering the value, which crosses exponential tails
    in a few steps.  A step s is accepted on a quarter of its predicted
    decrease ``(E_w[x] - H s / 2).s`` or, where the value is flat to
    rounding, on a smaller gradient.  A node is done once its gradient and
    predicted decrease are at rounding level, or once a step fails with
    its predicted decrease below rounding.  Each point is evaluated once
    (:func:`_lse_point`), and its weights and x.k serve the Hessian and the
    rounding level of the gradient; the iterate is replaced whole when
    every node accepts its step, else row by row (:func:`_rows`).  Returns
    the minima, the minimizers k and the steps.
    """
    top_b = b.max(axis=1)
    b = b - top_b[:, None]
    scale = np.abs(x).max(axis=(1, 2))
    floor = 1e-30 * scale ** 2     # of the damping, where the Hessian vanishes
    damp, k, active = np.full(len(b), 1e-3), k0, np.ones(len(b), dtype=bool)
    now = _lse_point(b, x, k)      # f, w, mean, x.k
    for steps in range(_LSE_CAP + 1):
        f, w, mean, xk = now
        gnorm = np.abs(mean).max(axis=1)
        # rounding level of the gradient: exponents are b - x.k
        gtol = scale * (1e-13 + 1e-15 * np.abs(xk).max(axis=1))
        dev = x - mean[:, None, :]   # centred: E[x x'] - mean mean' cancels
        hess = (w[:, :, None] * dev).swapaxes(1, 2) @ dev
        active &= gnorm > 0.0
        lam = np.where(active, damp * (hess.diagonal(0, 1, 2).sum(axis=1) + floor), 1.0)
        step = _lse_solve(hess, lam, np.where(active[:, None], mean, 0.0))
        shift = np.abs((x @ step[:, :, None])[:, :, 0]).max(axis=1)
        clipped = shift > 1.0
        step /= np.maximum(shift, 1.0)[:, None]
        pred = ((mean - 0.5 * (hess @ step[:, :, None])[:, :, 0]) * step).sum(axis=1)
        active &= ((gnorm > gtol) | (pred > 1e-17 * (1.0 + np.abs(f + top_b)))
                   | (damp > 1e-2))
        if not active.any():
            break
        if steps == _LSE_CAP:
            raise NonconvergedError(
                f"log-partition Newton cap {_LSE_CAP} reached at {active.sum()} nodes")
        trial = _lse_point(b, x, k + step)
        f1 = trial[0]
        tiny = 1e-15 * (1.0 + np.abs(f))
        ok = active & (((f1 < f) & (f1 <= f - 0.25 * pred))
                       | ((f1 <= f + tiny) & (np.abs(trial[2]).max(axis=1) <= 0.5 * gnorm)))
        active &= ok | (pred > tiny)   # else no change is measurable
        grow, alpha = ok & clipped, 1.0
        while grow.any():              # the step doubles in place, alpha counts it
            longer = _lse_point(b, x, k + 2.0 * step)
            grow &= longer[0] < trial[0]
            alpha = np.where(grow, 2.0 * alpha, alpha)
            step = np.where(grow[:, None], 2.0 * step, step)
            trial = _rows(grow, longer, trial)
        if ok.all():                   # the common case, without the selects
            k, now = k + step, trial
        else:
            k = np.where(ok[:, None], k + step, k)
            now = _rows(ok, trial, now)
        damp = np.where(ok, np.maximum(0.01 * damp / alpha, 1e-16), 4.0 * damp)
    return now[0] + top_b, k, steps


def _increments(lay, live, node):
    """The layout's padded children ``kids`` (g, m) of the non-leaf nodes
    ``node`` (g,), cut to the widest of them, the mask of the live ones,
    and their ``step`` over the node's ``top`` (g, m, d), zero off the live
    children and below a node with one live child."""
    m = lay.on[node].sum(axis=1).max()
    kids = lay.kids[node, :m]
    on = lay.on[node, :m] & live[kids]
    dS = np.where((on & (on.sum(axis=1, keepdims=True) > 1))[..., None], lay.step[kids], 0.0)
    return kids, on, dS / lay.top[node, None]


@lru_cache(maxsize=256)
def _live_levels(geo: SupportStructure):
    """Per non-leaf level, bottom-up, its live nodes in up to two batches:
    the nodes with one valid vertex, then those with a choice of weights
    (more than one).  A batch holds the nodes (g,), their padded children
    (g, m), log branch probabilities (-inf at padding and dead children),
    increments over ``top`` (:func:`_increments`, g, m, d), the start's
    operator ``fit`` (g, m, d) and shift ``ln(p / w0)`` (g, m; 0 off the
    live children), and, for a batch of one-vertex nodes, w0 (g, m), else
    None; live as in ``SupportStructure.live``, and w0 the mean of a node's
    valid vertices (``geo.step_weights``), positive on its live children
    and 0 elsewhere.  The start ``k0 = Cov_w0(x)^+ Cov_w0(x, b - ln w0)`` =
    sum_c fit_c (shift_c + L_c) / gamma fits ``b - ln w0`` by ``x.k + f``
    in w0-weighted least squares (x = gamma dS, b = ln p + L); the
    pseudo-inverse, one batched eigh without eigenvalues below _TOL of the
    largest, keeps k0 in the span of the increments, as the minimum-norm
    minimizer in those units.  All live non-leaf nodes are set up in one
    batch, padded to the most children, and each batch is cut out and
    trimmed to its widest node.
    """
    lay, w, live = geo.layout, geo.step_weights, geo.live
    starts = lay.level_starts
    node = np.flatnonzero(live[:starts[-2]])
    single = np.bincount(geo.node, minlength=starts[-2])[node] == 1
    # sorted by level, and within a level by one vertex or a choice: one run per batch
    key = 2 * np.searchsorted(starts, node, side="right") + single
    order = np.argsort(key, kind="stable")
    node, single, key = node[order], single[order], key[order]
    kids, on, dS = _increments(lay, live, node)
    w0 = np.where(on, w[kids], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lnp = np.where(on, np.log(lay.prob[kids]), -np.inf)
        shift = np.where(on, lnp - np.log(w0), 0.0)
    dev = dS - np.einsum("gm,gmd->gd", w0, dS)[:, None]
    ev, vec = np.linalg.eigh(np.einsum("gm,gmd,gme->gde", w0, dev, dev))
    inv = np.divide(1.0, ev, out=np.zeros_like(ev),
                    where=ev > _TOL * np.abs(ev[:, -1:]))
    fit = w0[..., None] * dev @ ((vec * inv[:, None]) @ vec.swapaxes(1, 2))
    width = lay.on[node].sum(axis=1)
    run = np.flatnonzero(np.diff(key, prepend=-1))
    widths = np.maximum.reduceat(width, run).tolist()
    out = []
    for a, b, m in reversed(list(zip(run.tolist(), [*run[1:].tolist(), node.size], widths))):
        out.append((node[a:b], kids[a:b, :m], lnp[a:b, :m], dS[a:b, :m], fit[a:b, :m],
                    shift[a:b, :m], w0[a:b, :m] if single[a] else None))
    return tuple(out)


@lru_cache(maxsize=256)
def _strategy_basis(geo: SupportStructure):
    """The strategy columns the Newton core keeps: a read-only mask over the
    rows of :func:`build_constraints`, true at asset i of a non-leaf node
    of ``geo.live`` whose live increments (:func:`_increments`, in each
    asset's unit) keep a Gram-Schmidt residual (orthogonalized
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
    for r endowments ``e`` (r, leaves), batch by batch of
    :func:`_live_levels`, every node started at the fit k0.  A node with
    one valid vertex w0 has those weights at its optimum, since they are
    its only martingale weights on its live children, so k0, an exact fit
    there, is its minimizer, and ``L_n = sum_c w0_c (ln p_c + L_c - ln
    w0_c)`` in closed form.  The nodes with a choice go to :func:`_lse_min`,
    one call per level that has any: row j * g + i of its batch is
    endowment j at node i.  Where w0 fixes the ratios of the optimal
    weights among a node's moving children (up/flat/down nodes), k0 is the
    minimizer too and the node takes no step.  The loop forms only L and
    h; after it, the optimizer's log weights ``ln p_c + L_c - L_n - gamma
    dS_c.h_n`` (-inf off the live nodes) give the drift and are summed
    down the paths.  Returns per endowment L at every node (N,; 0 at the
    non-leaf nodes ``_live_levels`` drops), the strategy (inner, d) of
    minimizers k over ``top`` (0 where ``_live_levels`` zeroes dS or drops
    the node), the optimizer's node log masses (N,), its largest one-step
    drift over ``top`` and the steps."""
    lay, geo = tree.layout, _support_structure(tree)
    r, inner = e.shape[0], lay.level_starts[-2]
    big_l = np.concatenate([np.zeros((r, inner)), -gamma * e], axis=1)
    steps, h = 0, np.zeros((r, inner, lay.prices.shape[1]))
    for node, kids, lnp, dS, fit, shift, w0 in _live_levels(geo):
        g, kid_l = node.size, big_l.take(kids, axis=1)
        t = shift + kid_l                   # b - ln w0 on the live children
        k = np.einsum("gmd,jgm->jgd", fit, t) / gamma
        if w0 is None:
            f, k, used = _lse_min((lnp + kid_l).reshape(r * g, -1),
                                  np.concatenate([gamma * dS] * r), k.reshape(r * g, -1))
            steps += used
        else:
            f = np.einsum("gm,jgm->jg", w0, t)
        big_l[:, node], h[:, node] = f.reshape(r, g), k.reshape(r, g, -1) / lay.top[node]
    up, dS = lay.parent, lay.step           # the root is its own parent: ln w = 0 there
    log_w = np.where(geo.live, np.log(lay.prob) + big_l - big_l[:, up]
                     - gamma * np.einsum("nd,jnd->jn", dS, h[:, up]), -np.inf)
    drift = np.add.reduceat(np.exp(log_w[:, 1:, None]) * dS[1:], lay.first_child - 1, axis=1)
    return big_l, h, lay.path_sums(log_w), (np.abs(drift) / lay.top).max(axis=(1, 2)), steps


def _log_space_solutions(tree, pair, endows, log_mass=None) -> list[DualSolution]:
    """Exponential optima for a stack of endowments (r, L), row j at the log
    mass ``log_mass[j]`` if given (NaN at a free row), from one pass over
    the distinct rows, each a solution with its mass open (NaN) that
    :func:`_at_log_mass` reads the rows off.  Raises nothing for extreme
    endowments: the log-mass stays exact when the mass or the value leaves
    the floating-point range.
    """
    _, flag = _prepare(tree, pair)
    place = {}   # each distinct row's index in the pass, keyed by its bytes
    slots = [place.setdefault(ej.tobytes(), len(place)) for ej in endows]
    distinct = np.empty((len(place), tree.n_leaves))
    distinct[slots] = endows
    log_ls, hs, ells, drifts, steps = _log_partition(tree, pair.params["gamma"], distinct)
    log_qs = ells[:, tree.layout.level_starts[-2]:]
    opened = [_solution(tree, pair, e, None, np.exp(log_q), log_q, math.nan, math.nan, math.nan,
                        drift, flag, steps, h, log_l=log_l)
              for e, log_l, log_q, h, drift in zip(distinct, log_ls, log_qs, hs, drifts.tolist())]
    log_ys = [math.nan] * len(slots) if log_mass is None else np.asarray(log_mass, float).tolist()
    return [_at_log_mass(opened[i], s) for i, s in zip(slots, log_ys)]


def _at_log_mass(sol, s):
    """The exponential optimum of ``sol``'s problem at log mass ``s`` (NaN:
    free), read off its log-space pass: L, ln q_hat and the strategy do not
    depend on the mass, so the fixed-mass optimum is ``e^s q_hat`` with the
    value of :func:`_fixed_mass_value`; the free one is at s = L_root,
    with value ``C - e^s/gamma``.
    """
    gamma, c = sol.pair.params["gamma"], sol.pair.params["C"]
    free = math.isnan(s)
    log_y = float(sol._log_l[0]) if free else s
    y = _mass(log_y)
    value = c - y / gamma if free else _fixed_mass_value(sol, log_y, y)
    with np.errstate(over="ignore"):
        mu = np.exp(log_y + sol._log_q)
    return replace(sol, mass=y, value=value, mu=mu, _log_mass=log_y)


def _fixed_mass_value(sol, log_y, y):
    """The value ``C + y (ln y - 1 - L_root)/gamma`` of the exponential
    optimum of ``sol``'s problem at the mass(es) y = e^log_y (Delbaen et
    al. 2002), exact in log_y where y underflows; floats or arrays."""
    gamma, c = sol.pair.params["gamma"], sol.pair.params["C"]
    return c + y * (log_y - 1.0 - float(sol._log_l[0])) / gamma


def _envelope(q, x, on):
    """The envelope derivatives -E_q[X] of the value in the mass, one per
    row of the terminal gains ``x`` (r, L), of the normalized optima ``q``
    over the leaves ``on`` that q charges (X is +inf off them), q and on
    (L,) or (r, L): one dot per row.  The one formula of
    :attr:`DualSolution.mass_derivative`, of :func:`dual_value_curve` and
    of the conditional solves of ``recovery``."""
    return _row_dot(np.where(on, -x, 0.0), q)


def _exponential_gain(sol, log_mass):
    """The exponential optimum's terminal gain X = ln(p/mu)/gamma - e at
    the log mass(es) ``log_mass`` (a float, or a column for a row per
    mass), from the exact log masses ln mu = log_mass + ln q_hat: finite
    where mu underflows, +inf off the charged leaves."""
    p, gamma = sol.tree.leaf_probability_array, sol.pair.params["gamma"]
    return (np.log(p) - log_mass - sol._log_q) / gamma - sol._endow_arr


# -- Newton core ------------------------------------------------------------------


_NEWTON_CAP = 200


def _row_dot(a, b):
    """Per row of ``a`` (r, n), its dot product with ``b`` ((n,), (1, n) or
    (r, n)), by one ``dot`` per row, as for a single row."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


@lru_cache(maxsize=None)
def _upper(k):
    """The read-only mask of a k x k upper triangle."""
    mask = np.triu(np.ones((k, k), dtype=bool))
    mask.setflags(write=False)
    return mask


def _qr_fits(J, T):
    """Per row of a stack, the least-squares fits (r, k, m) of the columns of
    ``T`` (r, n, m) by the columns of ``J`` (r, n, k), whose nonzero columns
    are independent: one batched Householder QR of [J | T] and one batched
    solve on its leading k x k triangle.  [J | T] is written into one
    array, with its padding rows: a zero column of J gets a row with 1 in
    that column, so it fits 0 and leaves the other columns' fits unchanged,
    and zero rows pad n up to k + m.  R is read off ``mode="raw"`` (the
    factored matrix, transposed), its triangle under the cached mask
    :func:`_upper` and the fitted columns as they are, so no copy is made
    beyond the QR's own.  A row whose triangle is singular (an exact zero
    on its diagonal, where its nonzero columns are dependent after all) gets
    NaN fits, and the others are solved as without it."""
    r, n, k = J.shape
    m = T.shape[2]
    zero = ~J.any(axis=1)
    pad = k + max(k + m - n, 0) if zero.any() or n < k + m else 0
    M = np.empty((r, n + pad, k + m))
    M[:, :n, :k], M[:, :n, k:] = J, T
    if pad:
        M[:, n:] = 0.0
        M[:, n:n + k, :k] = zero[:, :, None] * np.eye(k)
    R = np.linalg.qr(M, mode="raw")[0].swapaxes(1, 2)
    tri, rhs = np.where(_upper(k), R[:, :k, :k], 0.0), R[:, :k, k:]
    try:
        return np.linalg.solve(tri, rhs)
    except np.linalg.LinAlgError:       # an exact zero pivot: NaN fits on its rows alone
        singular = ~np.diagonal(tri, axis1=1, axis2=2).all(axis=1)[:, None, None]
        return np.linalg.solve(np.where(singular, np.eye(k), tri), np.where(singular, np.nan, rhs))


def _newton_core(A, p, e, pair, live, *, mass=None, start=None, curvature=True):
    """The dual optima of a stack of r problems on the leaves ``live``,
    found through their primals.

    Row j is the problem of strategy rows ``A[j]`` (k, L), leaf
    probabilities ``p[j]`` and endowment ``e[j]``: ``A`` is (1 or r, k, L)
    and ``p`` (1 or r, L), broadcast over the rows, so a shared problem is
    a stack of one ((k, L) and (L,) read as one).  Problems of different
    sizes are padded to one: padding leaves carry p = 0 and zero entries of
    A and e (no mass and no value; they are left out of the start fit and
    of the warm test), and padding strategy rows of A are zero (they fit 0
    and get no step).  It maximizes the concave Phi(c) = sum p U(e_j + B c)
    - y_j x over c = (h, x), the strategy and the cash, with B = [A', 1]:
    at a fixed mass y_j over both, else over h at x = 0; its optimal
    measure is mu = p U'(e_j + B c).  The nonzero rows of ``A[j]`` are
    independent on its leaves in ``live`` (:func:`_strategy_basis`).
    ``e`` is (r, L), ``mass`` None (every row free) or (r,) with NaN at
    free rows, and ``start`` None or (r, L).  The Newton step solves
    H d = grad Phi, H = B' diag(-p U'') B, as least squares in the H^1/2
    scaling with Jacobi-scaled columns, by one batched QR over the rows
    that step (:func:`_qr_fits`); a strategy column whose weights all
    underflow gets no step.  -p U'' is mu times the risk aversion -U''/U'
    of the wealth, and 0 where U' underflows: each point (the start and
    every trial of the line search) is one pass of the pair's ``u_point``,
    which gives U, U' and A together, and the step at a point reads its A,
    evaluated nowhere else in the loop.  A step
    is accepted on Armijo increase or, where Phi is flat to rounding (of U
    and of the wealth), on a scaled gradient at most half as large,
    ``max_j |B' mu - y e_x|_j / (max|B_j| sum mu)`` (each column in its own
    unit, 1 at a zero column), the martingale and mass residual of mu
    relative to its mass.  A row runs to 1e-13, or
    stops below 1e-9 once no step is acceptable.  Rows share the loop but
    not their arithmetic: each has its own Armijo search, flat test,
    convergence and failure, and a row that is done stands still, so a
    row's result does not depend on the others.  Row j of ``start``, a leaf
    measure q positive on the row's leaves in ``live``, starts it at the fit
    of B c to I(q/p) - e_j, I = -V' the wealth at which mu = q, in the
    Newton metric: the same solve with the weights sqrt(q A(I(q/p))) of the
    step's J, A the risk aversion.  From a neighbouring optimum this is the
    first-order tangent; from y times a complete market's martingale
    measure, the optimum up to the budget.  Other rows start at c = 0.
    Returns per row mu (r, L; 0 off
    ``live``), h (r, k), the value (plus p V(0) off ``live``), the
    residual, the steps, W''(y) = [H^-1]_xx at the last point (with A(0)
    at a wealth within rounding of 0; NaN at free rows, and everywhere
    without ``curvature``, which saves its QR: only
    the penalty search and :func:`solve_dual_fixed_mass` read it) and
    the row's error, None or a :class:`NonconvergedError` (after 200 steps,
    from a start outside the domain, on a singular Newton system, or
    without an acceptable step above 1e-9).
    """
    A, p = (A if A.ndim == 3 else A[None]), np.atleast_2d(p)
    pl, el = p[:, live], e[:, live]
    r, n = el.shape
    y = np.full(r, math.nan) if mass is None else np.asarray(mass, dtype=float)
    fixed = ~np.isnan(y)
    y0 = np.where(fixed, y, 0.0)
    k = A.shape[1]              # strategy columns; the cash column follows
    B = np.empty((len(A), n, k + 1))
    B[:, :, :k], B[:, :, k] = A[:, :, live].swapaxes(1, 2), 1.0
    Bk, Bt = B[:, :, :k], B.swapaxes(1, 2)
    # the scale of each gradient entry, its column's own unit max|B_j| (1 at
    # a zero column), infinite at the cash of free rows
    top = np.abs(B).max(axis=1)
    scale = np.where(fixed[:, None] | (np.arange(k + 1) < k), np.where(top > 0, top, 1.0),
                     math.inf)

    def share(x, rows):
        """The rows ``rows`` of a stack of 1 or r problems."""
        return x if len(x) == 1 else x[rows]

    def point(c):
        """Per row: Phi, the scaled gradient, U, the wealth, mu, grad Phi and
        the risk aversion, from one closed-form pass over the wealth."""
        w = el + (B @ c[:, :, None])[:, :, 0]
        u, up, ra = pair.u_point(w)
        mu = pl * up
        g = (Bt @ mu[:, :, None])[:, :, 0]
        g[:, k] -= y0
        phi = _row_dot(u, pl) - y0 * c[:, k]
        res = np.abs(g / scale).max(axis=1) / mu.sum(axis=1)
        bad = ~np.isfinite(phi + res)
        phi[bad], res[bad] = -math.inf, math.inf
        return phi, res, u, w, mu, g, ra

    def fit(ts, rows, ys):
        """Per row of ``ts`` = [t | s] (a, n, 2), of the rows ``rows``, the
        c (a, k + 1) with J'(J c - t) = -ys e_x, J = diag(s) B, over (h, x)
        at fixed masses, else over h at x = 0; and [(J'J)^-1]_xx at the
        fixed masses (NaN elsewhere)."""
        t, s, cash = ts[:, :, 0], ts[:, :, 1], fixed[rows]
        jh = s[:, :, None] * share(Bk, rows)
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
        elsewhere, and [H^-1]_xx there at fixed masses (else NaN), from the
        point's mu and risk aversion."""
        m = mu[rows]
        ts = np.zeros(m.shape + (2,))
        s = ts[:, :, 1] = np.sqrt(m * ra[rows])                       # H = J'J
        np.divide(m, s, out=ts[:, :, 0], where=s > 0)                 # J't = B'mu
        step, inv = np.zeros((r, k + 1)), np.full(r, math.nan)
        step[rows], inv[rows] = fit(ts, rows, y0[rows])
        return step, inv

    c = np.zeros((r, k + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if start is not None:
            q, on = start[:, live], pl > 0      # padding leaves are not on
            warm = ((q > 0) | ~on).all(axis=1)
            if warm.any():
                q, on, p_w = q[warm], share(on, warm), share(pl, warm)
                dens = np.divide(q, p_w, out=np.ones(q.shape), where=on)
                x = -pair.v_prime(dens)         # the wealth I(q/p) at which mu = q
                ts = np.zeros(q.shape + (2,))
                s = ts[:, :, 1] = np.where(on, np.sqrt(q * pair.risk_aversion(x)), 0.0)
                ts[:, :, 0] = s * (x - el[warm])
                c[warm] = fit(ts, warm, 0.0)[0]
        phi, res, u, w, mu, g, ra = point(c)
        errors = [None if x < math.inf else NonconvergedError(
            "singular Newton system at the start fit" if np.isnan(c[j]).any() else
            f"start outside the domain (scaled gradient {x:.3e})", residual=x)
            for j, x in enumerate(res.tolist())]
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
                    c, (phi, res, u, w, mu, g, ra) = ct, trial
                    break
                c[ok], delta[ok] = ct[ok], 0.0
                for now, new in zip((phi, res, u, w, mu, g, ra), trial):
                    now[ok] = new[ok]
                alpha[search] *= 0.5
            else:
                for j in np.flatnonzero(search):      # no acceptable step
                    if np.isnan(delta[j]).any():     # nor any step: a singular system
                        errors[j] = NonconvergedError(
                            f"singular Newton system at scaled gradient {res[j]:.3e}",
                            residual=float(res[j]))
                    elif res[j] > 1e-9:
                        errors[j] = NonconvergedError(
                            f"no acceptable step at scaled gradient {res[j]:.3e}",
                            residual=float(res[j]))
            active &= ~search & (res > 1e-13)
        for j in np.flatnonzero(active):
            errors[j] = NonconvergedError(
                f"Newton cap {_NEWTON_CAP} reached (scaled gradient {res[j]:.3e})",
                residual=float(res[j]))
        last = fixed & np.array([err is None for err in errors], dtype=bool) & curvature
        w2 = np.full(r, math.nan)
        if last.any():
            # the risk aversion may jump at a wealth of 0 (the two-power
            # kink): a wealth within rounding of 0 reads A(0), so that W''
            # takes one side of the kink whatever side the last iterate's
            # rounding left it on
            zero = np.abs(w) <= 1e-14 * (1.0 + np.abs(el))
            if zero.any():
                ra = np.where(zero, pair.risk_aversion(np.zeros_like(w)), ra)
            w2 = direction(last)[1]
    full = np.zeros((r, p.shape[1]))
    full[:, live] = mu
    if not live.all():
        phi = phi + p[:, ~live].sum(axis=1) * float(pair.v(0.0))
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


def _mass(s: float) -> float:
    """e^s, the mass of the log mass ``s``: the one conversion of this
    module; inf past the floating-point range, NaN (a free row) kept."""
    try:
        return math.exp(s)
    except OverflowError:
        return math.inf


def _masses(pair, log_mass, r):
    """The masses e^log_mass (r,) of a stack of r rows (NaN at a free row,
    every row free without ``log_mass``), and per row None or the
    :class:`EvaluationOverflowError` of a mass past the floating-point
    range or of one whose wealth I(y) = -V'(y) is, which is not solved.
    Such a mass has no optimum in floats: some leaf has density y q/p <= y
    (the ratios q/p average 1 under p), so its optimal wealth is at least
    I(y)."""
    y = np.full(r, math.nan) if log_mass is None else np.array([_mass(s) for s in log_mass])
    past, fixed = np.isinf(y), np.isfinite(y)
    if fixed.any():
        past[fixed] = ~np.isfinite(pair.v_prime(y[fixed]))
    out = [None] * r
    for j in np.flatnonzero(past).tolist():
        what = "mass" if np.isinf(y[j]) else "wealth I(y) = -V'(y) at the mass y ="
        out[j] = EvaluationOverflowError(
            f"{what} e^{float(log_mass[j])!r} is past the floating-point range")
    return y, out


def _core_solutions(tree, pair, endows, log_mass=None, starts=None, curvature=True):
    """The Newton core on the maximal support for a stack of endowments (r, L),
    at masses e^log_mass (r,) if given (NaN at a free row), started at leaf
    measures (r, L) if given: one optimum or the row's error per row, a
    :class:`NonconvergedError` or the :class:`EvaluationOverflowError` of
    :func:`_masses`.  The core runs on the columns of
    :func:`_strategy_basis`; the others get h = 0.  Each optimum at a fixed
    mass carries W'' unless ``curvature`` is false, which saves its
    factorization.  :func:`_solutions` sends it the incomplete markets;
    on complete ones it is the tests' oracle of :func:`_complete_solutions`.

    A row without a start positive on the support starts at y q, the
    complete-market optimum up to the budget (Karatzas, Lehoczky & Shreve,
    *SIAM J. Control Optim.* 25, 1987): q is the support pass's equivalent
    martingale measure, exp of ``geo.log_interior`` on the leaves, and y the
    row's mass, or at a free row U'(E_q[e]), the mass at which the constant
    wealth E_q[e] is optimal, with E_q[e] taken row by row.  The core starts
    a row at c = 0 where y is not finite, or where y q is not positive on
    the support (q underflows on a live leaf of the caterpillar)."""
    mask, flag = _prepare(tree, pair)
    geo = _support_structure(tree)
    basis = _strategy_basis(geo)
    y, out = _masses(pair, log_mass, len(endows))
    run = np.array([err is None for err in out], dtype=bool)
    starts = np.zeros(endows.shape) if starts is None else np.array(starts, dtype=float)
    cold = ~(starts[:, mask] > 0).all(axis=1)
    if cold.any():
        q = np.exp(geo.log_interior[-tree.n_leaves:])
        with np.errstate(over="ignore"):
            y0 = np.where(np.isnan(y), pair.u_prime(_row_dot(endows, q)), y)
        cold &= np.isfinite(y0)
        starts[cold] = y0[cold, None] * q
    mu, h_basis, value, res, steps, w2, errors = _newton_core(
        build_constraints(tree)[basis], tree.leaf_probability_array, endows[run], pair, mask,
        mass=y[run], start=starts[run], curvature=curvature)
    h = np.zeros((len(errors), basis.size))
    h[:, basis] = h_basis
    for i, j in enumerate(np.flatnonzero(run).tolist()):
        if errors[i] is not None:
            out[j] = errors[i]
            continue
        m = float(mu[i].sum())
        out[j] = _solution(tree, pair, endows[j], mu[i], mu[i] / m, log_masses(mu[i] / m),
                           m, math.log(m), float(value[i]), float(res[i]), flag,
                           int(steps[i]), h[i].reshape(-1, tree.n_assets),
                           None if math.isnan(w2[i]) else float(w2[i]))
    return out


# -- complete markets: the martingale method in closed form ----------------------


def _bracketed_newton(probe, x, lo, hi, *, x_tol=0.0):
    """Root of an increasing function by Newton steps kept inside a bracket:
    the package's one safeguarded scalar root-finder.

    ``probe(x)`` is a search (it yields solve requests, or none) that
    returns ``(g, slope, done)``; ``done`` accepts x as the root.  A step
    that is unavailable or leaves the bracket is replaced by bisection, or
    by a doubling stride while a side is still open.  Returns the accepted
    probe point, or the last one once the Newton step or the bracket is
    within ``x_tol``; raises :class:`BracketFailError` after 100 probes.
    """
    stride = 1.0
    for _ in range(_MAX_PROBES):
        g, slope, done = yield from probe(x)
        if done:
            return x
        if g < 0:
            lo = x
        else:
            hi = x
        newton = x - g / slope if slope and slope > 0 else math.nan
        if x_tol and (abs(newton - x) <= x_tol or hi - lo <= x_tol):
            return x
        if lo < newton < hi:
            x = newton
        elif math.isinf(lo) or math.isinf(hi):
            x = x + stride if g < 0 else x - stride
            stride *= 2.0
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise BracketFailError(
                    f"root bracket [{lo!r}, {hi!r}] collapsed at residual {g:.3e}")
    raise BracketFailError(f"no root after {_MAX_PROBES} probes in [{lo}, {hi}]")


def _complete_rows(pair, p, log_q, e, log_m, starts):
    """Complete problems in closed form, laid end to end: problem i owns the
    leaves from ``starts[i]`` to the next start of the flat (K,) arrays of
    leaf probabilities ``p``, endowments ``e`` and leaf log masses
    ``log_q`` of its unique martingale measure q (normalized), at the log
    mass ln y of ``log_m`` (a float, or (K,) and constant on each problem).
    Its optimum is the measure mu = y q and the wealth W = I(mu/p) =
    -V'(mu/p) (the martingale method: Karatzas, Lehoczky & Shreve 1987;
    Cox & Huang 1989), from one ``v_point`` pass at mu/p, mu = exp(ln y +
    ln q), so that the point is the optimum's own (``DualSolution`` forms it
    at ``density_array``).  Returns per problem (3, k) its value sum p V +
    mu e, its mass derivative E_q[V' + e] = -E_q[X], increasing in ln y,
    and that derivative's slope in ln y, sum q (mu/p) V'' = y W''(y); per
    leaf mu and the point (V, V', V'')."""
    with np.errstate(over="ignore"):
        mu = np.exp(log_m + log_q)
        z = mu / p
    point = pair.v_point(z)
    v, vp, v2 = point
    q = np.exp(log_q)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.stack([p * v + mu * e, q * (vp + e), q * z * v2])
    return np.add.reduceat(terms, starts, axis=1), mu, point


def _past_float(leaf_ids, w, what):
    """The :class:`EvaluationOverflowError` of the first leaf whose optimal
    wealth ``w`` (L,) is not finite, or None."""
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size == 0:
        return None
    return EvaluationOverflowError(
        f"the optimal wealth I(y q/p) {what} at leaf {leaf_ids[bad[0]]!r} is past the "
        "floating-point range", node_id=leaf_ids[bad[0]])


def _budget_root(tree, pair, log_q, e, s):
    """The log mass ln y of a complete market's free optimum: the root of
    its mass derivative E_q[V'(y q/p) + e] (the budget E_q[W] = E_q[e])
    by :func:`_bracketed_newton` in ln y, from ``s``, with the slope of
    :func:`_complete_rows`.  A probe whose wealth is past the float range on
    a leaf reads -inf (its y is too small), or +inf where it is -inf; the
    root is accepted once the derivative is within 1e-14 of E_q[|W| + |e|]
    or the Newton step within rounding of ln y.  Returns ln y and the
    probes; raises the
    :class:`EvaluationOverflowError` of the last leaf past the float range
    when the search ends on that boundary (the optimal wealth there is
    past it), else :class:`NonconvergedError`."""
    p, q = tree.leaf_probability_array, np.exp(log_q)
    last = {"probes": 0, "over": None}   # the probes, and the last wealth past the float range

    def probe(x):
        yield from ()   # asks for no solve
        last["probes"] += 1
        sums, _, (_, vp, _) = _complete_rows(pair, p, log_q, e, x, [0])
        w = -vp
        if not np.isfinite(w).all():
            if np.isposinf(w).any():
                last["over"] = _past_float(tree.leaf_ids, w, "at the budget root")
                return -math.inf, None, False
            return math.inf, None, False
        g, slope = float(sums[1, 0]), float(sums[2, 0])
        step = g / slope if slope > 0 else math.inf
        return g, slope, (abs(g) <= 1e-14 * (1.0 + float(q @ (np.abs(w) + np.abs(e))))
                          or abs(step) <= 4.0 * np.spacing(1.0 + abs(x)))

    try:
        next(_bracketed_newton(probe, s, -math.inf, math.inf))
    except StopIteration as stop:
        return stop.value, last["probes"]
    except BracketFailError as exc:
        if last["over"] is not None:
            raise last["over"] from None
        raise NonconvergedError(f"budget root of the complete market: {exc}") from None


def _complete_solutions(tree, pair, geo, endows, log_mass=None, starts=None, curvature=True):
    """The optima of a stack of endowments (r, L) on a complete EQUIVALENT
    market, whose unique martingale measure q has the node log masses ell
    of the support pass's ``geo.log_interior``, at the masses e^log_mass
    (r,) if given (NaN at a free row): one optimum or the row's error per
    row, with no Newton core and no constraint matrix.  A fixed row keeps
    its own y; a free row takes ln y from :func:`_budget_root`, started at
    the log mass of its start measure if that is positive on the leaves,
    else at ln U'(E_q[e]), the mass at which the constant wealth E_q[e] is
    optimal.  Then one :func:`_complete_rows` pass over every row gives mu
    = exp(ln y + ln q), the value, the wealth and, at the fixed rows unless
    ``curvature`` is false, W'' = sum q / (y A(W)).  A row whose wealth is past the float
    range on a leaf is that leaf's :class:`EvaluationOverflowError`, as is
    a mass of :func:`_masses`.  The strategy at each non-leaf node is its
    one-vertex fit (the ``fit`` of :func:`_live_levels`, over ``top``) of
    E_q[X | child] - E_q[X | node], exact since the node's increments are
    affinely independent, for every row in one pass over the levels."""
    lay, p, n, ell = tree.layout, tree.leaf_probability_array, tree.n_leaves, geo.log_interior
    log_q, r = ell[-n:], len(endows)
    y, out = _masses(pair, log_mass, r)
    s = np.full(r, math.nan) if log_mass is None else np.array(log_mass, dtype=float)
    probes = np.zeros(r, dtype=int)
    for j in np.flatnonzero(np.isnan(y)).tolist():
        guess = math.nan
        if starts is not None and (starts[j] > 0).all():
            guess = math.log(starts[j].sum())
        if not math.isfinite(guess):
            with np.errstate(divide="ignore", over="ignore"):
                guess = float(np.log(pair.u_prime(np.exp(log_q) @ endows[j])))
        try:
            s[j], probes[j] = _budget_root(tree, pair, log_q, endows[j],
                                           guess if math.isfinite(guess) else 0.0)
        except (EvaluationOverflowError, NonconvergedError) as exc:
            out[j] = exc
    rows = [j for j in range(r) if out[j] is None]
    if not rows:
        return out
    k, e = len(rows), endows[rows]
    sums, mu, point = _complete_rows(pair, np.tile(p, k), np.tile(log_q, k), e.ravel(),
                                     np.repeat(s[rows], n), np.arange(k) * n)
    mu, (v, vp, v2) = mu.reshape(k, n), (x.reshape(k, n) for x in point)
    finite = np.isfinite(vp)
    cond = tree.conditional_expectation(np.where(finite, -vp - e, 0.0), ell)
    h = np.zeros((k, lay.level_starts[-2], tree.n_assets))
    for node, kids, _, _, fit, _, _ in _live_levels(geo):
        h[:, node] = np.einsum("gmd,rgm->rgd", fit, cond[:, kids] - cond[:, node, None])
        h[:, node] /= lay.top[node]
    q = np.exp(log_q)
    log_q = log_masses(q)   # ln q_hat, as the core's optima have it
    for i, j in enumerate(rows):
        if not finite[i].all():
            out[j] = _past_float(tree.leaf_ids, vp[i], f"at the mass e^{s[j]!r}")
            continue
        y_j, free = _mass(s[j]), math.isnan(y[j])
        residual = 0.0 if not free else abs(float(sums[1, i])) / (
            1.0 + float(q @ (np.abs(vp[i]) + np.abs(e[i]))))
        out[j] = _solution(tree, pair, e[i], mu[i], q, log_q, y_j, float(s[j]),
                           float(sums[0, i]), residual, "EQUIVALENT", int(probes[j]), h[i],
                           float(sums[2, i]) / y_j if curvature and not free else None,
                           point=(v[i], vp[i], v2[i]))
    return out


def _solutions(tree, pair, endows, log_mass=None, starts=None, curvature=True):
    """The dual optima of a stack of endowments (r, L) on one tree, row j at
    the log mass ``log_mass[j]`` if given (NaN at a free row), exact in the
    log-space pass where the mass is subnormal: one optimum or the row's
    error per row.  The one place the family picks the solver: one
    log-space pass for the exponential family; else, on a complete
    EQUIVALENT market (``SupportStructure.complete``), the closed form of
    :func:`_complete_solutions`, and otherwise one call of the Newton core
    (:func:`_core_solutions`), started at the leaf measures ``starts`` (r,
    L) if given; each with W'' at the fixed masses unless ``curvature`` is
    false."""
    if pair.family == "exponential":
        return _log_space_solutions(tree, pair, endows, log_mass)
    _, flag = _prepare(tree, pair)
    geo = _support_structure(tree)
    if geo.complete and flag == "EQUIVALENT":
        return _complete_solutions(tree, pair, geo, endows, log_mass, starts, curvature)
    return _core_solutions(tree, pair, endows, log_mass, starts, curvature)


def _at_masses(tree, pair, endow, ss, starts=None, curvature=True):
    """The optima of one endowment at each log mass of ``ss`` (NaN: free),
    from one :func:`_solutions` call with the leaf measures ``starts``, with
    W'' at the fixed masses unless ``curvature`` is false; raises the first
    row's error."""
    ss = np.asarray(ss, dtype=float)
    sols = _solutions(tree, pair, leaf_values(tree, endow)[None].repeat(ss.size, axis=0), ss,
                      starts, curvature)
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


def dual_value_curve(sol: DualSolution, ys: Sequence[float], *,
                     log: bool = False) -> CurveReport:
    """The mass-indexed dual value curve of ``sol``'s problem on a grid of
    positive masses, given as log masses with ``log``, which keep a
    subnormal mass exact.

    Each point is the inner optimum at its pinned mass e^s, read off the
    solved problem: for the exponential family in closed form from ``sol``
    itself (the measure e^s q_hat), every point at once, its value by
    :func:`_fixed_mass_value` (as :func:`_at_log_mass` has it); otherwise
    by one :func:`_solutions` call (the closed form on a complete market,
    else the Newton core) whose rows start at ``sol.mu * e^(s - ln m)``,
    m = ``sol.mass``, and form no W'', which no point reads; raises the
    first row's error.  The derivatives -E_q_hat[X] are :func:`_envelope`,
    one dot per point, with X of every point from one evaluation.  At s =
    ``sol._log_mass`` the row is the root's conditional problem of
    ``recovery.dynamic_dual``, bit for bit.  A point's ``y`` is the
    caller's mass, or e^s (which may underflow).  The report carries a
    numeric convexity certificate, on either kind of grid: the least rise
    of the mass derivative between neighbours, since W is convex exactly
    where W' does not fall; the derivatives are exact, also where e^s
    underflows.  The least rise and the least value are NaN when any point
    reads NaN.  ``log`` chooses only how the grid is read.
    """
    ys = sorted(float(y) for y in ys)
    if log:
        if not ys or not all(math.isfinite(s) for s in ys):
            raise DomainError("log masses must be finite, at least one of them")
        masses = [_mass(s) for s in ys]
    else:
        _check_masses(ys)
        masses = ys
    if any(a == b for a, b in zip(ys, ys[1:])):
        raise DomainError("curve masses must be distinct")
    ss = ys if log else [math.log(y) for y in ys]
    if sol._log_l is not None:
        s = np.array(ss)
        derivs = _envelope(sol.q_hat, _exponential_gain(sol, s[:, None]), sol._log_q > -np.inf)
        values = _fixed_mass_value(sol, s, np.array([_mass(x) for x in ss]))
        q_hats = [sol.q_hat] * len(ss)
    else:
        with np.errstate(over="ignore"):
            starts = sol.mu * np.exp(np.array(ss) - sol._log_mass)[:, None]
        # no point reads W'', so none is factored
        sols = _at_masses(sol.tree, sol.pair, sol._endow_arr, ss, starts, False)
        q_hats = [pt.q_hat for pt in sols]
        mus = np.array([pt.mu for pt in sols])
        # X = -V'(mu/p) - e of every point in one evaluation
        gains = -sol.pair.v_prime(mus / sol.tree.leaf_probability_array) - np.array(
            [pt._endow_arr for pt in sols])
        on = np.array([pt._log_q for pt in sols]) > -np.inf
        derivs = _envelope(np.array(q_hats), gains, on)
        values = np.array([pt.value for pt in sols])
    pts = [CurvePoint(y=y, value=v, q_hat=q, derivative=d)
           for y, v, q, d in zip(masses, values.tolist(), q_hats, derivs.tolist())]
    # reductions that propagate NaN: a NaN point fails the certificate
    return CurveReport(points=tuple(pts),
                       min_second_difference=float(np.diff(derivs).min(initial=math.inf)),
                       min_value=float(values.min()))


def dual_derivative(tree: MarketTree, pair: UtilityPair, endow, y: float) -> float:
    """Derivative of the mass-indexed dual value at ``y``.

    Evaluated by the envelope formula: the conditional expectation, under the
    inner optimizer at mass ``y``, of V' of its density plus the endowment.
    """
    return solve_dual_fixed_mass(tree, pair, endow, y).mass_derivative
