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
optimum.  An optimum stores its exact form once, ln y and ln q_hat, and the
mass, the measures and W''(y) (one backward pass off the exponential
family, ``_cash_weight``) are read off it on first use.  Every mass enters
the package in that form, as ln y by keyword, checked once (``_log_grid``).

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
  weights: its optimum is w0, ``L_n = sum_c w0_c (ln p_(c|n) + L_c - ln
  w0_c)`` and k the exact fit of its exponents.  The nodes with a choice
  make one Newton batch per level over all the endowments, started at that
  fit to w0, the mean of their valid vertices, or, where the first step
  from it is clipped, at their vertices' max-plus minimizer if lower, with
  steps of a proven descent and no line search.  All of it reads the
  increments over each node's ``top``, and h is k over it, so the pass is
  unit-free (Boyd & Vandenberghe 2004, 9.5.1: a Newton step does not
  depend on the scaling).
* Other families on a complete market (every live non-leaf node has one
  valid vertex, ``SupportStructure.complete``), EQUIVALENT: the martingale
  measure q is unique, so every optimum is y q with the wealth W = I(y q/p)
  (the martingale method of Karatzas, Lehoczky & Shreve, *SIAM J. Control
  Optim.* 25, 1987, and Cox & Huang, *J. Econ. Theory* 49, 1989).  A fixed
  row keeps its y; a free row takes ln y from the budget E_q[I(y q/p)] =
  E_q[e], by the package's one root-finder, ``_bracketed_newton`` (Newton
  steps under Brent's safeguard), which every pricing search takes too.
  The value and the wealth come from one ``v_point`` pass, and h is each
  node's one-vertex fit of the conditional gains.  A wealth past the float
  range on a leaf is that leaf's ``EvaluationOverflowError``.
* Other families on an incomplete market, ``dynamic_dual`` and the tests'
  oracle: the optimal measure is the marginal utility of the optimal
  wealth, mu = p U'(e + gains), so the dual is solved through its primal,
  the concave maximization of E[U(e + gains)] (less y times the cash at a
  fixed mass y) over the strategy, by damped Newton run to rounding.  One
  call of the Newton core solves a stack of such problems on one tree, free
  and fixed-mass rows or (``dynamic_dual``) one time's conditional
  problems padded to one size, each row with its own line search,
  convergence and failure.  Each point is one closed-form pass of U, U'
  and the risk aversion.  A row starts at a measure fitted in the Newton
  metric: a warm row at the optimum it continues, a cold row at y times
  the support pass's equivalent martingale measure, a complete market's
  solution but for the budget.  Each step is one batched Householder QR
  over the stack, on the strategy columns ``_strategy_basis`` keeps: those
  independent over each node's live children, hence over the whole tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (BracketFailError, DomainError, EvaluationOverflowError,
                     InfeasibleEntropyError, NonconvergedError, ValueAtSupremumError)
from .geometry import _TOL, SupportStructure, _support_structure, build_constraints
from .market import MarketTree, leaf_values, log_masses, per_owner
from .utility import UtilityPair

_VALUE_FLOOR = -1e250  # below this the optimal utility is numerically -inf
_MAX_PROBES = 100      # probes of one bracketed Newton search


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Optimal measure, mass, normalization, value and diagnostics.

    The fields hold each fact once, the measure as ln y = ``_log_mass``
    and ln q_hat = ``_log_q`` (L,), exact where y or q_hat leave the float
    range; ``mass`` = e^ln y, ``q_hat`` = exp(ln q_hat), ``mu`` = exp(ln y
    + ln q_hat) (leaf order) and the rest are read off them on first use.
    ``value``: from the log-partition for the exponential family, sum p
    V(mu/p) + mu e in a complete market's closed form, and the primal sum
    p U(e + gains) (- y x at a fixed mass y) at the Newton core's optimum.
    ``stationarity``, the exit residual: for the exponential family the
    largest one-step drift |E[dS_i | n]| / top_i over the live non-leaf
    nodes; for the closed form |E_q[X]| / (1 + E_q[|W| + |e|]) at a free
    mass (0 at a fixed one); for the Newton core the primal's scaled
    gradient, the martingale (and mass) residual of mu.  ``steps``: the
    Newton steps (of a log-space pass, summed over levels of the most any
    endowment took; the closed form's budget-root probes).
    :attr:`entropy_terms` and, but for the exponential family,
    :attr:`terminal_gain` read one conjugate point (V, V', V'') at mu/p,
    formed once by ``pair.v_point`` (by the closed form as it solves).
    """

    tree: MarketTree
    pair: UtilityPair
    value: float
    stationarity: float
    support: str                      # "EQUIVALENT" | "DEGENERATE"
    steps: int
    _endow_arr: np.ndarray = field(repr=False)
    _log_mass: float = field(repr=False)
    _log_q: np.ndarray = field(repr=False)   # ln q_hat (L,)
    _h_arr: np.ndarray = field(repr=False)   # strategy (non-leaf nodes, d)
    _log_l: np.ndarray = field(repr=False, default=None)  # L_n (N,), exponential family

    @cached_property
    def mass(self) -> float:
        return _mass(self._log_mass)

    @cached_property
    def q_hat(self) -> np.ndarray:
        return np.exp(self._log_q)

    @cached_property
    def mu(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self._log_mass + self._log_q)

    @cached_property
    def iterations(self) -> tuple[dict, ...]:
        return ({"steps": self.steps, "residual": self.stationarity},)

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

    @cached_property
    def mass_curvature(self) -> float:
        """W''(y) at this optimum's own mass y: e^-ln y / gamma for the
        exponential family, else e^-ln y / alpha of :func:`_cash_weight`, A
        at the wealth W = -V'(mu/p) by :func:`_risk_aversion_at`."""
        if self._log_l is not None:
            return _mass(-self._log_mass) / self.pair.params["gamma"]
        geo = _support_structure(self.tree)
        on = geo.mask
        ra = _risk_aversion_at(self.pair, -self._conjugate[1][on], self._endow_arr[on])
        return _mass(-self._log_mass) / _cash_weight(geo, self.q_hat[on] * ra)

    def _require(self, tree, pair, e, caller):
        """Raise :class:`DomainError` unless this solved ``tree`` and
        ``pair`` at the leaf endowment ``e``."""
        if tree is not self.tree or pair is not self.pair or not np.array_equal(e, self._endow_arr):
            raise DomainError(f"{caller} needs the tree, utility and endowment the "
                              "dual solution was solved for")


def _solution(tree, pair, e, log_q, log_mass, value, residual, flag, steps, h, log_l=None,
              point=None):
    """The one builder of every kind of optimum, from its exact form ln
    q_hat = ``log_q`` and ln y = ``log_mass``; ``point``, the conjugate
    point at mu/p if the solver formed it, becomes the optimum's cached one
    (a copy made by ``dataclasses.replace`` forms its own)."""
    sol = DualSolution(tree=tree, pair=pair, value=value, stationarity=residual, support=flag,
                       steps=steps, _endow_arr=e, _log_mass=log_mass, _log_q=log_q, _h_arr=h,
                       _log_l=log_l)
    if point is not None:
        sol.__dict__["_conjugate"] = point   # the slot of the cached property
    return sol


# -- exponential family: backward induction in log space ------------------------

_LSE_CAP = 100  # Newton steps per level


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


def _lse_solve(a, rhs):
    """The solutions s (g, d) of the systems a s = rhs, a (g, d, d): a
    division for d = 1, Cramer's rule for d = 2, else LAPACK."""
    d = rhs.shape[1]
    if d == 1:
        return rhs / a[:, 0]
    if d > 2:
        return np.linalg.solve(a, rhs[:, :, None])[:, :, 0]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    adj = a[:, ::-1, ::-1].swapaxes(1, 2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return (adj @ rhs[:, :, None])[:, :, 0] / det[:, None]


def _max_plus(b, x, vert):
    """A minimizer k (n, d) of ``max_c(b_c - x_c.k)``, the linear program
    that ``logsumexp`` smooths (Nesterov, *Math. Program.* 103, 2005), for
    rows b (n, m), x (n, m, d) and their nodes' valid vertices ``vert`` (n,
    V, m).  By duality the best vertex w maximizes ``sum_c w_c b_c``, and k
    levels the exponents b - x.k on its support (affinely independent
    increments): the least-norm solution of ``(x_c - x_0).k = b_c - b_0``,
    by its Gram system (:func:`_lse_solve`).  Where that support levels
    too little, k is set by the other children's exponents, which the
    smoothed minimum keeps lowest: a zero increment alone gives way to the
    best vertex off it, and an opposite pair (d = 2) levels a line k + y v,
    on which y is the max-plus minimizer of the other children's gaps to
    the pair's level, the highest crossing of a rising and a falling one."""
    n, m, d = x.shape
    score = np.einsum("nvm,nm->nv", vert, np.where(b > -np.inf, b, 0.0))
    best = vert[np.arange(n), score.argmax(axis=1)] > 0.0
    # a zero increment alone levels nothing: those rows take the best vertex off it
    alone = (best.sum(axis=1) == 1)[:, None] & ((vert @ best[..., None])[..., 0] > 0.0)
    best = vert[np.arange(n), np.where(alone, -np.inf, score).argmax(axis=1)]
    pos = np.argsort(best == 0.0, axis=1, kind="stable")[:, :min(m, d + 1)]  # support first
    on = np.take_along_axis(best, pos, axis=1)[:, 1:] > 0.0
    xs, bs = np.take_along_axis(x, pos[..., None], axis=1), np.take_along_axis(b, pos, axis=1)
    dx = np.where(on[..., None], xs[:, 1:] - xs[:, :1], 0.0)
    gram = dx @ dx.swapaxes(1, 2) + np.eye(on.shape[1]) * ~on[:, None, :]  # identity at padding
    k = np.einsum("nc,ncd->nd", _lse_solve(gram, np.where(on, bs[:, 1:] - bs[:, :1], 0.0)), dx)
    if d != 2:
        return k
    v = dx[:, 0, ::-1] * [-1.0, 1.0]
    z = b - (x @ k[..., None])[..., 0]
    rest = (on.sum(axis=1) == 1)[:, None] & (b > -np.inf) & (best == 0.0)
    a = np.where(rest, z - np.take_along_axis(z, pos[:, :1], axis=1), 0.0)  # gap a + beta y
    beta = ((xs[:, :1] - x) @ v[..., None])[..., 0]
    pair = (rest & (beta > 0.0))[:, :, None] & (rest & (beta < 0.0))[:, None, :]
    y = (a[:, None, :] - a[:, :, None]) / np.where(pair, beta[:, :, None] - beta[:, None, :], 1.0)
    height = np.where(pair, a[:, :, None] + beta[:, :, None] * y, -np.inf).reshape(n, -1)
    y = np.where(pair.any(axis=(1, 2)), y.reshape(n, -1)[np.arange(n), height.argmax(axis=1)], 0.0)
    return k + y[:, None] * v


def _lift(scale, null, d):
    """unit^2 (null + 1e-15 I), unit the row's largest |x| or 1: lifts Gram
    systems in x (g, m, d) off x's span (``null``), with det > 0 at rank one."""
    unit = np.where(scale > 0.0, scale, 1.0)[:, None, None]
    return unit * unit * (null + 1e-15 * np.eye(d))


def _lse_min(b, x, k0, null=0.0, vertices=None):
    """``min_k logsumexp_c(b_c - x_c.k)`` for a batch of g rows, nodes with
    a choice of weights; ``b`` (g, m) is -inf and ``x`` (g, m, d) zero at
    padding.  Returns the minima, the minimizers k and the steps.

    *Start*: k0 (g, d), or where the first step from it is clipped and the
    value is lower (one :func:`_lse_point` over those rows), the
    :func:`_max_plus` minimizer of the node's vertices ``vertices(rows)``.
    *Step*: s solves ``(H + lift) s = E_w[x]`` (:func:`_lse_solve`), H the
    covariance of x under the softmax weights, lifted off the span of the
    increments by ``null`` (g, d, d) (:func:`_lift`), so s is H^+ E_w[x] in
    that span; the iterate moves by s / max(1, nu), nu = lambda^2 +
    max_c(-x_c.s) with the Newton decrement lambda^2 = E_w[x].s.  Along s
    the third derivative of f is then at most nu times the second, so the
    curvature stays below e times its start (generalized self-concordance:
    Sun & Tran-Dinh, *Math. Program.* 178, 2019), and each step lowers f by
    at least (3 - e) lambda^2 / max(1, nu), with no line search.  *Stop*: a
    row is done, and stands still, once its gradient and decrement are at
    the rounding level of its exponents b - x.k; at _LSE_CAP steps
    :class:`NonconvergedError`."""
    top_b = b.max(axis=1)
    b = b - top_b[:, None]
    scale = np.abs(x).max(axis=(1, 2))
    ridge = _lift(scale, null, x.shape[2])
    # rounding levels of the gradient and of f, a + c |x.k| with the exponents b - x.k
    g_a, g_c, f_a = 1e-13 * scale, 1e-15 * scale, 1e-16 * (1.0 + np.abs(top_b))
    k, active, steps = k0, np.ones(len(b), dtype=bool), 0
    now = _lse_point(b, x, k)      # f, w, mean, x.k
    while True:
        f, w, mean, xk = now
        size = np.abs(xk).max(axis=1)
        dev = x - mean[:, None, :]   # centred: E[x x'] - mean mean' cancels
        step = _lse_solve((w[:, :, None] * dev).swapaxes(1, 2) @ dev + ridge, mean)
        dec = (mean * step).sum(axis=1)
        active &= ((np.abs(mean).max(axis=1) > g_a + g_c * size)
                   | (dec > f_a + 1e-16 * (np.abs(f) + size)))
        nu = dec - (x @ step[:, :, None])[:, :, 0].min(axis=1)
        first, vertices = vertices, None
        rows = np.flatnonzero(active & (nu > 1.0)) if first is not None else ()
        if len(rows):
            kv = _max_plus(b[rows], x[rows], first(rows))
            alt = _lse_point(b[rows], x[rows], kv)
            lower = alt[0] < f[rows]
            if lower.any():        # those rows restart there
                k, now = k.copy(), tuple(a.copy() for a in now)
                for a, at in zip((k, *now), (kv, *alt)):
                    a[rows[lower]] = at[lower]
                continue
        if not active.any():
            break
        if steps == _LSE_CAP:
            raise NonconvergedError(f"log-partition Newton cap {_LSE_CAP} reached at "
                                    f"{active.sum()} rows (endowment x node)")
        k = k + (active / np.maximum(nu, 1.0))[:, None] * step
        now = _lse_point(b, x, k)
        steps += 1
    return f + top_b, k, steps


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


@per_owner
def _live_levels(geo: SupportStructure):
    """Per non-leaf level, bottom-up, its live nodes in up to two batches:
    the nodes with one valid vertex, then those with a choice of weights.
    A batch holds the nodes (g,), their padded children (g, m), log branch
    probabilities (-inf at padding and dead children), increments over
    ``top`` (:func:`_increments`, g, m, d), the start's operator ``fit``
    (g, m, d) and shift ``ln(p / w0)`` (g, m; 0 off the live children),
    w0 (g, m) at one-vertex nodes, else None, the projector ``null`` (g,
    d, d) off the span of the increments, and at nodes with a choice
    ``verts`` (g, V), each node's valid vertices as indices into ``geo``'s
    (the last repeated to the most of any node), whose weights
    :func:`_lse_min` reads only for the rows it starts at their max-plus
    minimizer, else None.  Live is as in ``SupportStructure.live``, w0 the
    mean of a node's valid vertices (``geo.step_weights``).  The start ``k0 =
    Cov_w0(x)^+ Cov_w0(x, b - ln w0)`` = sum_c fit_c (shift_c + L_c) /
    gamma fits ``b - ln w0`` by ``x.k + f`` in w0-weighted least squares
    (x = gamma dS, b = ln p + L); the pseudo-inverse, one batched eigh
    without eigenvalues below _TOL of the largest, keeps k0 in the span of
    the increments, and ``null`` is that rule's complement.  All live
    non-leaf nodes are set up in one batch, padded to the most children,
    and each batch is cut out and trimmed to its widest node.  Kept on
    ``geo`` (:func:`~treedual.market.per_owner`).
    """
    lay, w, live = geo.layout, geo.step_weights, geo.live
    starts = lay.level_starts
    node = np.flatnonzero(live[:starts[-2]])
    count = np.bincount(geo.node, minlength=starts[-2])[node]
    # sorted by level, and within a level by one vertex or a choice: one run per batch
    key = 2 * np.searchsorted(starts, node, side="right") + (count == 1)
    order = np.argsort(key, kind="stable")
    node, key, count = node[order], key[order], count[order]
    kids, on, dS = _increments(lay, live, node)
    w0 = np.where(on, w[kids], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lnp = np.where(on, np.log(lay.prob[kids]), -np.inf)
        shift = np.where(on, lnp - np.log(w0), 0.0)
    dev = dS - np.einsum("gm,gmd->gd", w0, dS)[:, None]
    ev, vec = np.linalg.eigh(np.einsum("gm,gmd,gme->gde", w0, dev, dev))
    kept = ev > _TOL * np.abs(ev[:, -1:])
    inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=kept)
    fit = w0[..., None] * dev @ ((vec * inv[:, None]) @ vec.swapaxes(1, 2))
    null = (vec * ~kept[:, None]) @ vec.swapaxes(1, 2)
    first = np.searchsorted(geo.node, node)[:, None]   # a node's vertices run from here
    verts = first + np.minimum(np.arange(count.max()), count[:, None] - 1)
    width = lay.on[node].sum(axis=1)
    run = np.flatnonzero(np.diff(key, prepend=-1))
    widths = np.maximum.reduceat(width, run).tolist()
    out = []
    for a, b, m in reversed(list(zip(run.tolist(), [*run[1:].tolist(), node.size], widths))):
        batch = (node[a:b], kids[a:b, :m], lnp[a:b, :m], dS[a:b, :m], fit[a:b, :m],
                 shift[a:b, :m])
        out.append((*batch, w0[a:b, :m], null[a:b], None) if count[a] == 1 else
                   (*batch, None, null[a:b], verts[a:b]))
    return tuple(out)


@per_owner
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
    Kept on ``geo`` (:func:`~treedual.market.per_owner`).
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
    :func:`_live_levels`, every node started at the fit k0.  A one-vertex
    node's only martingale weights w0 are its optimum, so k0, an exact fit
    there, is its minimizer, and ``L_n = sum_c w0_c (ln p_c + L_c - ln
    w0_c)``.  The nodes with a choice go to :func:`_lse_min`, one call per
    level that has any (row j * g + i is endowment j at node i), with their
    projectors ``null`` and their vertices' weights for the max-plus start.
    Where w0 fixes the optimal weights' ratios among a node's moving
    children (up/flat/down nodes), k0 is the minimizer and takes no step.
    The loop forms only L and h; after it, the optimizer's log weights
    ``ln p_c + L_c - L_n - gamma dS_c.h_n`` (-inf off the live nodes) give
    the drift and are summed down the paths.  Returns per endowment L at
    every node (N,; 0 at the non-leaf nodes ``_live_levels`` drops), the
    strategy (inner, d) of minimizers k over ``top`` (0 where
    ``_live_levels`` zeroes dS or drops the node), the optimizer's node log
    masses (N,), its largest one-step drift over ``top`` and the steps."""
    lay, geo = tree.layout, _support_structure(tree)
    r, inner = e.shape[0], lay.level_starts[-2]
    big_l = np.concatenate([np.zeros((r, inner)), -gamma * e], axis=1)
    steps, h = 0, np.zeros((r, inner, lay.prices.shape[1]))
    for node, kids, lnp, dS, fit, shift, w0, null, verts in _live_levels(geo):
        g, kid_l = node.size, big_l.take(kids, axis=1)
        t = shift + kid_l                   # b - ln w0 on the live children
        k = np.einsum("gmd,jgm->jgd", fit, t) / gamma
        if w0 is None:
            f, k, used = _lse_min((lnp + kid_l).reshape(r * g, -1),
                                  np.concatenate([gamma * dS] * r), k.reshape(r * g, -1),
                                  np.concatenate([null] * r),
                                  lambda rows: geo.weight[verts[rows % g], :kids.shape[1]])
            steps += used
        else:
            f = np.einsum("gm,jgm->jg", w0, t)
        big_l[:, node], h[:, node] = f.reshape(r, g), k.reshape(r, g, -1) / lay.top[node]
    up, dS = lay.parent, lay.step           # the root is its own parent: ln w = 0 there
    log_w = np.where(geo.live, np.log(lay.prob) + big_l - big_l[:, up]
                     - gamma * np.einsum("nd,jnd->jn", dS, h[:, up]), -np.inf)
    drift = np.add.reduceat(np.exp(log_w[:, 1:, None]) * dS[1:], lay.first_child - 1, axis=1)
    return big_l, h, lay.path_sums(log_w), (np.abs(drift) / lay.top).max(axis=(1, 2)), steps


def _cash_weight(geo, alpha):
    """The root's alpha of one backward pass over :func:`_live_levels` from
    alpha = q_hat A(W) on the live leaves of a two-power optimum, whose
    W''(y) = [H^-1]_xx = 1/min_h sum mu A (1 - gains)^2 is 1/(y alpha)
    (Steinbach, *Math. Methods Oper. Res.* 56, 2002): the strategies below
    a node see it only through the gain so far, so min sum alpha_l (t -
    gains)^2 = alpha_n t^2, alpha_n = sum_c alpha_c (1 - x_c.k)^2 (a sum of
    squares), x_c over ``top``, k the weighted fit of 1 by x (:func:`_lift`)."""
    a = np.zeros(len(geo.layout.parent))
    a[geo.layout.level_starts[-2]:][geo.mask] = alpha
    for node, kids, lnp, x, *_, null, _ in _live_levels(geo):
        w = np.where(lnp > -np.inf, a[kids], 0.0)
        total = w.sum(axis=1)
        w /= np.where(total > 0.0, total, 1.0)[:, None]
        wx = w[..., None] * x
        lift = _lift(np.abs(x).max(axis=(1, 2)), null, x.shape[2])
        k = _lse_solve(wx.swapaxes(1, 2) @ x + lift, wx.sum(axis=1))
        a[node] = total * (w * (1.0 - (x @ k[..., None])[..., 0]) ** 2).sum(axis=1)
    return float(a[0])


def _log_space_solutions(tree, pair, endows, log_mass=None) -> list[DualSolution]:
    """Exponential optima for a stack of endowments (r, L), row j at the log
    mass ``log_mass[j]`` if given (NaN at a free row), from one pass over
    the distinct rows, whose L, ln q_hat and strategy do not depend on the
    mass: a free row is at s = L_root, with value ``C - e^s/gamma``, a
    fixed one has that of :func:`_fixed_mass_value`.  Raises nothing for
    extreme endowments: the log-mass stays exact."""
    _, flag = _prepare(tree, pair)
    place = {}   # each distinct row's index in the pass, keyed by its bytes
    slots = [place.setdefault(ej.tobytes(), len(place)) for ej in endows]
    distinct = np.empty((len(place), tree.n_leaves))
    distinct[slots] = endows
    log_ls, hs, ells, drifts, steps = _log_partition(tree, pair.params["gamma"], distinct)
    log_qs, drifts = ells[:, tree.layout.level_starts[-2]:], drifts.tolist()
    log_ys = [math.nan] * len(slots) if log_mass is None else np.asarray(log_mass, float).tolist()
    out = []
    for i, s in zip(slots, log_ys):
        top = float(log_ls[i, 0])
        if math.isnan(s):
            s, value = top, pair.params["C"] - _mass(top) / pair.params["gamma"]
        else:
            value = _fixed_mass_value(pair, log_ls[i], s, _mass(s))
        out.append(_solution(tree, pair, distinct[i], log_qs[i], s, value, drifts[i], flag, steps,
                             hs[i], log_l=log_ls[i]))
    return out


def _fixed_mass_value(pair, log_l, log_y, y):
    """The value ``C + y (ln y - 1 - L_root)/gamma`` of the exponential
    optimum with the node log partitions ``log_l`` at the mass(es) y =
    e^log_y (Delbaen et al. 2002), exact in log_y where y underflows;
    floats or arrays."""
    gamma, c = pair.params["gamma"], pair.params["C"]
    return c + y * (log_y - 1.0 - float(log_l[0])) / gamma


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


def _scaled_fits(s, Bk, ts):
    """Per row, d and the :func:`_qr_fits` of ``ts`` (a, n, m) by diag(s) Bk
    diag(d) (``s`` (a, n), ``Bk`` (1 or a, n, k), d = 1/|column|, 1 at a zero
    one), the Newton metric's scaled strategy columns, and z, the part of s
    (the last column of ts) off them."""
    jh = s[:, :, None] * Bk
    norm = np.sqrt((jh * jh).sum(axis=1))
    d = 1.0 / np.where(norm > 0, norm, 1.0)
    jd = jh * d[:, None, :]
    f = _qr_fits(jd, ts)
    return d, f, ts[:, :, -1] - (jd @ f[:, :, -1:])[:, :, 0]


def _risk_aversion_at(pair, w, e):
    """A at optimal wealths ``w``, A(0) where |w| <= 1e-14 (1 + |e|): W'' reads
    one side of a kink at 0 (two-power) whatever side rounding left w on."""
    return pair.risk_aversion(np.where(np.abs(w) <= 1e-14 * (1.0 + np.abs(e)), 0.0, w))


def _newton_core(A, p, e, pair, live, *, mass=None, start=None):
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
    that step (:func:`_scaled_fits`); a strategy column whose weights all
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
    step's J, A the risk aversion.  Other rows start at c = 0.
    Returns per row mu (r, L; 0 off ``live``), h (r, k), the value (plus p
    V(0) off ``live``), the residual, the steps and the row's error, None
    or a :class:`NonconvergedError` (after 200 steps, from a start outside
    the domain, on a singular Newton system, or without an acceptable step
    above 1e-9).
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
        at fixed masses, else over h at x = 0."""
        # the fits of t and of s, the cash column, by the strategy columns;
        # z, the part of s off them, has J'z = |z|^2 e_x, so the cash rows
        # fit t - kappa z, kappa = (z't - ys) / |z|^2
        d, f, z = _scaled_fits(ts[:, :, 1], share(Bk, rows), ts)
        kappa = np.where(fixed[rows], (_row_dot(z, ts[:, :, 0]) - ys) / _row_dot(z, z), 0.0)
        return np.column_stack([d * (f[:, :, 0] - kappa[:, None] * f[:, :, 1]), kappa])

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
                c[warm] = fit(ts, warm, 0.0)
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
            # the Newton steps of the active rows, 0 at the others
            m = mu[active]
            ts = np.zeros(m.shape + (2,))
            s = ts[:, :, 1] = np.sqrt(m * ra[active])                 # H = J'J
            np.divide(m, s, out=ts[:, :, 0], where=s > 0)             # J't = B'mu
            delta = np.zeros((r, k + 1))
            delta[active] = fit(ts, active, y0[active])
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
    full = np.zeros((r, p.shape[1]))
    full[:, live] = mu
    if not live.all():
        phi = phi + p[:, ~live].sum(axis=1) * float(pair.v(0.0))
    return full, c[:, :k], phi, res, steps, errors


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


def _core_solutions(tree, pair, endows, log_mass=None, starts=None):
    """The Newton core on the maximal support for a stack of endowments (r, L),
    at masses e^log_mass (r,) if given (NaN at a free row), started at leaf
    measures (r, L) if given: one optimum or the row's error per row, a
    :class:`NonconvergedError` or the :class:`EvaluationOverflowError` of
    :func:`_masses`.  The core runs on the columns of
    :func:`_strategy_basis`; the others get h = 0, and an optimum stores
    ln m, m = sum mu, and ln(mu/m).  :func:`_solutions` sends it the
    incomplete markets; on complete ones it is the tests' oracle of
    :func:`_complete_solutions`.

    A row without a start positive on the support starts at y q, the
    complete-market optimum up to the budget: q is the support pass's
    equivalent martingale measure, exp of ``geo.log_interior`` on the
    leaves, and y the row's mass, or at a free row U'(E_q[e]), the mass at
    which the constant wealth E_q[e] is optimal.  The core starts a row at
    c = 0 where y is not finite, or where y q is not positive on the
    support (q underflows on a live leaf of the caterpillar)."""
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
    mu, h_basis, value, res, steps, errors = _newton_core(
        build_constraints(tree)[basis], tree.leaf_probability_array, endows[run], pair, mask,
        mass=y[run], start=starts[run])
    h = np.zeros((len(errors), basis.size))
    h[:, basis] = h_basis
    for i, j in enumerate(np.flatnonzero(run).tolist()):
        if errors[i] is not None:
            out[j] = errors[i]
            continue
        m = float(mu[i].sum())
        out[j] = _solution(tree, pair, endows[j], log_masses(mu[i] / m), math.log(m),
                           float(value[i]), float(res[i]), flag, int(steps[i]),
                           h[i].reshape(-1, tree.n_assets))
    return out


# -- complete markets: the martingale method in closed form ----------------------


def _bracketed_newton(probe, x, lo, hi, *, x_tol=0.0):
    """Root of an increasing function by Newton steps kept inside a bracket:
    the package's one safeguarded scalar root-finder.

    ``probe(x)`` is a search (it yields solve requests, or none) that
    returns ``(g, slope, done)``; ``done`` accepts x as the root.  Brent's
    rule (*Algorithms for Minimization without Derivatives*, 1973, ch. 4)
    takes a Newton step only when it lands strictly inside the bracket and
    is shorter than half the step two probes back (a bisection counts as
    half the bracket, a stride not at all); else it bisects, or strides by
    a doubling length while a side is still open.  Returns the accepted
    probe point, or the last one once the Newton step or the bracket is
    within ``x_tol``; raises :class:`BracketFailError` after 100 probes.
    """
    stride = 1.0
    last = before = math.inf   # the last two step lengths, strides skipped
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
        if lo < newton < hi and abs(newton - x) < 0.5 * before:
            before, last = last, abs(newton - x)
            x = newton
        elif math.isinf(lo) or math.isinf(hi):
            x = x + stride if g < 0 else x - stride
            stride *= 2.0
        else:
            before, last = last, 0.5 * (hi - lo)
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise BracketFailError(
                    f"root bracket [{lo!r}, {hi!r}] collapsed at residual {g:.3e}")
    raise BracketFailError(f"no root after {_MAX_PROBES} probes in [{lo}, {hi}]")


def _complete_rows(pair, p, log_q, e, log_m, starts):
    """The dual at y q for fixed measures q, laid end to end: problem i owns
    the leaves from ``starts[i]`` to the next start of the flat (K,) arrays
    of leaf probabilities ``p``, endowments ``e`` and leaf log masses
    ``log_q`` of its normalized q, at the log mass ln y of ``log_m`` (a
    float, or (K,) and constant on each problem), from one ``v_point`` pass
    at mu/p, mu = exp(ln y + ln q).  Where q is a complete market's unique
    martingale measure, mu is the optimum with the wealth W = -V'(mu/p)
    (Karatzas, Lehoczky & Shreve 1987; Cox & Huang 1989), and the point its
    own (``DualSolution`` forms it at ``density_array``).  Returns per
    problem (3, k) its value W(y) = sum p V + mu e, W'(y) = E_q[V' + e]
    (-E_q[X] at an optimum), increasing in ln y, and its slope in ln y, sum
    q (mu/p) V'' = y W''(y); and per leaf the point (V, V', V'')."""
    with np.errstate(over="ignore"):
        mu = np.exp(log_m + log_q)
        z = mu / p
    point = pair.v_point(z)
    v, vp, v2 = point
    q = np.exp(log_q)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.stack([p * v + mu * e, q * (vp + e), q * z * v2])
    return np.add.reduceat(terms, starts, axis=1), point


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
        sums, (_, vp, _) = _complete_rows(pair, p, log_q, e, x, [0])
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


def _complete_solutions(tree, pair, geo, endows, log_mass=None, starts=None):
    """The optima of a stack of endowments (r, L) on a complete EQUIVALENT
    market, whose unique martingale measure q has the node log masses ell
    of the support pass's ``geo.log_interior``, at the masses e^log_mass
    (r,) if given (NaN at a free row): one optimum or the row's error per
    row, with no Newton core and no constraint matrix.  A fixed row keeps
    its own y; a free row takes ln y from :func:`_budget_root`, started at
    the log mass of its start measure if that is positive on the leaves,
    else at ln U'(E_q[e]), the mass at which the constant wealth E_q[e] is
    optimal.  Then one :func:`_complete_rows` pass over every row gives the
    value and the wealth at mu = exp(ln y + ln q), and an optimum stores ln
    y and ell's leaf slice as ln q_hat, so its kept conjugate point is at
    its derived density.  A row whose wealth is past the float range on a
    leaf is that leaf's :class:`EvaluationOverflowError`, as is a mass of
    :func:`_masses`.  The strategy at each non-leaf node is its one-vertex
    fit (the ``fit`` of :func:`_live_levels`, over ``top``) of E_q[X |
    child] - E_q[X | node], exact as its increments are affinely
    independent, for every row in one pass over the levels."""
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
    sums, point = _complete_rows(pair, np.tile(p, k), np.tile(log_q, k), e.ravel(),
                                 np.repeat(s[rows], n), np.arange(k) * n)
    v, vp, v2 = (x.reshape(k, n) for x in point)
    finite = np.isfinite(vp)
    cond = tree.conditional_expectation(np.where(finite, -vp - e, 0.0), ell)
    h = np.zeros((k, lay.level_starts[-2], tree.n_assets))
    for node, kids, _, _, fit, *_ in _live_levels(geo):
        h[:, node] = np.einsum("gmd,rgm->rgd", fit, cond[:, kids] - cond[:, node, None])
        h[:, node] /= lay.top[node]
    q = np.exp(log_q)
    for i, j in enumerate(rows):
        if not finite[i].all():
            out[j] = _past_float(tree.leaf_ids, vp[i], f"at the mass e^{s[j]!r}")
            continue
        residual = 0.0 if not math.isnan(y[j]) else abs(float(sums[1, i])) / (
            1.0 + float(q @ (np.abs(vp[i]) + np.abs(e[i]))))
        out[j] = _solution(tree, pair, e[i], log_q, float(s[j]), float(sums[0, i]), residual,
                           "EQUIVALENT", int(probes[j]), h[i], point=(v[i], vp[i], v2[i]))
    return out


def _solutions(tree, pair, endows, log_mass=None, starts=None):
    """The dual optima of a stack of endowments (r, L) on one tree, row j at
    the log mass ``log_mass[j]`` if given (NaN at a free row), exact in the
    log-space pass where the mass is subnormal: one optimum or the row's
    error per row.  The one place the family picks the solver: one
    log-space pass for the exponential family; else, on a complete
    EQUIVALENT market (``SupportStructure.complete``), the closed form of
    :func:`_complete_solutions`, and otherwise one call of the Newton core
    (:func:`_core_solutions`), started at the leaf measures ``starts`` (r,
    L) if given."""
    if pair.family == "exponential":
        return _log_space_solutions(tree, pair, endows, log_mass)
    _, flag = _prepare(tree, pair)
    geo = _support_structure(tree)
    if geo.complete and flag == "EQUIVALENT":
        return _complete_solutions(tree, pair, geo, endows, log_mass, starts)
    return _core_solutions(tree, pair, endows, log_mass, starts)


def _at_masses(tree, pair, endow, ss, starts=None):
    """The optima of one endowment at each log mass of ``ss`` (NaN: free),
    from one :func:`_solutions` call with the leaf measures ``starts``;
    raises the first row's error."""
    ss = np.asarray(ss, dtype=float)
    sols = _solutions(tree, pair, leaf_values(tree, endow)[None].repeat(ss.size, axis=0), ss,
                      starts)
    for sol in sols:
        if isinstance(sol, Exception):
            raise sol
    return sols


def _log_grid(log_masses) -> list[float]:
    """The sorted log masses of a grid, the one check of every mass that enters
    the package: refuses an empty grid, a NaN or infinite log mass, a repeat."""
    ss = sorted(float(s) for s in log_masses)
    if not ss or not all(math.isfinite(s) for s in ss):
        raise DomainError("log masses must be finite, at least one of them")
    if any(a == b for a, b in zip(ss, ss[1:])):
        raise DomainError("curve masses must be distinct")
    return ss


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


def solve_dual_fixed_mass(tree: MarketTree, pair: UtilityPair, endow, *,
                          log_mass: float) -> DualSolution:
    """Same as :func:`solve_dual` with the total mass pinned to y, given by
    keyword as its finite ``log_mass`` ln y, exact where y leaves the float
    range.

    The exponential family's optimum is y times the normalized optimizer
    of :func:`solve_dual`, from one log-space pass.
    """
    return _at_masses(tree, pair, endow, _log_grid([log_mass]))[0]


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


def dual_value_curve(sol: DualSolution, *, log_masses: Sequence[float]) -> CurveReport:
    """The mass-indexed dual value curve of ``sol``'s problem on a grid of
    finite, distinct log masses s = ln y (by keyword), which keep a
    subnormal mass exact.

    Each point is the inner optimum at its pinned mass e^s, read off the
    solved problem: for the exponential family in closed form from ``sol``
    itself (the measure e^s q_hat), every point at once, its value by
    :func:`_fixed_mass_value` (as :func:`_log_space_solutions` has it);
    otherwise by one :func:`_solutions` call (the closed form on a complete
    market, else the Newton core) whose rows start at exp(s + ln q_hat),
    ``sol``'s exact form at the point's mass; raises the first row's
    error.  The derivatives -E_q_hat[X] are :func:`_envelope`,
    one dot per point, with X of every point from one evaluation.  At s =
    ``sol._log_mass`` the row is the root's conditional problem of
    ``recovery.dynamic_dual``, bit for bit.  A point's ``y`` is its float
    view e^s (which may underflow).  The report carries a numeric
    convexity certificate: the least rise of the mass derivative between
    neighbours, since W is convex exactly where W' does not fall; the
    derivatives are exact, also where e^s underflows.  The least rise and
    the least value are NaN when any point reads NaN.
    """
    ss = _log_grid(log_masses)
    masses = [_mass(s) for s in ss]
    if sol._log_l is not None:
        s = np.array(ss)
        derivs = _envelope(sol.q_hat, _exponential_gain(sol, s[:, None]), sol._log_q > -np.inf)
        values = _fixed_mass_value(sol.pair, sol._log_l, s, np.array(masses))
        q_hats = [sol.q_hat] * len(ss)
    else:
        with np.errstate(over="ignore"):
            starts = np.exp(np.array(ss)[:, None] + sol._log_q)
        sols = _at_masses(sol.tree, sol.pair, sol._endow_arr, ss, starts)
        q_hats = [pt.q_hat for pt in sols]
        # X = -V'(mu/p) - e of every point in one evaluation
        gains = -sol.pair.v_prime(np.array([pt.density_array for pt in sols])) - np.array(
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


def dual_derivative(tree: MarketTree, pair: UtilityPair, endow, *,
                    log_mass: float) -> float:
    """Derivative of the mass-indexed dual value at the mass y, given by
    keyword as ln y.

    Evaluated by the envelope formula: the conditional expectation, under the
    inner optimizer at mass y, of V' of its density plus the endowment.
    """
    return solve_dual_fixed_mass(tree, pair, endow, log_mass=log_mass).mass_derivative
