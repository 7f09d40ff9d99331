"""Primal recovery: optimal terminal wealth, trading strategy, verification.

The optimal terminal gain is read off the dual optimizer through the inverse
marginal, ``X_l = -V'(density_l) - e_l`` (``DualSolution.terminal_gain``, in
log space for the exponential family).  The strategy is the one the dual
solver found with the measure, and the wealth process is its cost plus its
cumulative gains, which must meet X on every charged leaf.  On a finite
tree the gain of any strategy is an exact martingale under every martingale
measure wherever the conditional expectation is defined, so the
supermartingale verification reports per-node drifts against enumerated
polytope vertices.  The dynamic checks solve the conditional dual problems
on subtrees, in closed form where the family or the leaf allows, and
compare their mass derivatives with the wealth process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualSolution, _newton_core, _strategy_basis
from .errors import (DomainError, NoPrimalOptimizerError, NotExponentialError,
                     ReplicationGapError)
from .geometry import _support_structure, build_constraints, relative_entropy
from .market import MarketTree, leaf_values
from .utility import UtilityPair

_REPLICATION_TOL = 1e-8  # scaled gap between X and the strategy's wealth
_MOLLIFY_WEIGHT = 1e-6   # weight of the optimal measure in a mollified test measure


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Terminal wealth, wealth process, strategy and diagnostics.

    The strategy is the dual solver's.  Where a node's increments do not
    span R^d it is one of the strategies with the same gains there: the
    minimum-norm one from the log-space pass, another from the Newton core.
    ``unreached`` lists the non-leaf nodes without optimal mass.
    """

    terminal_wealth: np.ndarray        # (L,), leaf order
    wealth: np.ndarray                 # (N,), layout order
    strategy: np.ndarray               # (n, d), non-leaf nodes in layout order
    replication_residual: float
    value: float                       # expected utility at the optimum
    first_order_residual: float
    unreached: tuple[str, ...]


def recover(tree: MarketTree, pair: UtilityPair, endow,
            sol: DualSolution) -> PrimalSolution:
    """Optimal terminal gain X (``sol.terminal_gain``), the solver's strategy
    h and its wealth x0 + gains(h), with x0 = E_q[X] under the normalized
    optimal measure q.

    Requires an equivalent (full-support) optimal measure; with a degenerate
    optimizer the candidate wealth is infinite on the null leaves and no
    primal optimizer exists.  Two residuals above 1e-8 (scaled) are solver
    failures, not mathematical outcomes, and raise
    :class:`ReplicationGapError`: the first-order condition U'(X + e) = the
    density, and max |X - wealth| over the leaves q charges, which compares
    the dual side (X from the measure) with the primal side (h) and names
    the worst leaf.  ``tree``, ``pair`` and ``endow`` must be the problem
    ``sol`` solved, else :class:`DomainError`.
    """
    e = leaf_values(tree, endow)
    if tree is not sol.tree or pair is not sol.pair or not np.array_equal(e, sol._endow_arr):
        raise DomainError("recover needs the tree, utility and endowment the "
                          "dual solution was solved for")
    if sol.support != "EQUIVALENT":
        raise NoPrimalOptimizerError(
            "dual optimizer is degenerate (no equivalent martingale measure "
            "with finite entropy); the primal problem has no optimizer")
    p = tree.leaf_probability_array
    dens, x = sol.density_array, sol.terminal_gain
    foc = float(np.abs(pair.u_prime(x + e) - dens).max())
    if foc > 1e-8 * (1.0 + np.abs(dens).max()):
        raise ReplicationGapError(
            f"first-order residual {foc:.3e} above tolerance; "
            "dual solution is not accurate enough", residual=foc)

    q = sol.q_hat
    lay, on = tree.layout, q > 0
    inner = lay.level_starts[-2]
    wealth = float(q[on] @ x[on]) + tree.gains(sol._h_arr)
    gap = np.where(on, np.abs(x - wealth[inner:]), 0.0)
    resid = float(gap.max())
    if resid > _REPLICATION_TOL * (1.0 + float(np.abs(x[on]).max())):
        worst = tree.leaf_ids[int(np.argmax(gap))]
        raise ReplicationGapError(
            f"replication residual {resid:.3e} at leaf {worst!r} exceeds "
            f"{_REPLICATION_TOL:.1e} (scaled)", node_id=worst, residual=resid)
    return PrimalSolution(
        terminal_wealth=x, wealth=wealth, strategy=sol._h_arr,
        replication_residual=resid, value=float(np.dot(p, pair.u(x + e))),
        first_order_residual=foc,
        unreached=tuple(lay.ids[k] for k in
                        np.flatnonzero(tree.subtree_sums(q)[:inner] == 0)))


# -- verification -----------------------------------------------------------------


@dataclass(frozen=True)
class DriftViolation:
    measure_index: int
    node_id: str
    drift: float


@dataclass(frozen=True)
class SupermartingaleReport:
    violations: tuple[DriftViolation, ...]
    max_drift: float                     # most positive drift over tested pairs
    max_abs_drift_under_optimal: float   # martingale check under the optimizer
    measures_tested: int
    measures_skipped: int                # infinite relative entropy


def mollify(measures, q) -> np.ndarray:
    """The stack (k, L) ``measures`` moved toward the leaf array ``q`` by
    weight 1e-6: each row charges every leaf q charges."""
    verts = np.asarray(measures, dtype=float).reshape(-1, len(q))
    return (1.0 - _MOLLIFY_WEIGHT) * verts + _MOLLIFY_WEIGHT * q


def verify_supermartingale(tree: MarketTree, wealth, measures,
                           pair: UtilityPair, q_hat=None) -> SupermartingaleReport:
    """Per-node drift of the wealth process under each finite-entropy measure.

    ``wealth`` is (N,) in layout order and ``measures`` a stack (k, L) of
    leaf measures; one entropy evaluation picks the finite ones.
    Report-only: lists (measure, node) pairs whose conditional drift exceeds
    1e-8 (scaled), by measure then node, and the exact-martingale residual
    under the optimal measure ``q_hat`` (a leaf measure) when given.
    """
    ids = tree.layout.ids
    w = np.asarray(wealth, dtype=float)
    w_scale = 1.0 + float(np.abs(w).max())

    def node_drifts(q_arr):
        cond, mass = tree.one_step_expectation(w, q_arr)
        return cond - w[:mass.shape[-1]], mass > 0

    q = np.asarray(measures, dtype=float).reshape(-1, tree.n_leaves)
    finite = np.isfinite(relative_entropy(tree, pair, q))
    tested = np.flatnonzero(finite)
    drift, live = node_drifts(q[finite])
    violations = [DriftViolation(int(tested[k]), ids[n], float(drift[k, n]))
                  for k, n in zip(*np.nonzero(live & (drift > 1e-8 * w_scale)))]
    max_drift = float(drift[live].max(initial=-math.inf))

    opt_drift = 0.0
    if q_hat is not None:
        drift, live = node_drifts(leaf_values(tree, q_hat))
        opt_drift = float(np.abs(drift[live]).max(initial=0.0))

    return SupermartingaleReport(
        violations=tuple(violations),
        max_drift=max_drift if tested.size else 0.0,
        max_abs_drift_under_optimal=opt_drift,
        measures_tested=int(tested.size),
        measures_skipped=int(finite.size - tested.size),
    )


# -- dynamic dual -------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicDualNode:
    node_id: str
    value: float             # conditional dual value at the node
    derivative: float        # mass derivative of the conditional value
    restriction_gap: float   # value vs the restricted global optimizer
    wealth_residual: float | None  # |W + derivative|, scaled, when W given


def dynamic_dual(sol: DualSolution, t: int, wealth=None) -> list[DynamicDualNode]:
    """Conditional dual problems of the solved market at the time-``t`` nodes.

    For each node n the optimum charges (``q_hat`` positive on its subtree),
    the least conditional entropy-plus-endowment objective over subtree
    measures matching the optimizer's mass m_n on the node, and its
    derivative in that mass.  A leaf's problem has one feasible point, its
    mass: the raw value is p V(m/p) + m e, the derivative -X.  Exponential
    family: from the log-space pass's L_n (``sol._log_l``), the raw value is
    ``C P_n + m_n (ln m_n - 1 - ln P_n - L_n)/gamma`` and the derivative
    ``(ln m_n - ln P_n - L_n)/gamma``, ln m_n = ln y + ln sum_subtree q_hat
    exact where m_n underflows, a whole level in a few array operations.
    Two-power non-leaf nodes run the Newton core on the subtree's maximal
    support, started at the optimizer, and differentiate by the envelope
    formula.  The value is the raw one over P_n; the restriction gap
    compares it with the objective of the global optimizer restricted to
    the subtree, one ``subtree_sums`` of ``p V(mu/p) + mu e`` (p V(0) at
    dead leaves).  Deterministic time grid only.  Consistency: the
    derivative should equal minus the wealth at the node, when ``wealth``
    (N,) in layout order is given.
    """
    tree, pair, e = sol.tree, sol.pair, sol._endow_arr
    if not (0 <= t <= tree.horizon):
        raise ValueError(f"time {t} outside 0..{tree.horizon}")
    lay, p, mu = tree.layout, tree.leaf_probability_array, sol.mu
    obj = p * pair.v(mu / p) + mu * e
    weight, mass, restricted = tree.subtree_sums(np.stack([sol.q_hat, mu, obj]))
    nodes = np.arange(lay.level_starts[t], lay.level_starts[t + 1])
    nodes = nodes[weight[nodes] > 0]
    m, big_p = mass[nodes], tree.node_probability_array[nodes]
    if t == tree.horizon:
        leaf = nodes - lay.level_starts[-2]
        raw, deriv = obj[leaf], -sol.terminal_gain[leaf]
    elif sol._log_l is not None:
        gamma = pair.params["gamma"]
        log_m = sol._log_mass + np.log(weight[nodes])   # exact where m underflows
        log_ratio = log_m - np.log(big_p) - sol._log_l[nodes]
        raw = pair.params["C"] * big_p + m * (log_ratio - 1.0) / gamma
        deriv = log_ratio / gamma
    else:
        raw, deriv = _conditional_solves(sol, nodes, m)
    gap = np.abs(raw - restricted[nodes]) / (1.0 + np.abs(raw))
    w = ([None] * nodes.size if wealth is None
         else np.asarray(wealth, dtype=float)[nodes].tolist())
    return [DynamicDualNode(lay.ids[k], v, d, g,
                            None if x is None else abs(x + d) / (1.0 + abs(x)))
            for k, v, d, g, x in zip(nodes.tolist(), (raw / big_p).tolist(),
                                     deriv.tolist(), gap.tolist(), w)]


def _conditional_solves(sol, nodes, masses):
    """The raw conditional dual values and mass derivatives at the non-leaf
    ``nodes`` with optimal masses ``masses``: one Newton-core call per node,
    on the subtree's rows of :func:`build_constraints` that the tree's
    :func:`_strategy_basis` keeps."""
    tree, pair, e, mu = sol.tree, sol.pair, sol._endow_arr, sol.mu
    lay, p = tree.layout, tree.leaf_probability_array
    geo = _support_structure(tree)
    A, live, basis = build_constraints(tree), geo.mask, _strategy_basis(geo)
    raw, deriv = np.empty(nodes.size), np.empty(nodes.size)
    for i, (k, m_n) in enumerate(zip(nodes.tolist(), masses.tolist())):
        lo, hi = lay.lo[k], lay.hi[k]
        # the kept rows of the non-leaf nodes inside this subtree
        inside = (lay.lo >= lo) & (lay.hi <= hi)
        A_sub = A[np.repeat(inside[:lay.level_starts[-2]], tree.n_assets) & basis, lo:hi]
        p_sub, e_sub, on = p[lo:hi], e[lo:hi], live[lo:hi]
        mu_sub, _, val, *_, (err,) = _newton_core(A_sub, p_sub, e_sub[None], pair, on,
                                                  mass=[m_n], start=mu[None, lo:hi],
                                                  curvature=False)
        if err is not None:
            raise err
        # the envelope formula; leaves off the support carry no mass
        mu_on = mu_sub[0, on]
        raw[i] = val[0]
        deriv[i] = np.dot(mu_on / m_n, pair.v_prime(mu_on / p_sub[on]) + e_sub[on])
    return raw, deriv


# -- exponential Snell envelope ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SnellReport:
    envelope: np.ndarray           # (N,), layout order
    max_equality_gap: float        # |max over measures - wealth|, scaled
    max_lower_bound_excess: float  # most positive (value - wealth) over measures
    measures_tested: int


def snell_envelope_exponential(sol: DualSolution, vertices, *, wealth) -> SnellReport:
    """Essential-supremum representation of the optimal wealth (exponential).

    At each node, the wealth should equal the supremum over equivalent
    finite-entropy martingale measures of the conditional expectation of the
    log-density payoff ``(1/gamma) ln(dP/d(optimal measure)) - endowment``,
    ``sol.terminal_gain``.  ``wealth`` is (N,) in layout order.  The
    vertices, a stack (k, L), are mollified toward the optimal measure
    (:func:`mollify`) to yield equivalent test measures, all of finite
    entropy; the optimal measure attains the supremum.  A (measure, node)
    pair without mass, where the mollified weight underflows, is skipped,
    so a node that no tested measure reaches reads an infinite gap.
    """
    tree, pair = sol.tree, sol.pair
    if pair.family != "exponential":
        raise NotExponentialError("Snell-envelope check requires exponential utility")
    if sol.support != "EQUIVALENT":
        raise NoPrimalOptimizerError("requires an equivalent optimal measure")
    tested = np.vstack([sol.q_hat, mollify(vertices, sol.q_hat)])

    w = np.asarray(wealth, dtype=float)
    w_scale = 1.0 + float(np.abs(w).max())
    num, mass = tree.subtree_sums(tested * sol.terminal_gain), tree.subtree_sums(tested)
    vals = np.divide(num, mass, out=np.full_like(num, -np.inf), where=mass > 0)
    best = vals.max(axis=0)
    eq_gap = float((np.abs(best - w) / w_scale).max())
    lb_excess = float(((vals - w) / w_scale).max())
    return SnellReport(
        envelope=best,
        max_equality_gap=eq_gap,
        max_lower_bound_excess=lb_excess,
        measures_tested=len(tested),
    )
