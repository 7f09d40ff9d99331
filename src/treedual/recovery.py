"""Primal recovery: optimal terminal wealth, trading strategy, verification.

The optimal terminal gain is read off the dual optimizer through the inverse
marginal: ``X_l = -V'(density_l) - e_l``.  The wealth process is its
conditional expectation under the normalized optimal measure, and the
strategy solves the one-step replication systems node by node.  On a finite
tree the gain of any strategy is an exact martingale under every martingale
measure wherever the conditional expectation is defined, so the
supermartingale verification reports per-node drifts against enumerated
polytope vertices.  The dynamic checks re-solve conditional dual problems on
subtrees and compare their mass derivatives with the wealth process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualSolution, _newton_core, _objective
from .errors import (NoPrimalOptimizerError, NotExponentialError,
                     ReplicationGapError)
from .geometry import (MeasureVector, _support_structure, build_constraints,
                       relative_entropy)
from .market import AdaptedProcess, MarketTree, RandomVariable, leaf_values
from .utility import UtilityPair


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Terminal wealth, wealth process, strategy and diagnostics."""

    terminal_wealth: RandomVariable
    wealth: AdaptedProcess             # scalar per node
    strategy: AdaptedProcess           # vector in R^d per non-leaf node
    replication_residual: float
    value: float                       # expected utility at the optimum
    first_order_residual: float
    unreached: tuple[str, ...]


def recover_terminal_wealth(tree: MarketTree, pair: UtilityPair, endow,
                            sol: DualSolution) -> RandomVariable:
    """Optimal terminal gain from the dual optimizer.

    Requires an equivalent (full-support) optimal measure; with a degenerate
    optimizer the candidate wealth is infinite on the null leaves and no
    primal optimizer exists.
    """
    if sol.support != "EQUIVALENT":
        raise NoPrimalOptimizerError(
            "dual optimizer is degenerate (no equivalent martingale measure "
            "with finite entropy); the primal problem has no optimizer")
    e = leaf_values(tree, endow)
    dens = sol.density_array
    x = -sol.pair.v_prime(dens) - e
    resid = np.abs(pair.u_prime(x + e) - dens)
    scale = 1.0 + np.abs(dens).max()
    if resid.max() > 1e-8 * scale:
        raise ReplicationGapError(
            f"first-order residual {resid.max():.3e} above tolerance; "
            "dual solution is not accurate enough", residual=float(resid.max()))
    return RandomVariable.from_array(tree, x)


def extract_strategy(tree: MarketTree, sol: DualSolution, xhat: RandomVariable,
                     pair: UtilityPair, endow, *,
                     tol: float = 1e-8) -> PrimalSolution:
    """Wealth as the conditional expectation of the terminal wealth under the
    optimal measure, strategy by one-step least-squares replication.

    The replication residual certifies exact attainability; a residual above
    ``tol`` is a solver-failure diagnostic, not a mathematical outcome, and
    raises :class:`ReplicationGapError` naming the worst node.
    """
    e = leaf_values(tree, endow)
    x = xhat.as_array(tree)
    q = sol.q_hat_array
    lay = tree.layout
    mass = tree.subtree_sums(q)
    wealth = np.divide(tree.subtree_sums(q * x), mass, out=np.zeros_like(mass),
                       where=mass > 0)
    wealth[lay.level_starts[-2]:] = x
    kids = np.append(lay.first_child, len(lay.ids))
    strategy: dict[str, np.ndarray] = {}
    unreached: list[str] = []
    scale = 1.0 + float(np.abs(x).max())

    worst = (0.0, None)
    for t in range(tree.horizon - 1, -1, -1):
        for k in range(lay.level_starts[t], lay.level_starts[t + 1]):
            nid = lay.ids[k]
            dS = lay.prices[kids[k]:kids[k + 1]] - lay.prices[k]
            w_kids = wealth[kids[k]:kids[k + 1]]
            if mass[k] > 0:
                h, *_ = np.linalg.lstsq(dS, w_kids - wealth[k], rcond=None)
            else:
                # 0/0 convention: joint least-squares over (wealth, strategy)
                unreached.append(nid)
                M = np.column_stack([np.ones(len(w_kids)), dS])
                coef, *_ = np.linalg.lstsq(M, w_kids, rcond=None)
                wealth[k], h = coef[0], coef[1:]
            resid = float(np.abs(w_kids - wealth[k] - dS @ h).max())
            strategy[nid] = h
            if mass[k] > 0 and resid > worst[0]:
                worst = (resid, nid)

    if worst[0] > tol * scale:
        raise ReplicationGapError(
            f"replication residual {worst[0]:.3e} at node {worst[1]!r} "
            f"exceeds {tol:.1e} (scaled)", node_id=worst[1], residual=worst[0])

    p = tree.leaf_probability_array
    value = float(np.dot(p, pair.u(x + e)))
    dens = sol.density_array
    foc = float(np.abs(pair.u_prime(x + e) - dens).max())
    return PrimalSolution(
        terminal_wealth=xhat,
        wealth=AdaptedProcess(dict(zip(lay.ids, wealth.tolist()))),
        strategy=AdaptedProcess(strategy),
        replication_residual=worst[0],
        value=value,
        first_order_residual=foc,
        unreached=tuple(unreached),
    )


def recover(tree: MarketTree, pair: UtilityPair, endow,
            sol: DualSolution, *, tol: float = 1e-8) -> PrimalSolution:
    """Terminal wealth plus strategy extraction in one call."""
    xhat = recover_terminal_wealth(tree, pair, endow, sol)
    return extract_strategy(tree, sol, xhat, pair, endow, tol=tol)


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


def verify_supermartingale(tree: MarketTree, wealth: AdaptedProcess, measures,
                           pair: UtilityPair, q_hat: MeasureVector | None = None,
                           tol: float = 1e-8) -> SupermartingaleReport:
    """Per-node drift of the wealth process under each finite-entropy measure.

    Report-only: lists (measure, node) pairs whose conditional drift exceeds
    ``tol`` (scaled), and the exact-martingale residual under the optimal
    measure when given.
    """
    ids = tree.layout.ids
    w = np.array([float(wealth.at(n)) for n in ids])
    w_scale = 1.0 + float(np.abs(w).max())

    def node_drifts(q_arr):
        cond, mass = tree.one_step_expectation(w, q_arr)
        return cond - w[:mass.shape[-1]], mass > 0

    tested, arrs, skipped = [], [], 0
    for k, q in enumerate(measures):
        if not math.isfinite(relative_entropy(tree, pair, q)):
            skipped += 1
            continue
        tested.append(k)
        arrs.append(q.as_array(tree) if isinstance(q, MeasureVector)
                    else leaf_values(tree, q))
    drift, live = node_drifts(np.reshape(arrs, (len(tested), tree.n_leaves)))
    violations = [DriftViolation(tested[k], ids[n], float(drift[k, n]))
                  for k, n in zip(*np.nonzero(live & (drift > tol * w_scale)))]
    max_drift = float(drift[live].max(initial=-math.inf))

    opt_drift = 0.0
    if q_hat is not None:
        drift, live = node_drifts(q_hat.as_array(tree))
        opt_drift = float(np.abs(drift[live]).max(initial=0.0))

    return SupermartingaleReport(
        violations=tuple(violations),
        max_drift=max_drift if tested else 0.0,
        max_abs_drift_under_optimal=opt_drift,
        measures_tested=len(tested),
        measures_skipped=skipped,
    )


# -- dynamic dual -------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicDualNode:
    node_id: str
    value: float             # conditional dual value at the node
    derivative: float        # mass derivative of the conditional value
    restriction_gap: float   # value vs the restricted global optimizer
    wealth_residual: float | None  # |W + derivative|, scaled, when W given


def dynamic_dual(tree: MarketTree, pair: UtilityPair, endow, t: int,
                 sol: DualSolution,
                 wealth: AdaptedProcess | None = None) -> list[DynamicDualNode]:
    """Conditional dual problems at the time-``t`` nodes.

    For each positive-mass node, minimizes the conditional entropy-plus-
    endowment objective over subtree measures matching the optimizer's mass
    on the node (by the Newton core on the maximal support, started at the
    optimizer), then differentiates in that mass by the envelope formula.
    Deterministic time grid only.  Consistency: the derivative should equal
    minus the wealth at the node.
    """
    if not (0 <= t <= tree.horizon):
        raise ValueError(f"time {t} outside 0..{tree.horizon}")
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    mu = sol._mu_arr
    A, live = build_constraints(tree).matrix, _support_structure(tree).mask
    lay = tree.layout
    mass = tree.subtree_sums(mu)
    out = []
    for k in range(lay.level_starts[t], lay.level_starts[t + 1]):
        nid, lo, hi, m_n = lay.ids[k], lay.lo[k], lay.hi[k], float(mass[k])
        if m_n <= 0:
            continue
        P_n = tree.node_probability(nid)
        # the rows of the non-leaf nodes inside this subtree
        inside = (lay.lo >= lo) & (lay.hi <= hi)
        A_sub = A[np.repeat(inside[:lay.level_starts[-2]], tree.n_assets), lo:hi]
        p_sub, e_sub, on = p[lo:hi], e[lo:hi], live[lo:hi]
        mu_sub, raw, *_ = _newton_core(A_sub, p_sub, e_sub, pair, on,
                                       mass=m_n, start=mu[lo:hi])
        value = raw / P_n
        # the envelope formula; leaves off the support carry no mass
        mu_on = mu_sub[on]
        deriv = float(np.dot(mu_on / m_n, pair.v_prime(mu_on / p_sub[on]) + e_sub[on]))
        gap = abs(raw - _objective(pair, p_sub, e_sub, mu[lo:hi])) / (1.0 + abs(raw))
        wres = None
        if wealth is not None:
            w = float(wealth.at(nid))
            wres = abs(w + deriv) / (1.0 + abs(w))
        out.append(DynamicDualNode(nid, value, deriv, gap, wres))
    return out


# -- exponential Snell envelope ------------------------------------------------------


@dataclass(frozen=True)
class SnellReport:
    envelope: AdaptedProcess
    max_equality_gap: float        # |max over measures - wealth|, scaled
    max_lower_bound_excess: float  # most positive (value - wealth) over measures
    measures_tested: int


def snell_envelope_exponential(tree: MarketTree, pair: UtilityPair, endow,
                               sol: DualSolution, vertices, *,
                               wealth: AdaptedProcess,
                               mollify: float = 1e-6) -> SnellReport:
    """Essential-supremum representation of the optimal wealth (exponential).

    At each node, the wealth should equal the supremum over equivalent
    finite-entropy martingale measures of the conditional expectation of the
    log-density payoff ``(1/gamma) ln(dP/d(optimal measure)) - endowment``.
    Vertices are mollified toward an equivalent measure to yield certified
    interior test measures; the optimal measure attains the supremum.
    """
    if pair.family != "exponential":
        raise NotExponentialError("Snell-envelope check requires exponential utility")
    if sol.support != "EQUIVALENT":
        raise NoPrimalOptimizerError("requires an equivalent optimal measure")
    gamma = pair.params["gamma"]
    e = leaf_values(tree, endow)
    p = tree.leaf_probability_array
    mu = sol._mu_arr
    payoff = np.log(p / mu) / gamma - e   # leaf random variable inside the essmax

    q_e = sol.q_hat_array
    verts = np.reshape([v.as_array(tree) for v in vertices], (-1, tree.n_leaves))
    tested = np.vstack([q_e, (1.0 - mollify) * verts + mollify * q_e])

    ids = tree.layout.ids
    w = np.array([float(wealth.at(n)) for n in ids])
    w_scale = 1.0 + float(np.abs(w).max())
    vals = tree.subtree_sums(tested * payoff) / tree.subtree_sums(tested)
    best = vals.max(axis=0)
    eq_gap = float((np.abs(best - w) / w_scale).max())
    lb_excess = float(((vals - w) / w_scale).max())
    return SnellReport(
        envelope=AdaptedProcess(dict(zip(ids, best.tolist()))),
        max_equality_gap=eq_gap,
        max_lower_bound_excess=lb_excess,
        measures_tested=len(tested),
    )
