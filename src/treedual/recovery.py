"""Primal recovery: optimal terminal wealth, trading strategy, verification.

The optimal terminal gain is read off the dual optimizer through the inverse
marginal, ``X_l = -V'(density_l) - e_l`` (``DualSolution.terminal_gain``, in
log space for the exponential family).  The strategy is the one the dual
solver found with the measure, and the wealth process is its cost plus its
cumulative gains, which must meet X on every charged leaf.

On a finite tree the gain of any strategy is an exact martingale under
every martingale measure wherever the conditional expectation is defined.
The checks over all martingale measures go node by node: a measure's
one-step weights at a node lie in that node's one-step polytope, so the
supermartingale check takes the drift under each valid one-step vertex,
and the exponential Snell envelope is the per-node upper value of the
backward pass over them (:meth:`SupportStructure.extremes`), exhaustive at
any size.  The dynamic checks solve the conditional dual problems on
subtrees, in closed form where the family, the market's completeness or the
leaf allows, in one array pass over every charged node of the times asked
for, and compare their mass derivatives with the wealth process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import (DualSolution, _complete_rows, _envelope, _newton_core, _strategy_basis,
                   dual_value_curve)
from .errors import NoPrimalOptimizerError, NotExponentialError, ReplicationGapError
from .geometry import _support_structure, build_constraints
from .market import MarketTree, leaf_values
from .utility import UtilityPair

_REPLICATION_TOL = 1e-8  # scaled gap between X and the strategy's wealth


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
    primal optimizer exists.  Residuals above 1e-8 (scaled) are solver
    failures, not mathematical outcomes, and raise
    :class:`ReplicationGapError`: the first-order condition U'(X + e) = the
    density, and max |X - wealth| over the leaves q charges, which compares
    the dual side (X from the measure) with the primal side (h) and names
    the worst leaf.  The exponential measure is itself read off h, so X
    and the wealth share h's gains; there the one-step drift of q in each
    asset at each node it charges, over the asset's unit ``top`` there,
    tests h before X meets the wealth, and names the worst node.  ``tree``,
    ``pair`` and ``endow`` must be the problem ``sol`` solved, else
    :class:`DomainError`.
    """
    e = leaf_values(tree, endow)
    sol._require(tree, pair, e, "recover")
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

    q, lay, on = sol.q_hat, tree.layout, sol.charged[-tree.n_leaves:]
    inner = lay.level_starts[-2]
    if sol._log_l is not None:   # the measure is read off h: its drift tests h
        drift = np.abs(tree.one_step_expectation(lay.step, sol.node_log_q))
        rel = np.where(sol.charged[:inner, None], drift / lay.top, 0.0).max(axis=1)
        worst = int(np.argmax(rel))
        if rel[worst] > _REPLICATION_TOL:
            raise ReplicationGapError(
                f"martingale residual {rel[worst]:.3e} of the optimal measure at node "
                f"{lay.ids[worst]!r} exceeds {_REPLICATION_TOL:.1e} (per asset, of its "
                "largest increment)", node_id=lay.ids[worst], residual=float(rel[worst]))
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
        unreached=tuple(lay.ids[k] for k in np.flatnonzero(~sol.charged[:inner])))


# -- verification -----------------------------------------------------------------


def _per_node(tree, values, what="wealth"):
    """A wealth process (or other per-node ``what``) as an (N,) float
    array; another shape raises ``ValueError``."""
    w, n = np.asarray(values, dtype=float), len(tree.layout.ids)
    if w.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},) in layout order, got {w.shape}")
    return w


@dataclass(frozen=True)
class DriftViolation:
    node_id: str
    drift: float   # the node's largest one-step drift


@dataclass(frozen=True)
class SupermartingaleReport:
    violations: tuple[DriftViolation, ...]
    max_drift: float                     # most positive drift over the vertices
    max_abs_drift_under_optimal: float   # martingale check under the optimizer
    vertices_tested: int


def verify_supermartingale(tree: MarketTree, wealth, optimal=None) -> SupermartingaleReport:
    """Per-node drift of the wealth process under every martingale measure.

    ``wealth`` is (N,) in layout order (else ``ValueError``).  A martingale
    measure's one-step weights at a node lie in the node's one-step
    polytope, so the largest drift over all of them is the largest over its
    vertices: the drift ``(weight * w[child]).sum(1) - w[node]`` of each
    valid vertex of :func:`_support_structure` at a live node, the nodes
    some martingale measure reaches.  Sup over the closure equals sup over
    the interior, so this covers the equivalent (finite-entropy) measures
    too.
    Report-only: lists the nodes whose largest drift exceeds 1e-8
    (scaled), in layout order, and the martingale residual under the
    optimal measure given its exact node log masses ``optimal`` (N,) in
    layout order (another shape raises ``ValueError``).
    """
    geo, inner = _support_structure(tree), tree.layout.level_starts[-2]
    w = _per_node(tree, wealth)
    w_scale = 1.0 + float(np.abs(w).max())

    on = geo.live[geo.node]
    node = geo.node[on]
    drift = (geo.weight[on] * w[geo.child[on]]).sum(axis=1) - w[node]
    worst = np.full(w.size, -math.inf)
    np.maximum.at(worst, node, drift)
    violations = [DriftViolation(tree.layout.ids[n], float(worst[n]))
                  for n in np.flatnonzero(worst > 1e-8 * w_scale).tolist()]

    opt_drift = 0.0
    if optimal is not None:
        optimal = _per_node(tree, optimal, "optimal node log masses")
        drift_opt = tree.one_step_expectation(w, optimal) - w[:inner]
        opt_drift = float(np.fmax.reduce(np.abs(drift_opt), axis=None, initial=0.0))

    return SupermartingaleReport(
        violations=tuple(violations),
        max_drift=float(drift.max(initial=-math.inf)),
        max_abs_drift_under_optimal=opt_drift,
        vertices_tested=int(node.size),
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

    At each node n the optimum charges (:attr:`DualSolution.charged`), the
    least entropy-plus-endowment objective over subtree measures of the
    optimizer's mass m_n, and its derivative in that mass, read off the
    slice of time ``t`` of :func:`_conditional_duals`.  At t = 0 a
    two-power optimum's root row is :func:`dual_value_curve`'s point at the
    optimum's own log mass (``run_battery`` reads the curve's point
    there).  The value is the raw one over P_n; the restriction gap
    compares it with the global optimizer's objective on the subtree.
    Deterministic time grid only.
    When ``wealth`` (N,) in layout order is given (another shape raises
    ``ValueError``), the derivative should equal minus it.
    """
    tree = sol.tree
    if not (0 <= t <= tree.horizon):
        raise ValueError(f"time {t} outside 0..{tree.horizon}")
    nodes, raw, deriv, gap, resid = _conditional_duals(sol, range(t, t + 1), wealth)
    value = raw / tree.node_probability_array[nodes]
    resid = [None] * nodes.size if resid is None else resid.tolist()
    return [DynamicDualNode(tree.layout.ids[k], v, d, g, r)
            for k, v, d, g, r in zip(nodes.tolist(), value.tolist(), deriv.tolist(),
                                     gap.tolist(), resid)]


def _conditional_duals(sol, times, wealth=None, root=None):
    """The conditional dual problems at every charged node of the ``times``
    (a range), in one pass over them, in layout order.

    A leaf's problem has one feasible point: raw value p V(m/p) + m e,
    derivative -X.  Exponential family, from the log-space pass's L_n, at
    every non-leaf node at once: raw value ``C P_n + m_n (ln m_n - 1 -
    ln P_n - L_n)/gamma``, derivative ``(ln m_n - ln P_n - L_n)/gamma``,
    with ln m_n = ln y + ``node_log_q[n]`` exact where m_n underflows.
    Otherwise the root's problem is the whole tree's at the optimum's own
    log mass ``sol._log_mass``, the point of ``dual_value_curve`` there:
    ``root``, its (raw value, derivative) if solved already (the battery
    passes its curve's middle point), else that curve point.  The other
    non-leaf nodes of a complete market take the closed form at the same
    log masses, all times in one pass (:func:`_complete_conditionals`); those
    of an incomplete one solve their subtrees' problems on the maximal
    support in one Newton-core call per time (:func:`_conditional_solves`),
    started at the optimizer, and differentiate by the envelope formula;
    the first failing time raises its :class:`NonconvergedError`.  The
    restriction gap |raw -
    restricted| / (1 + |raw|) compares the raw value with the global
    optimizer's objective on the subtree, a ``subtree_sums`` of
    ``sol.entropy_terms + mu e`` formed once.  Returns the nodes, their raw
    values, derivatives and gaps, and, given ``wealth`` (N,) in layout
    order (another shape raises ``ValueError``), the wealth residuals |W +
    derivative| / (1 + |W|), else None.
    """
    tree, pair, e = sol.tree, sol.pair, sol._endow_arr
    w = None if wealth is None else _per_node(tree, wealth)
    lay, mu = tree.layout, sol.mu
    starts, inner = lay.level_starts, lay.level_starts[-2]
    obj = sol.entropy_terms + mu * e
    mass, restricted = tree.subtree_sums(np.stack([mu, obj]))
    nodes = np.arange(starts[times.start], starts[times.stop])
    nodes = nodes[sol.charged[nodes]]
    split = np.searchsorted(nodes, inner)
    inside, leaf = nodes[:split], nodes[split:] - inner
    raw, deriv = np.empty(nodes.size), np.empty(nodes.size)
    raw[split:], deriv[split:] = obj[leaf], -sol.terminal_gain[leaf]
    log_m = sol._log_mass + sol.node_log_q[inside]   # exact where m underflows
    if sol._log_l is not None:
        gamma, big_p = pair.params["gamma"], tree.node_probability_array[inside]
        log_ratio = log_m - np.log(big_p) - sol._log_l[inside]
        raw[:split] = pair.params["C"] * big_p + mass[inside] * (log_ratio - 1.0) / gamma
        deriv[:split] = log_ratio / gamma
    else:
        below = int(times.start == 0)   # inside[0] is the root: the curve's point
        if below:
            if root is None:
                pt, = dual_value_curve(sol, log_masses=[sol._log_mass]).points
                root = pt.value, pt.derivative
            raw[0], deriv[0] = root
        if not _support_structure(tree).complete:
            for t in range(times.start + below, times.stop):
                lo, hi = np.searchsorted(inside, starts[t:t + 2])   # the nodes of time t
                if lo < hi:
                    raw[lo:hi], deriv[lo:hi] = _conditional_solves(sol, inside[lo:hi],
                                                                   mass[inside[lo:hi]])
        elif split > below:
            raw[below:split], deriv[below:split] = _complete_conditionals(
                sol, inside[below:], log_m[below:])
    gap = np.abs(raw - restricted[nodes]) / (1.0 + np.abs(raw))
    if w is None:
        return nodes, raw, deriv, gap, None
    w = w[nodes]
    return nodes, raw, deriv, gap, np.abs(w + deriv) / (1.0 + np.abs(w))


def _complete_conditionals(sol, nodes, log_m):
    """The raw conditional dual values and mass derivatives at the non-leaf
    ``nodes`` of a complete market, with optimal log masses ``log_m``, in
    the closed form of ``dual._complete_rows``: node n's subtree has one
    martingale measure, q^n with ln q^n = ell_leaf - ell_n for the node
    log masses ell of the support pass's ``log_interior``, so its problem
    at mass m_n has the optimum m_n q^n and the wealth I(m_n q^n / p).  One ``v_point`` pass over the leaves of every node."""
    tree = sol.tree
    lay, ell = tree.layout, _support_structure(tree).log_interior
    size = lay.hi[nodes] - lay.lo[nodes]
    first = np.cumsum(size) - size
    row = np.repeat(np.arange(nodes.size), size)
    leaf = np.arange(size.sum()) - first[row] + lay.lo[nodes][row]
    sums, *_ = _complete_rows(sol.pair, tree.leaf_probability_array[leaf],
                              ell[lay.level_starts[-2] + leaf] - ell[nodes][row],
                              sol._endow_arr[leaf], log_m[row], first)
    return sums[0], sums[1]


def _conditional_solves(sol, nodes, masses):
    """The raw conditional dual values and mass derivatives at the charged
    non-leaf ``nodes`` of one time, with optimal masses ``masses``, from one
    Newton-core call.  Row i is node i's subtree: its leaves, padded to the
    largest subtree's with p = 0 and zero entries, and the rows of
    :func:`build_constraints` inside it that the tree's
    :func:`_strategy_basis` keeps, padded with zero rows to the most any
    subtree keeps (memory O(L k) per time).  Every leaf is live: the
    two-power dual refuses a DEGENERATE market.  Each row starts at the
    optimizer; the first failing row raises its :class:`NonconvergedError`.
    The derivative is ``dual._envelope`` of the row's optimum, normalized by
    its own mass, as ``DualSolution.mass_derivative`` has it."""
    tree, pair, e, mu = sol.tree, sol.pair, sol._endow_arr, sol.mu
    lay, p = tree.layout, tree.leaf_probability_array
    geo = _support_structure(tree)
    lo, hi = lay.lo[nodes], lay.hi[nodes]
    # the kept rows of A, each in the subtree that holds its node, if any:
    # the subtrees of one time are disjoint leaf ranges in leaf order
    kept = np.flatnonzero(_strategy_basis(geo))
    owner = kept // tree.n_assets
    slot = np.maximum(np.searchsorted(lo, lay.lo[owner], side="right") - 1, 0)
    inside = (lay.lo[owner] >= lo[slot]) & (lay.hi[owner] <= hi[slot])
    by_slot = np.flatnonzero(inside)[np.argsort(slot[inside], kind="stable")]
    kept, slot = kept[by_slot], slot[by_slot]
    column = np.arange(slot.size) - np.searchsorted(slot, slot)
    leaf = lo[:, None] + np.arange((hi - lo).max())
    pad = leaf >= hi[:, None]
    leaf[pad] = 0
    A = np.zeros((nodes.size, column.max(initial=0) + 1, leaf.shape[1]))
    A[slot, column] = np.where(pad[slot], 0.0, build_constraints(tree)[kept[:, None],
                                                                       leaf[slot]])
    p_sub, e_sub = np.where(pad, 0.0, p[leaf]), np.where(pad, 0.0, e[leaf])
    mu_sub, _, raw, *_, errors = _newton_core(A, p_sub, e_sub, pair,
                                              np.ones(leaf.shape[1], dtype=bool),
                                              mass=masses, start=mu[leaf])
    for err in errors:
        if err is not None:
            raise err
    # the envelope formula, over the subtree's leaves; padding is not charged
    dens = np.divide(mu_sub, p_sub, out=np.ones(mu_sub.shape), where=~pad)
    q = mu_sub / mu_sub.sum(axis=1, keepdims=True)
    return raw, _envelope(q, -pair.v_prime(dens) - e_sub, q > 0)


# -- exponential Snell envelope ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SnellReport:
    envelope: np.ndarray           # (N,), layout order
    max_equality_gap: float        # |envelope - wealth|, scaled
    max_lower_bound_excess: float  # most positive (envelope - wealth), scaled


def snell_envelope_exponential(sol: DualSolution, *, wealth) -> SnellReport:
    """Essential-supremum representation of the optimal wealth (exponential).

    At each node the wealth (N,) should equal the supremum, over equivalent
    finite-entropy martingale measures, of the conditional expectation of
    ``sol.terminal_gain`` = (1/gamma) ln(dP/d(optimal measure)) - endowment,
    which the optimal measure attains.  The envelope is that supremum node
    by node: the upper values of :meth:`SupportStructure.extremes`, the
    largest conditional expectation over every martingale measure (the sup
    over the closure equals the sup over the equivalent ones).  A wealth of
    another shape raises ``ValueError``.
    """
    tree, pair = sol.tree, sol.pair
    if pair.family != "exponential":
        raise NotExponentialError("Snell-envelope check requires exponential utility")
    if sol.support != "EQUIVALENT":
        raise NoPrimalOptimizerError("requires an equivalent optimal measure")
    w = _per_node(tree, wealth)
    _, best = _support_structure(tree).extremes(sol.terminal_gain)
    w_scale = 1.0 + float(np.abs(w).max())
    return SnellReport(envelope=best, max_equality_gap=float(np.abs(best - w).max() / w_scale),
                       max_lower_bound_excess=float((best - w).max() / w_scale))
