"""Runtime verification battery for a solved market instance.

Each check exercises one of the theorem-level properties on a concrete
(market, utility, endowment) triple and returns a named result with the
worst observed residual.  The CLI ``verify`` subcommand prints one line per
check and exits non-zero on any failure; the acceptance tests reuse the same
functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dual import _qr_fits, _strategy_basis, dual_value_curve, solve_dual
from .errors import NonconvergedError
from .geometry import _TOL, _support_structure, relative_entropy
from .market import MarketTree, leaf_values
from .recovery import (_conditional_duals, recover, snell_envelope_exponential,
                       verify_supermartingale)
from .utility import UtilityPair, certify_assumptions


@dataclass(frozen=True)
class CheckResult:
    """One check's worst residual against its bound; the verdict is
    ``residual <= tolerance``, so a NaN residual fails."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0   # wall time, from run_battery

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def line(self) -> str:
        status, op = ("PASS", "<=") if self.passed else ("FAIL", ">")
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.name}: residual {self.residual:.3e}"
                f" {op} {self.tolerance:.1e}{extra}")


def run_battery(tree: MarketTree, pair: UtilityPair, endow) -> list[CheckResult]:
    """All instance-level checks; returns one result per check.

    Every check after the solve reads :func:`solve_dual`'s optimum, so a
    corrupted optimum fails them: mu, the mass, X, the charged set and the
    node log masses that weigh conditional expectations are all read off its
    exact form (``_log_mass``, ``_log_q``).
    A check passes when its residual is at most its ``tolerance``; a flag
    reads 0 or 1 and a count its violations, both against 0.5.  A failed
    recovery reads inf and ends the battery; a failed two-power conditional
    solve reads inf in "dynamic dual consistency", which bounds, over every
    charged node, the wealth residual and restriction gap of the
    conditional dual problems: one array pass over every time
    (``recovery._conditional_duals``, of which :func:`dynamic_dual` reads
    one time's slice), with no per-node object.  The value curve is
    computed before it: its middle point, at the optimum's own log mass,
    is the root's conditional problem, so a two-power battery on an
    incomplete market makes horizon + 1 Newton-core calls (the solve, the
    curve and one per time 1 .. T - 1), and one on a complete market none
    (the closed form of ``dual._complete_solutions``).  The optimum's
    conjugate point (V, V', V'') at mu/p is formed once
    (``DualSolution.entropy_terms`` and ``terminal_gain`` read it): "zero
    duality gap" sums p V and the dynamic dual adds mu e to it.  The
    certification
    (:func:`certify_assumptions`, one evaluation of each closed form over
    its grids) proves biconjugacy from the pair's closed forms at y = U'(x);
    its detail prints the tail elasticities (AE-, AE+) beside their grid
    estimates.  Every worst residual is a reduction that propagates NaN,
    so a NaN anywhere fails its check.  Every check runs
    node by node in O(N), with no dense constraint matrix and no vertex
    enumeration.  "Martingale constraints at optimum" is each asset's
    one-step drift over its ``top`` at each charged node times the node's
    mass, so it reads every asset in its own unit; "dual first-order
    conditions" fits E_q[X | child] - E_q[X | node] by the increments on
    each charged node's charged children (one batched QR), apart from the
    solver's strategy.  The support flag and "maximal support" check the
    support pass's two certificates on the prices alone (the FTAP on finite
    trees): its one-step weights (``step_weights``) must be non-negative,
    sum to 1 and have no drift at every node they reach, which proves a
    martingale measure charging the leaves they reach, and its strategy
    (``arbitrage``) must gain >= 0 on every leaf and > 0 on every leaf
    those weights miss, which proves no martingale measure charges them.
    The flag passes when they prove it; "maximal support" counts the
    leaves q_hat misses though the weights reach them, or charges though
    the strategy gains there.  The checks under all martingale measures go
    node by node over the valid one-step vertices
    (:func:`verify_supermartingale`, :func:`snell_envelope_exponential`),
    exhaustive at any size.  The value
    curve is read off the optimum at log masses around its own
    (:func:`dual_value_curve`): in closed form for the exponential family
    and on complete markets, else by one Newton-core call started at the
    rescaled optimum.  A result's
    ``seconds`` run from the previous result, so shared work (the solve, the
    certificates, the recovery, the curve) is charged to the first check
    that uses it: the curve to "dynamic dual consistency".
    """
    results, clock = [], [time.perf_counter()]

    def add(name, residual, *rest):   # + 0.0 turns -0.0 into 0.0
        clock.append(time.perf_counter())
        results.append(CheckResult(name, residual + 0.0, *rest,
                                   seconds=clock[-1] - clock[-2]))

    e = leaf_values(tree, endow)

    cert = certify_assumptions(pair)
    add("utility certification", cert.conjugacy_max_residual, 1e-7,
        f"AE ({cert.ae_minus:.3g}, {cert.ae_plus:.3g}) "
        f"est ({cert.ae_minus_estimate:.3g}, {cert.ae_plus_estimate:.3g})")

    sol = solve_dual(tree, pair, endow)
    geo, lay, inner = _support_structure(tree), tree.layout, tree.layout.level_starts[-2]
    charged, live = sol.charged[:inner], sol.charged[inner:]

    drift = tree.one_step_expectation(lay.step, sol.node_log_q) / lay.top
    mass = np.exp(sol._log_mass + sol.node_log_q[:inner, None])
    cons_res = float(np.abs(np.where(charged[:, None], mass * drift, 0.0)).max(initial=0.0))
    add("martingale constraints at optimum", cons_res, 1e-10 * (1 + sol.mass))

    # KKT of the entropy program: X replicable under q_hat, so that at each
    # charged node E[X | child] - E[X | node] is fitted by the increments on
    # the charged children (the columns of the tree's strategy basis)
    x = np.where(live, sol.terminal_gain, 0.0)
    cond = tree.conditional_expectation(x, sol.node_log_q)
    kid = np.where(sol.charged, cond - cond[lay.parent], 0.0)
    fit = _per_node_fits(lay, kid, sol.charged, _strategy_basis(geo).reshape(inner, -1))
    kkt = float(np.abs(fit).max(initial=0.0)) / (1.0 + float(np.abs(x[live]).max()))
    add("dual first-order conditions", kkt, 1e-8)

    # the certificates of the support pass, each checked on the prices
    # alone: the flag holds when they prove it, and q_hat must charge every
    # leaf the measure charges and no leaf where the arbitrage gains
    on, measure_ok = _measure_certificate(lay, geo.step_weights)
    gains, scale = _arbitrage_gains(lay, geo.arbitrage)
    loses = bool((gains < -_CERTIFICATE_TOL * scale).any())
    cut = gains > _CERTIFICATE_TOL * scale
    if sol.support == "EQUIVALENT":
        proven = measure_ok and bool(on.all())
    else:
        proven = measure_ok and not loses and bool(cut[~on].all()) and not on.all()
    add("support flag matches market", 0.0 if proven else 1.0, 0.5, sol.support)
    add("maximal support", float(np.count_nonzero((on & ~live) | (cut & live))), 0.5,
        f"{np.count_nonzero(on)} leaves charged by the measure certificate, "
        f"{np.count_nonzero(cut)} cut off by the arbitrage")

    if sol.support != "EQUIVALENT":
        return results

    try:
        ps = recover(tree, pair, endow, sol)
    except Exception as exc:
        add("primal recovery", math.inf, 1e-8, f"{type(exc).__name__}: {exc}")
        return results
    # the recovered primal value against the dual objective, entropy plus cost
    scale_v = 1.0 + abs(sol.value)
    gap = abs(ps.value - (relative_entropy(tree, pair, sol.mu, sol.entropy_terms)
                          + sol.mu @ e)) / scale_v
    add("zero duality gap", gap, 1e-7)
    tol = 1e-8 * (1 + sol.mass)
    add("terminal first-order condition", ps.first_order_residual, tol)
    # X from the measure against the wealth of the solver's strategy
    add("one-step self-financing", ps.replication_residual, 1e-8)
    w0 = abs(float(ps.wealth[0]))
    add("zero-cost wealth at the root", w0, 1e-8)

    sm = verify_supermartingale(tree, ps.wealth, sol.node_log_q)
    add("supermartingale under tested measures", max(sm.max_drift, 0.0),
        1e-8 * (1.0 + float(np.abs(ps.wealth).max())),
        f"{sm.vertices_tested} one-step vertices")
    add("martingale under the optimal measure", sm.max_abs_drift_under_optimal, 1e-8)

    # the value curve at log masses around the optimum's own; its middle
    # point, at the optimum's mass, is the root's conditional problem
    log_ys = sol._log_mass + np.log([0.5, 0.75, 1.0, 1.5, 2.0])
    curve = dual_value_curve(sol, log_masses=log_ys)
    mid = curve.points[2]

    # the conditional problems' mass derivatives against the wealth, and
    # their values against the restricted optimizer
    try:
        *_, gap, resid = _conditional_duals(sol, range(tree.horizon + 1), ps.wealth,
                                            (mid.value, mid.derivative))
        worst, detail = float(np.maximum(resid, gap).max(initial=0.0)), ""
    except NonconvergedError as exc:   # a two-power conditional solve
        worst, detail = math.inf, f"{type(exc).__name__}: {exc}"
    add("dynamic dual consistency", worst, 1e-7, detail)

    if pair.family == "exponential":
        sn = snell_envelope_exponential(sol, wealth=ps.wealth)
        add("exponential Snell envelope", sn.max_equality_gap, 1e-5)
        add("Snell lower bounds", max(sn.max_lower_bound_excess, 0.0), 1e-7)

    conv = -min(curve.min_second_difference, 0.0)
    add("value curve convexity", conv, 1e-8)
    add("curve minimum vs optimum", max(sol.value - curve.min_value, 0.0), 1e-8 * scale_v)
    d_opt = abs(mid.derivative)   # at y = sol.mass
    add("stationarity of the mass derivative", d_opt, 1e-7)

    # growth of the value curve from the conjugate growth constant (the
    # certification has proved U(0) > 0): y v'(y) <= C' v(y) - (C' - 1) x' y
    # with x' the worst endowment
    cprime = cert.growth_constant_estimate
    x_low = float(e.min())
    rhs = [cprime * pt.value - (cprime - 1.0) * x_low * pt.y for pt in curve.points]
    worst_g = float(np.max([(pt.y * pt.derivative - r) / (1.0 + abs(r))   # NaN fails
                            for pt, r in zip(curve.points, rhs)]))
    add("conjugate growth bound along the curve", max(worst_g, 0.0), 1e-6,
        f"C'={cprime:.3g}")

    return results


# the measure certificate's one-step sums and drifts, and the arbitrage
# certificate's gains, each against its scale: the support pass's own
# floor, so that no one-step weight or loss the pass resolves slips past
_CERTIFICATE_TOL = _TOL


def _measure_certificate(lay, w):
    """The leaves that one-step weights ``w`` (N,) charge, multiplied down
    the paths from the root, and whether they are a martingale probability:
    at every node they reach, non-negative on its children, summing to 1
    and with no drift, each to ``_CERTIFICATE_TOL`` of the node's largest
    increment per asset (the layout's ``step`` and ``top``).  Reads nothing
    but the layout and ``w``."""
    firsts = lay.first_child - 1
    reach = lay.path_sums(np.r_[0.0, np.where(w[1:] > 0, 0.0, -np.inf)]) > -np.inf
    drift = np.add.reduceat(w[1:, None] * lay.step[1:], firsts, axis=0)
    bad = ((np.abs(np.add.reduceat(w[1:], firsts) - 1.0) > _CERTIFICATE_TOL)
           | (np.abs(drift) > _CERTIFICATE_TOL * lay.top).any(axis=1)
           | (np.minimum.reduceat(w[1:], firsts) < 0))
    return reach[lay.level_starts[-2]:], not bool((bad & reach[:bad.size]).any())


def _arbitrage_gains(lay, h):
    """The gains of the strategy ``h`` (n, d) at every leaf and their
    scale: along the path, the sum of |h| times the node's largest
    increment per asset (the layout's ``step`` and ``top``).  Reads nothing
    but the layout and ``h``."""
    par, g = lay.parent[1:], np.zeros((2, len(lay.ids)))
    g[0, 1:] = np.einsum("nd,nd->n", h[par], lay.step[1:])
    g[1, 1:] = (np.abs(h[par]) * lay.top[par]).sum(axis=1)
    return lay.path_sums(g)[:, lay.level_starts[-2]:]


def _per_node_fits(lay, y, charged, basis):
    """Residuals (N,) of the least-squares fits of ``y`` (N,) on each
    ``charged`` (N,) non-leaf node's children by their increments (the
    layout's ``step``, zero off the charged children), restricted to the
    columns ``basis`` (n, d); other nodes read 0.  One batched
    :func:`_qr_fits` over the nodes, on the layout's padded ``kids`` cut
    to the widest of them."""
    node = np.flatnonzero(charged[:lay.level_starts[-2]])
    m = lay.on[node].sum(axis=1).max(initial=1)
    kids, pad = lay.kids[node, :m], ~lay.on[node, :m]
    J = np.where((pad | ~charged[kids])[..., None] | ~basis[node, None], 0.0, lay.step[kids])
    T = np.where(pad, 0.0, y[kids])[..., None]
    res = T - J @ _qr_fits(J, T)
    out = np.zeros(y.size)
    out[kids[~pad]] = res[..., 0][~pad]
    return out
