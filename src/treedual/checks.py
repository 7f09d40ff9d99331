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
from .errors import CapExceededError, NonconvergedError
from .geometry import (_support_structure, build_constraints, relative_entropy,
                       vertex_enumerate)
from .market import MarketTree, leaf_values
from .recovery import (dynamic_dual, recover, snell_envelope_exponential,
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
    corrupted optimum fails them, in its exact form: X, the charged set and
    the node log masses that weigh conditional expectations
    (``terminal_gain``, ``charged``, ``node_log_q``, all from ``_log_q``).
    A check passes when its residual is at most its ``tolerance``; a flag
    reads 0 or 1 and a count its violations, both against 0.5.  A failed
    recovery reads inf and ends the battery; a failed two-power conditional
    solve reads inf in "dynamic dual consistency", which bounds, over every
    charged node, the wealth residual and restriction gap of
    :func:`dynamic_dual`.  The certification proves biconjugacy from the
    pair's closed forms at y = U'(x); its detail prints the tail
    elasticities (AE-, AE+) beside their grid estimates.  The support flag
    and "maximal support" read one leaf mask, named in the latter's detail:
    the union of the supports of the enumerated vertices, an oracle apart
    from the support pass behind the flag, or that pass past the
    enumeration cap.  The checks under all martingale measures go node by
    node over the valid one-step vertices (:func:`verify_supermartingale`,
    :func:`snell_envelope_exponential`), exhaustive at any size.  The value
    curve is read off the optimum at log masses around its own
    (:func:`dual_value_curve`): in closed form for the exponential family,
    else by one Newton-core call started at the rescaled optimum.  A result's
    ``seconds`` run from the previous result, so shared work (the solve, the
    vertices, the recovery, the curve) is charged to the first check that
    uses it.
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

    A = build_constraints(tree)
    cons_res = float(np.abs(A @ sol.mu).max()) if A.size else 0.0
    tol = 1e-10 * (1 + sol.mass)
    add("martingale constraints at optimum", cons_res, tol)

    # KKT of the entropy program: gradient -X in the row space at charged
    # leaves, fitted by the rows of the tree's strategy basis
    g = -sol.terminal_gain
    live = sol.charged[-tree.n_leaves:]
    rows = A[_strategy_basis(_support_structure(tree))][:, live].T
    lam = _qr_fits(rows[None], g[None, live, None])[0, :, 0]
    kkt = float(np.abs(g[live] - rows @ lam).max()) / (1.0 + float(np.abs(g[live]).max()))
    add("dual first-order conditions", kkt, 1e-8)

    # one leaf mask decides the flag and the maximal support: the union of
    # the enumerated vertices' supports, apart from the support pass behind
    # the flag, or past the enumeration cap of 10 000 the support pass itself
    try:
        verts = vertex_enumerate(A)
        support, source = (verts > 0).any(axis=0), f"{len(verts)} enumerated vertices"
    except CapExceededError:
        support, source = _support_structure(tree).mask, "support pass, past the vertex cap"
    support_ok = (sol.support == "EQUIVALENT") == bool(support.all())
    add("support flag matches market", 0.0 if support_ok else 1.0, 0.5, sol.support)
    add("maximal support", float(np.count_nonzero(support & ~live)), 0.5, source)

    if sol.support != "EQUIVALENT":
        return results

    try:
        ps = recover(tree, pair, endow, sol)
    except Exception as exc:
        add("primal recovery", math.inf, 1e-8, f"{type(exc).__name__}: {exc}")
        return results
    # the recovered primal value against the dual objective, entropy plus cost
    scale_v = 1.0 + abs(sol.value)
    gap = abs(ps.value - (relative_entropy(tree, pair, sol.mu) + sol.mu @ e)) / scale_v
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

    # the conditional problems' mass derivatives against the wealth, and
    # their values against the restricted optimizer
    try:
        worst, detail = max((max(node.wealth_residual, node.restriction_gap)
                             for t in range(tree.horizon + 1)
                             for node in dynamic_dual(sol, t, wealth=ps.wealth)),
                            default=0.0), ""
    except NonconvergedError as exc:   # a two-power conditional solve
        worst, detail = math.inf, f"{type(exc).__name__}: {exc}"
    add("dynamic dual consistency", worst, 1e-7, detail)

    if pair.family == "exponential":
        sn = snell_envelope_exponential(sol, wealth=ps.wealth)
        add("exponential Snell envelope", sn.max_equality_gap, 1e-5)
        add("Snell lower bounds", max(sn.max_lower_bound_excess, 0.0), 1e-7)

    log_ys = sol._log_mass + np.log([0.5, 0.75, 1.0, 1.5, 2.0])
    curve = dual_value_curve(sol, log_ys, log=True)
    conv = -min(curve.min_second_difference, 0.0)
    add("value curve convexity", conv, 1e-8)
    add("curve minimum vs optimum", max(sol.value - curve.min_value, 0.0), 1e-8 * scale_v)
    d_opt = abs(curve.points[2].derivative)   # at y = sol.mass
    add("stationarity of the mass derivative", d_opt, 1e-7)

    # growth of the value curve from the conjugate growth constant (the
    # certification has proved U(0) > 0): y v'(y) <= C' v(y) - (C' - 1) x' y
    # with x' the worst endowment
    cprime = cert.growth_constant_estimate
    x_low = float(e.min())
    worst_g = -math.inf
    for pt in curve.points:
        lhs = pt.y * pt.derivative
        rhs = cprime * pt.value - (cprime - 1.0) * x_low * pt.y
        worst_g = max(worst_g, (lhs - rhs) / (1.0 + abs(rhs)))
    add("conjugate growth bound along the curve", max(worst_g, 0.0), 1e-6,
        f"C'={cprime:.3g}")

    return results
