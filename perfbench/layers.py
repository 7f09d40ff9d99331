"""Traced run: per-layer metrics of one workload.

Each operation is executed twice in a row, untraced and then traced, with
the same inputs.  The two outputs must be identical (tracing only observes);
the ratio of the two times is the tracing overhead.  Per-layer numbers come
from the traced executions and are reported per operation.
"""

from __future__ import annotations

from tracer import Tracer

# spans whose self time is reported, as "<span>.self_ms"
SELF_MS = ("simplex.solve_lp", "geometry.support", "geometry.build_constraints",
           "market.load_market", "pricing.indifference_price",
           "pricing.price_via_penalty", "pricing.certainty_equivalent",
           "pricing.price_bounds", "utility.conjugate", "utility.certify_assumptions",
           "geometry.vertex_enumerate", "recovery.dynamic_dual",
           "recovery.verify_supermartingale", "dual.dual_value_curve", "recovery.recover")
DUAL_SOLVES = ("dual.solve_dual", "dual.solve_dual_fixed_mass")
CACHED = {"geometry.support.cache_hit_ratio": "geometry._support_structure",
          "geometry.build_constraints.cache_hit_ratio": "geometry.build_constraints"}


def _on_solve(tracer, sol):
    tracer.count("dual.newton_steps", int(sol.iterations[-1]["steps"]))
    if tracer.inside("pricing."):
        tracer.count("pricing.dual_solves")


def _on_solve_error(tracer, exc):
    if getattr(exc, "code", None) == "NONCONVERGED":
        tracer.count("dual.nonconverged")
    if tracer.inside("pricing."):
        tracer.count("pricing.dual_solves")


def _on_lp(tracer, res):
    if res.status != "optimal":
        tracer.count("simplex.nonoptimal")


HOOKS = {"dual.solve_dual": (_on_solve, _on_solve_error),
         "dual.solve_dual_fixed_mass": (_on_solve, _on_solve_error),
         "simplex.solve_lp": (_on_lp, None)}


class LayerRun:
    def __init__(self, td, wl, run_op):
        self.td, self.wl, self.run_op = td, wl, run_op
        self.tracer = Tracer(HOOKS)
        self.cache_objs = {k: self.tracer.originals[q] for k, q in CACHED.items()}
        self.cache_counts = {k: [0, 0] for k in CACHED}
        self.n = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.failed_checks = 0
        self.mismatches = 0

    def traced_op(self, case, outcome, latency, out):
        """Run ``case`` again under the tracer and compare with the untraced run."""
        if case.traced_pair is None:
            case.traced_pair = self.tracer.trace_pair(case.pair)
        before = {k: o.cache_info() for k, o in self.cache_objs.items()}
        self.tracer.op_id = self.n
        self.tracer.install()
        try:
            t_outcome, t_latency, t_out = self.run_op(self.td, self.wl, case, case.traced_pair)
        finally:
            self.tracer.uninstall()
        for k, o in self.cache_objs.items():
            info = o.cache_info()
            self.cache_counts[k][0] += info.hits - before[k].hits
            self.cache_counts[k][1] += info.misses - before[k].misses
        self.n += 1
        self.untraced_s += latency
        self.traced_s += t_latency
        if self.wl.name == "verify" and t_out is not None:
            self.failed_checks += self.wl.failed_checks(t_out)
        same = t_outcome == outcome and repr(t_out) == repr(out)
        if not same and "deadline" not in (outcome, t_outcome):
            self.mismatches += 1
        return {"traced_latency_s": t_latency, "traced_outcome": t_outcome,
                "traced_output_identical": same}

    def metrics(self):
        tr, n = self.tracer, self.n

        def calls(*names):
            return sum(tr.calls.get(s, 0) for s in names)

        def self_ms(*names):
            return 1e3 * sum(tr.self_s.get(s, 0.0) for s in names)

        steps = tr.events.get("dual.newton_steps", 0)
        out = {
            "simplex.solve_lp.calls": (calls("simplex.solve_lp") / n, "1/op"),
            "simplex.solve_lp.nonoptimal": (tr.events.get("simplex.nonoptimal", 0) / n, "1/op"),
            "geometry.support.calls": (calls("geometry.support") / n, "1/op"),
            "dual.solves": (calls(*DUAL_SOLVES) / n, "1/op"),
            "dual.solve.self_ms": (self_ms(*DUAL_SOLVES) / n, "ms/op"),
            "dual.newton_steps": (steps / n, "1/op"),
            "dual.ms_per_newton_step": (self_ms(*DUAL_SOLVES) / steps if steps else 0.0, "ms"),
            "dual.nonconverged": (tr.events.get("dual.nonconverged", 0) / n, "1/op"),
            "pricing.dual_solves_per_op": (tr.events.get("pricing.dual_solves", 0) / n, "1/op"),
            "utility.conjugate.calls": (calls("utility.conjugate") / n, "1/op"),
            "checks.failed_checks": (self.failed_checks / n, "1/op"),
            "trace.overhead_ratio": (self.traced_s / self.untraced_s, "ratio"),
        }
        for span in SELF_MS:
            out[f"{span}.self_ms"] = (self_ms(span) / n, "ms/op")
        for metric, (hits, misses) in self.cache_counts.items():
            out[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return dict(sorted(out.items()))
