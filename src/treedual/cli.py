"""Command-line front end.

Subcommands: ``solve``, ``recover``, ``price``, ``curve``, ``mubpp``,
``sensitivity``, ``verify``, ``oracle``, ``geometry``.  Numeric output is
printed with 12 significant digits; every run with an ``--output-dir`` also
writes a ``manifest.json`` (command, arguments, package and library versions;
``solve`` adds its ``newton_steps``, ``price`` and ``curve`` their
``dual_solves`` and ``dual_rounds``, both 0 for a claim whose no-arbitrage
bounds coincide, which is priced at that bound; ``verify`` its
``check_seconds``) plus machine-readable CSV files.
Identical configuration (``oracle`` also takes a ``--seed``) produces
byte-identical CSV output.  Each option is declared only on the subcommands
that read it, and only by its full name.

Exit codes: 0 success, 1 verification/market failure (arbitrage, failed
invariants), 2 input error (bad files, unknown names, bad flags); closing
stdout early (``| head``) keeps the subcommand's code, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_battery
from .dual import solve_dual
from .errors import ParseError, TreedualError
from .geometry import (VERTEX_CAP_DEFAULT, build_constraints, find_equivalent_mm,
                       vertex_enumerate)
from .market import MarketTree, load_market, read_json
from .oracle import check_duality_gap
from .pricing import (average_price_curve, check_mubpp, endowment_sensitivity,
                      price_report)
from .recovery import recover
from .utility import parse_utility_spec

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def f12(x) -> str:
    return format(float(x), ".12g")


def _pick_endowment(tree: MarketTree, name: str | None) -> np.ndarray:
    """Endowment (L,) by name: the file's endowment, a claim name, or zero."""
    if name is None or name == "endowment":
        return tree.endowment
    if name == "zero":
        return np.zeros(tree.n_leaves)
    if name in tree.claims:
        return tree.claims[name]
    raise ParseError(f"unknown endowment name {name!r} "
                     f"(use 'endowment', 'zero' or one of {sorted(tree.claims)})")


def _pick_claim(tree: MarketTree, name: str) -> np.ndarray:
    if name in tree.claims:
        return tree.claims[name]
    raise ParseError(f"unknown claim {name!r}; file defines {sorted(tree.claims)}")


class _Out:
    """Collects text lines and CSV files; flushes to stdout / output dir."""

    def __init__(self, args):
        self.lines: list[str] = []
        self.csvs: dict[str, list[str]] = {}
        self.fmt = args.format
        self.outdir = Path(args.output_dir) if args.output_dir else None
        self.manifest = {
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func",)},
            "versions": {"treedual": __version__,
                         "numpy": np.__version__,
                         "python": sys.version.split()[0]},
        }

    def say(self, text=""):
        self.lines.append(text)

    def csv(self, name, header, rows):
        body = [",".join(header)]
        body += [",".join(str(c) for c in row) for row in rows]
        self.csvs[name] = body

    def flush(self):
        if self.outdir is not None:
            for name, body in self.csvs.items():
                (self.outdir / name).write_text("\n".join(body) + "\n")
            (self.outdir / "manifest.json").write_text(
                json.dumps(self.manifest, indent=2, sort_keys=True,
                           default=str) + "\n")
        if self.fmt == "text":
            print("\n".join(self.lines))
        elif self.fmt == "csv":
            for body in self.csvs.values():
                print("\n".join(body))
        else:  # structured
            print(json.dumps({"report": self.lines,
                              "tables": self.csvs,
                              "manifest": self.manifest},
                             indent=2, sort_keys=True, default=str))
        sys.stdout.flush()


def _cmd_geometry(args, out: _Out, tree):
    A = build_constraints(tree)
    labels = [(nid, a) for nid in tree.nonleaf_ids for a in tree.assets]  # A's rows
    out.say(f"market: {tree!r}")
    out.say(f"constraint rows: {A.shape[0]} over {tree.n_leaves} leaves")
    for (nid, asset), row in zip(labels, A):
        out.say(f"  node {nid} asset {asset}: " + " ".join(f12(c) for c in row))
    q = find_equivalent_mm(tree)
    out.say("equivalent martingale measure: "
            + ("none (degenerate market)" if q is None else "exists"))
    verts = np.exp(vertex_enumerate(tree, cap=args.vertex_cap))   # floats at the edge
    out.say(f"polytope vertices: {len(verts)}")
    rows = [[k] + [f12(x) for x in v] for k, v in enumerate(verts)]
    out.csv("vertices.csv", ["vertex"] + list(tree.leaf_ids), rows)
    out.csv("constraints.csv",
            ["node", "asset"] + list(tree.leaf_ids),
            [[nid, asset] + [f12(c) for c in row] for (nid, asset), row in zip(labels, A)])
    return EXIT_OK


def _cmd_solve(args, out: _Out, tree, pair, endow):
    sol = solve_dual(tree, pair, endow)
    out.manifest["newton_steps"] = sol.iterations[-1]["steps"]
    out.say(f"dual value: {f12(sol.value)}")
    out.say(f"optimal mass: {f12(sol.mass)}")
    out.say(f"support: {sol.support}")
    out.say(f"stationarity residual: {f12(sol.stationarity)}")
    out.say("leaf  mass  normalized  density")
    rows = [[leaf, f12(m), f12(q), f12(d)] for leaf, m, q, d in
            zip(tree.leaf_ids, sol.mu.tolist(), sol.q_hat.tolist(), sol.density_array.tolist())]
    for r in rows:
        out.say("  " + "  ".join(r))
    out.csv("optimal_measure.csv", ["leaf", "mass", "normalized", "density"], rows)
    return EXIT_OK


def _cmd_recover(args, out: _Out, tree, pair, endow):
    sol = solve_dual(tree, pair, endow)
    ps = recover(tree, pair, endow, sol)
    out.say(f"primal value: {f12(ps.value)}")
    out.say(f"dual value:   {f12(sol.value)}")
    out.say(f"replication residual: {f12(ps.replication_residual)}")
    # rows in file order; time, wealth and strategy (none on leaves) in layout order
    lay = tree.layout
    t = np.repeat(np.arange(tree.horizon + 1), np.diff(lay.level_starts)).tolist()
    hs = ([[f12(c) for c in h] for h in ps.strategy.tolist()]
          + [[""] * tree.n_assets] * tree.n_leaves)
    rows = [[lay.ids[k], t[k], f12(ps.wealth[k])] + hs[k]
            for k in tree._file_pos.tolist()]
    out.csv("wealth_strategy.csv",
            ["node", "t", "wealth"] + [f"h_{a}" for a in tree.assets], rows)
    out.say("node  t  wealth  holdings")
    for r in rows:
        out.say("  " + "  ".join(str(c) for c in r))
    return EXIT_OK


def _cmd_price(args, out: _Out, tree, pair, endow, claim):
    rep = price_report(tree, pair, endow, claim)
    out.manifest["dual_solves"] = rep.dual_solves
    out.manifest["dual_rounds"] = rep.dual_rounds
    out.say(f"bid:   {f12(rep.bid)}")
    out.say(f"offer: {f12(rep.offer)}")
    out.say(f"certainty equivalent: {f12(rep.certainty_equivalent)}")
    out.say(f"marginal (davis): {f12(rep.davis)}")
    out.say(f"bounds: [{f12(rep.lp_bounds[0])}, {f12(rep.lp_bounds[1])}]")
    out.say(f"cross-method residual: {f12(rep.method_agreement_residual)}")
    out.csv("price.csv",
            ["claim", "bid", "offer", "certainty_equivalent", "davis",
             "bound_lo", "bound_hi", "method_residual"],
            [[args.claim, f12(rep.bid), f12(rep.offer),
              f12(rep.certainty_equivalent), f12(rep.davis),
              f12(rep.lp_bounds[0]), f12(rep.lp_bounds[1]),
              f12(rep.method_agreement_residual)]])
    return EXIT_OK


def _parse_betas(spec: str):
    """Log grid ``lo:hi:n``: n >= 1 volumes between finite positive ends."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n < 1 or not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError
    except ValueError:
        raise ParseError(f"--betas {spec!r}: expected lo:hi:n with finite positive "
                         "ends and a count n >= 1") from None
    return np.logspace(np.log10(lo), np.log10(hi), n).tolist()


def _cmd_curve(args, out: _Out, tree, pair, endow, claim):
    rep = average_price_curve(tree, pair, endow, claim, _parse_betas(args.betas))
    out.manifest["dual_solves"] = rep.dual_solves
    out.manifest["dual_rounds"] = rep.dual_rounds
    out.say("beta  average_price")
    for b, p in zip(rep.betas, rep.prices):
        out.say(f"  {f12(b)}  {f12(p)}")
    out.say(f"large-volume limit (lower bound): {f12(rep.lp_lower)}")
    out.say(f"zero-volume limit (marginal price): {f12(rep.davis)}")
    out.csv("volume_curve.csv", ["beta", "average_price", "lp_lower", "davis"],
            [[f12(b), f12(p), f12(rep.lp_lower), f12(rep.davis)]
             for b, p in zip(rep.betas, rep.prices)])
    return EXIT_OK


def _cmd_mubpp(args, out: _Out, tree, pair, endow):
    raw = read_json(args.process)
    if not isinstance(raw, dict):
        raise ParseError("process file must map node ids to values")
    missing = [nid for nid in tree.node_ids if nid not in raw]
    if missing:
        raise ParseError(f"process file missing nodes: {missing[:5]}")
    rows = []   # in file order
    for nid in tree.node_ids:
        try:
            v = np.atleast_1d(np.asarray(raw[nid], dtype=float))
        except (TypeError, ValueError):
            v = np.array([np.nan])
        width = len(rows[0] if rows else v)
        if v.shape != (width,) or not np.all(np.isfinite(v)):
            raise ParseError(f"process value at node {nid!r} is not a number or a "
                             f"list of {width} numbers like the nodes before it")
        rows.append(v)
    sprime = np.empty((len(rows), len(rows[0])))
    sprime[tree._file_pos] = rows   # layout order
    rep = check_mubpp(tree, pair, endow, sprime)
    out.say(f"marginal utility-based price process: {rep.is_mubpp}")
    out.say(f"drift verdict: {rep.drift_verdict} "
            f"(max scaled drift {f12(rep.max_abs_drift)})")
    out.say(f"utility verdict: {rep.utility_verdict} "
            f"(base {f12(rep.base_value)}, augmented "
            f"{f12(rep.augmented_value) if rep.augmented_value is not None else 'inf'})")
    out.say(f"verdicts agree: {rep.agree}")
    out.csv("mubpp_drifts.csv", ["node", "abs_drift"],
            [[nid, f12(d)] for nid, d in rep.node_drifts])
    return EXIT_OK if rep.agree else EXIT_VERIFY


def _cmd_sensitivity(args, out: _Out, tree, pair):
    names = [n.strip() for n in args.endowments.split(",")]
    endows = [_pick_endowment(tree, n) for n in names]
    claim = _pick_claim(tree, args.claim) if args.claim else None
    seq = None
    if args.continuity_steps > 0:
        seq = [endows[0] + 1.0 / n for n in range(1, args.continuity_steps + 1)]
    rep = endowment_sensitivity(tree, pair, endows, sequence=seq, claim=claim)
    out.say("optimal values: " + " ".join(f12(v) for v in rep.values))
    for i, j, margin in rep.monotone_margins:
        out.say(f"monotone {names[i]} <= {names[j]}: margin {f12(margin)}")
    out.say(f"strict monotonicity consistent: {rep.strict_ok}")
    for lam, margin in rep.concavity_margins:
        out.say(f"concavity at lambda={f12(lam)}: margin {f12(margin)}")
    ok = rep.strict_ok and all(m >= -1e-9 for _, m in rep.concavity_margins)
    for entry in rep.continuity:
        out.say(f"continuity: |du| {f12(entry.value_gap)} <= "
                f"r*sup {f12((rep.mass_radius or 0.0) * entry.sup_bound)}"
                f" ({'ok' if entry.dominated else 'VIOLATED'})")
        ok = ok and entry.dominated
    if rep.sandwich is not None:
        lo_slack, hi_slack = rep.sandwich
        out.say(f"recentred-claim sandwich slacks: {f12(lo_slack)}, {f12(hi_slack)}")
        ok = ok and lo_slack >= -1e-9 and hi_slack >= -1e-9
    out.csv("sensitivity.csv", ["check", "value"],
            [["value_" + names[i], f12(v)] for i, v in enumerate(rep.values)]
            + [[f"concavity_{f12(l)}", f12(m)] for l, m in rep.concavity_margins])
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_verify(args, out: _Out, tree, pair, endow):
    results = run_battery(tree, pair, endow)
    failed = 0
    for r in results:
        out.say(f"{r.line()}  [{1e3 * r.seconds:.1f} ms]")
        failed += not r.passed
    out.say(f"{len(results) - failed}/{len(results)} checks passed")
    out.manifest["check_seconds"] = {r.name: r.seconds for r in results}
    out.csv("verify.csv", ["check", "passed", "residual", "tolerance"],
            [[r.name, int(r.passed), f12(r.residual), f12(r.tolerance)]
             for r in results])
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def _cmd_oracle(args, out: _Out, tree, pair, endow):
    rep = check_duality_gap(tree, pair, endow, seed=args.seed)
    out.say(f"regime: {rep.regime}")
    if rep.regime == "OK":
        out.say(f"solver dual:   {f12(rep.solver_dual)}")
        if rep.solver_primal is not None:
            out.say(f"solver primal: {f12(rep.solver_primal)}")
        out.say(f"brute dual:    {f12(rep.brute_dual)} ({rep.dual_mode}, "
                f"polytope dim {rep.polytope_dim})")
        if rep.brute_primal is not None:
            out.say(f"brute primal:  {f12(rep.brute_primal)} "
                    f"(strategy dim {rep.strategy_dim})")
        gaps = [g for g in (rep.gap_solver, rep.gap_brute_dual,
                            rep.gap_brute_primal) if g is not None]
        out.say("max gap: " + f12(max(gaps)))
    out.csv("oracle.csv",
            ["regime", "solver_dual", "solver_primal", "brute_dual",
             "brute_primal"],
            [[rep.regime] + [f12(x) if x is not None else "" for x in
                             (rep.solver_dual, rep.solver_primal,
                              rep.brute_dual, rep.brute_primal)]])
    return EXIT_OK


def _int_from(low):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treedual",
        description="Utility maximization and pricing on scenario trees")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, utility=True, endowment=True):
        p.allow_abbrev = False   # else --endowment would be read as --endowments
        p.add_argument("--market", required=True, help="scenario file (JSON)")
        if utility:
            p.add_argument("--utility", required=True,
                           help="e.g. exp:gamma=1,C=2 or twopower:a=0.5,b=1,C=1")
        if endowment:
            p.add_argument("--endowment", default=None,
                           help="'endowment' (file default), 'zero', or a claim name")
        p.add_argument("--format", choices=("text", "csv", "structured"),
                       default="text")
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("geometry", help="constraints, feasibility, vertices")
    common(p, utility=False, endowment=False)
    p.add_argument("--vertex-cap", type=_int_from(1), default=VERTEX_CAP_DEFAULT)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("solve", help="solve the dual problem")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("recover", help="optimal wealth and strategy")
    common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("price", help="indifference/marginal prices for a claim")
    common(p)
    p.add_argument("--claim", required=True)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("curve", help="volume asymptotics of the average price")
    common(p)
    p.add_argument("--claim", required=True)
    p.add_argument("--betas", default="1e-4:1e4:9",
                   help="log grid as lo:hi:n")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("mubpp", help="marginal utility-based price process check")
    common(p)
    p.add_argument("--process", required=True,
                   help="JSON file: node id -> value (or list of values)")
    p.set_defaults(func=_cmd_mubpp)

    p = sub.add_parser("sensitivity", help="endowment dependence certificates")
    common(p, endowment=False)
    p.add_argument("--endowments", required=True,
                   help="comma-separated names ('endowment', 'zero', claim names)")
    p.add_argument("--claim", default=None)
    p.add_argument("--continuity-steps", type=_int_from(0), default=0)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force certification")
    common(p)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.set_defaults(func=_cmd_oracle)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    out = _Out(args)
    try:
        # the inputs a subcommand declares, in this order; sensitivity picks
        # its endowments, then its optional claim
        tree, inputs = load_market(args.market), []
        if "utility" in args:
            inputs.append(parse_utility_spec(args.utility))
        if "endowment" in args:
            inputs.append(_pick_endowment(tree, args.endowment))
            if "claim" in args:
                inputs.append(_pick_claim(tree, args.claim))
        if out.outdir is not None:
            try:
                out.outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ParseError(f"--output-dir {args.output_dir}: {exc}") from exc
        code = args.func(args, out, tree, *inputs)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TreedualError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    try:
        out.flush()
    except BrokenPipeError:
        # the rest goes to devnull, so the interpreter's exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
