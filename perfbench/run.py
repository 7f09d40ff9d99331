"""Benchmark of the ``treedual`` package: one workload per run, one client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload quote|book|verify --seed N \\
        --seconds S --trace 0|1

The workload runs in this process as a closed loop with one client: the next
operation starts when the previous one has finished.  A run is made of whole
passes over the workload's cells (see ``workloads.py``), as many as took
``--seconds`` when the benchmark was defined, so every run sees the same
mix.  Each operation has a deadline, enforced with an interval timer; an
operation that misses it is failed and recorded at the time it was stopped.
Times are scaled to a reference machine speed (see ``CAL_REF_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
operation untraced and then traced, checks that both give identical outputs,
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
outcome of each kind and the run's metadata.  A fuller record (one entry per
operation, metadata) is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the operations work on matrices of at most a few hundred rows; one BLAS
# thread keeps runs steady on a shared machine (recorded in the metadata)
BLAS_PINNED = {v: "1" for v in BLAS_VARS if v not in os.environ}
os.environ.update(BLAS_PINNED)
SETUP_REPEATS = 3  # set-ups per run (this process and two fresh ones)
# Timings are scaled to a reference machine speed: the calibration kernel
# below took CAL_REF_S on the machine the benchmark was defined on (x86_64,
# 2 vCPUs).  A shared machine's speed drifts by +-30% over tens of seconds;
# the kernel, run before every operation, drifts with it.
CAL_REF_S = 2.5e-3
CAL_WINDOW = 3  # calibration samples in the rolling median


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no
    ``except Exception`` inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def calibration_s():
    """Seconds taken by a fixed kernel of Python arithmetic and small dense
    solves, the mix the package spends its time in."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40))
    m = m @ m.T + 40.0 * np.eye(40)
    b = rng.standard_normal(40)
    x = 0.0
    for i in range(20_000):
        x = x * 0.999 + (i & 7)
    for _ in range(60):
        np.linalg.solve(m, b)
        np.exp(b).sum()
    return time.perf_counter() - t0


def speed_scale(samples):
    """Factor that converts a time measured now to reference-speed time."""
    return CAL_REF_S / statistics.median(samples)


def import_package():
    """Import ``treedual`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "treedual" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'treedual'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import treedual
    if Path(treedual.__file__).resolve().parent != (src / "treedual").resolve():
        sys.exit(f"perfbench: imported treedual from {treedual.__file__}, not {src}")
    return treedual


def prepare_pass(td, wl, seed, pass_index, workdir):
    """Generate one pass of inputs and warm up for it; returns the cases."""
    import workloads

    cases = wl.build(td, seed, pass_index, workdir)
    for c in cases:
        c.pair = workloads.make_pair(td, c.util)
    wl.warm(td, cases)
    return cases


def set_up(workload_name, seed, workdir):
    """Import the package and prepare the first pass; returns (td, wl, cases)."""
    import workloads

    td = import_package()
    wl = workloads.WORKLOADS[workload_name]
    return td, wl, prepare_pass(td, wl, seed, 0, workdir)


def run_op(td, wl, case, pair):
    """Execute one operation under the deadline; (outcome, latency s, output)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
    t0 = time.perf_counter()
    try:
        out = wl.execute(td, case, pair)
        outcome = "ok"
    except DeadlineExceeded:
        out, outcome = None, "deadline"
    except td.TreedualError as exc:
        out, outcome = None, f"error:{exc.code}"
    except Exception as exc:  # untyped failures are outcomes to count, not crashes
        out, outcome = None, f"error:{type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    return outcome, latency, out


def classify(wl, case, outcome, out):
    """Final outcome of an operation: its own, or ``wrong:<check>`` /
    ``unchecked:<error>`` when a returned output fails or escapes the checks."""
    if outcome != "ok":
        return outcome
    try:
        reason = wl.check(case, out)
    except Exception as exc:  # a reference solver failed: the output is unverified
        return f"unchecked:{type(exc).__name__}"
    return "ok" if reason is None else f"wrong:{reason}"


def metadata():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads_set_by_benchmark": sorted(BLAS_PINNED),
    }


def setup_in_fresh_process(workload_name, seed):
    """Set-up time of a fresh interpreter (same inputs), in seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(td, wl, cases, seconds, seed, workdir, tracer=None):
    """Run the whole passes that took ``seconds`` when the benchmark was
    defined (at reference speed); returns the per-operation records.

    A fixed number of passes gives every run the same mix and sample count.
    ``cases`` is the first pass; later passes get fresh inputs, generated
    and warmed before the pass starts (outside the timed operations).
    """
    records = []
    cal = collections.deque(maxlen=CAL_WINDOW)
    passes = max(1, round(seconds / wl.pass_s))
    if tracer is not None:
        passes = max(1, passes // 2)  # every operation runs twice
    for pass_index in range(passes):
        if pass_index:
            cases = prepare_pass(td, wl, seed, pass_index, workdir)
        for case in cases:
            cal.append(calibration_s())
            outcome, latency, out = run_op(td, wl, case, case.pair)
            # a missed deadline is a wall-clock time set by the benchmark,
            # not the program's speed: it is not scaled
            scaled = latency if outcome == "deadline" else latency * speed_scale(cal)
            rec = {"cell": case.cell, "latency_s": latency, "scaled_latency_s": scaled,
                   "outcome": classify(wl, case, outcome, out)}
            if tracer is not None:
                rec.update(tracer.traced_op(case, outcome, latency, out))
            elif wl.name == "verify" and out is not None:
                rec["failed_checks"] = wl.failed_checks(out)
            records.append(rec)
    return records


def deciles(values):
    """p10 .. p90 by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")


def end_to_end(records, setups):
    lat_ms = [r["scaled_latency_s"] * 1e3 for r in records]
    ok = sum(1 for r in records if r["outcome"] == "ok")
    q = deciles(lat_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (q[4], "ms"),
        "op_ms.p90": (q[8], "ms"),
        # completed (ok) operations per second of time spent in operations
        "ops_per_s": (ok / (sum(lat_ms) / 1e3), "1/s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("quote", "book", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time in seconds and exit")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_package()  # fails before anything is written in an incomplete checkout
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        td, wl, cases = set_up(args.workload, args.seed, workdir)
        setup_raw_s = time.perf_counter() - T_START
        setup_s = setup_raw_s * speed_scale([calibration_s() for _ in range(5)])
        if args.setup_only:
            print(repr(setup_s))
            return 0
        tracer = None
        if args.trace:
            from layers import LayerRun
            tracer = LayerRun(td, wl, run_op)
        records = measure(td, wl, cases, args.seconds, args.seed, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["outcome"] != "ok")
    unchecked = sum(1 for r in records if r["outcome"].startswith("unchecked:"))
    kinds = {}
    for r in records:
        kinds[r["outcome"]] = kinds.get(r["outcome"], 0) + 1
    if args.trace:
        metrics = tracer.metrics()
        mismatches = tracer.mismatches
        tracer.tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(records, setups)
        mismatches = 0
    meta = metadata()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  operations {len(records)}  "
          f"deadline {wl.deadline_s} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {failed / len(records):14.6g} ratio  "
          f"({failed} of {len(records)})")
    if not args.trace:
        raw = deciles([r["latency_s"] * 1e3 for r in records])
        print(f"  unscaled: setup_s {setup_raw_s:.6g} s, op_ms.p50 {raw[4]:.6g} ms, "
              f"op_ms.p90 {raw[8]:.6g} ms")
    for kind, n in sorted(kinds.items()):
        print(f"  outcome {kind:36s} {n:6d}")
    if args.trace:
        print(f"  traced/untraced output mismatches {mismatches}")
    print("  meta " + json.dumps(meta, sort_keys=True))

    # wrong outputs are failed operations (and lower ok_ratio); ``correct``
    # says whether every output could be checked and tracing changed nothing
    result = {"correct": unchecked == 0 and mismatches == 0,
              "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, deadline_s=wl.deadline_s, outcomes=kinds,
                  meta=meta, operations=records)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
