"""Benchmark of fsothz's closed forms and Monte Carlo, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process and one thread drive fsothz's public functions; the
BLAS pools are pinned to one thread before numpy loads.

``--trace 0`` repeats whole rounds of the workload until ``--seconds`` have
passed, checks every output, and prints the end-to-end metrics.  ``--trace 1``
runs round 0 untraced and then traced, and prints the per-layer metrics;
the trace tables go to ``perfbench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every workload to seconds for the benchmark's own test.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("high_snr_sweep", "low_snr_sweep", "mc_estimators")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10


def _setup(name: str, smoke: bool):
    """Import the program, build the workload's inputs and warm up.

    Returns (workload, seconds).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fsothz
    if Path(fsothz.__file__).resolve().parent != SRC / "fsothz":
        raise ImportError(f"fsothz was imported from {fsothz.__file__}, "
                          f"not from {SRC}")
    import workloads
    workload = workloads.make(name, smoke)
    workload.warm_up()
    return workload, time.perf_counter() - start


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _run_round(ops):
    """Run each op once; returns (seconds per op, results, errors, wall)."""
    times, results, errors = [], {}, {}
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            results[i] = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
    return times, results, errors, clock() - start


def _tail_percentile(ops_per_round: int) -> int:
    """Highest whole percentile with at least ten operations beyond it."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / ops_per_round))


def _check(workload, ops, results, errors) -> dict:
    import checks
    failed = {i: [msg] for i, msg in errors.items()}
    for i, reasons in checks.check_round(workload, ops, results).items():
        failed.setdefault(i, []).extend(reasons)
    return failed


def _report_failures(failed: dict, ops) -> None:
    for i in sorted(failed):
        for reason in failed[i]:
            print(f"FAILED {ops[i].label}: {reason}", file=sys.stderr)


def _timed(args, workload):
    """Whole rounds until --seconds have passed, then the checks.

    The timing metrics are those of the fastest round: on a shared box the
    same round runs up to 1.5x slower while other load holds the cores,
    and the fastest round is the one least slowed.
    """
    rounds, walls = [], []
    while not rounds or not (args.smoke or sum(walls) >= args.seconds):
        ops = workload.round_ops(args.seed, len(rounds))
        op_times, results, errors, wall = _run_round(ops)
        rounds.append((ops, results, errors, op_times))
        walls.append(wall)
        # results kept for the checks are not the program's garbage
        gc.collect()
        gc.freeze()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = 0, []
    for ops, results, errors, _ in rounds:
        round_failed = _check(workload, ops, results, errors)
        _report_failures(round_failed, ops)
        failed.extend(ops[i] for i in round_failed)
        attempted += len(ops)
    fastest = min(range(len(rounds)), key=walls.__getitem__)
    ms = [1e3 * t for t in rounds[fastest][3]]
    p_tail = _tail_percentile(len(ms))
    metrics = {
        "wall_s": (walls[fastest], "s"),
        "ops_per_s": (len(ms) / walls[fastest], "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (_percentile(ms, p_tail), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"# {args.workload}: {len(rounds)} round(s) of {len(ms)} ops, "
          f"walls {' '.join(f'{w:.3f}' for w in walls)} s, "
          f"op_ms.tail = p{p_tail}", file=sys.stderr)
    return attempted, failed, metrics


def _percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(values, pct))


def _traced(args, workload):
    import tracing
    ops = workload.round_ops(args.seed, 0)
    _, results, errors, untraced_wall = _run_round(ops)
    failed = _check(workload, ops, results, errors)

    traced_ops = workload.round_ops(args.seed, 0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, traced_results, _, traced_wall = _run_round(traced_ops)
    finally:
        tracer.restore()
    for i, result in results.items():
        if traced_results.get(i) != result:
            failed.setdefault(i, []).append("traced run gave another result")
    _report_failures(failed, ops)

    metrics = tracing.layer_metrics(tracer)
    metrics["metrics_analytic.tail_quadrature.ops"] = (sum(
        any("tail-quadrature" in row.flags for row in result.rows)
        for result in results.values() if hasattr(result, "rows")), "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    _write_trace(args, tracer, metrics, untraced_wall, traced_wall)
    return len(ops), [ops[i] for i in failed], metrics


def _write_trace(args, tracer, metrics, untraced_wall, traced_wall) -> None:
    spans = sorted(tracer.calls, key=lambda n: -tracer.self_s[n])
    doc = {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [{"name": n, "calls": tracer.calls[n],
                   "total_ms": 1e3 * tracer.total_s[n],
                   "self_ms": 1e3 * tracer.self_s[n]} for n in spans],
        "self_ms_by_path": [{"path": " > ".join(p), "self_ms": 1e3 * s}
                            for p, s in tracer.top_paths(25)],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    all_self = sum(tracer.self_s.values())
    print(f"# self time by span ({path.relative_to(ROOT)})", file=sys.stderr)
    for n in spans[:12]:
        print(f"#  {100 * tracer.self_s[n] / all_self:5.1f}%  "
              f"{1e3 * tracer.self_s[n]:10.1f} ms  {tracer.calls[n]:8d}  {n}",
              file=sys.stderr)
    print("# self time by call path, last four spans", file=sys.stderr)
    for p, s in tracer.top_paths(5):
        print(f"#  {100 * s / all_self:5.1f}%  {' > '.join(p[-4:])}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few seconds")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fsothz" / "__init__.py").is_file():
        print(f"fsothz sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        _, seconds = _setup(args.workload, smoke=False)
        print(json.dumps({"setup_s": seconds}))
        return 0

    samples = []
    if not (args.trace or args.smoke):
        samples = [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    workload, seconds = _setup(args.workload, args.smoke)
    samples.append(seconds)

    if args.trace:
        attempted, failed, metrics = _traced(args, workload)
    else:
        attempted, failed, metrics = _timed(args, workload)
        metrics = {"setup_s": (statistics.median(samples), "s"), **metrics}
    # a failure other than the known fault kept in the workload is wrong output
    result = {
        "correct": all(op.known_fault for op in failed),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
