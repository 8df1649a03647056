"""Benchmark of pufstack's security services, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload auth-rolling --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload key-service --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --report     # table of the latest traced runs
    python3 bench/run.py --smoke      # every workload for one round, all checks

Each workload runs as a closed loop: one process, one client, one operation
at a time. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half traced, prints the tracing overhead and the
per-layer metrics, and writes the spans under ``.bench_out/``. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. See bench/README.md.
"""

import os

# One BLAS/OpenMP thread: one client does one operation at a time, and a
# thread pool would only add scheduling noise on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11           # set-ups per run; setup_s is their median
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10              # samples a reported tail percentile needs beyond it


def _load_program():
    """Put the checkout's own sources first on the path, or stop."""
    if not (SRC / "pufstack" / "__init__.py").is_file():
        sys.exit(f"error: pufstack sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    return workloads, tracing


def run_ops(workload, speed, seconds: float, tracer=None):
    """Closed loop of whole rounds, at least one, until ``seconds`` have
    passed; ``speed`` samples the host after each op.

    Returns (op durations in seconds, host slowdown around each op, failure
    reasons).
    """
    durations, slowdowns, failures = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % workload.round or time.perf_counter() < deadline:
        if i % workload.round == 0:
            gc.collect()    # a full collection at a fixed point of every round
        staged = workload.prepare(i)
        root = tracer.begin(i, workload.root) if tracer else None
        start = time.perf_counter()
        try:
            result = workload.op(i, staged)
            error = None
        except Exception:
            error = traceback.format_exc()
        end = time.perf_counter()
        if tracer:
            tracer.end(root)
        durations.append(end - start)
        slowdowns.append(speed.sample(end - start))
        if error is None:
            try:
                error = workload.check(i, staged, result)
            except Exception:
                error = traceback.format_exc()
            result = None
        if error is not None:
            failures.append(f"op {i}: {error}")
        i += 1
    return durations, slowdowns, failures


def timed_setups(workload) -> list[float]:
    """Set-up times at reference host speed. Set-up is fabrication,
    enrolment and input generation, so the compute kernel judges it."""
    speed = hostspeed.HostSpeed("compute")
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        duration = time.perf_counter() - start
        times.append(duration / speed.sample(duration))
    return times


def tail(durations) -> str:
    n = len(durations)
    ordered = sorted(durations)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_BEYOND:
            return (f"op_p{p:g}_ms = {1e3 * ordered[rank - 1]:.4f} ms "
                    f"({n} ops, {n - rank} beyond; not gated)")
    return f"no tail percentile: {n} ops leave fewer than {MIN_BEYOND} beyond p90"


def report_failures(failures) -> None:
    for reason in failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failures", file=sys.stderr)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def untraced(workloads, name: str, seed: int, seconds: float) -> None:
    workload = workloads.WORKLOADS[name](seed)
    setups = timed_setups(workload)
    speed = hostspeed.HostSpeed(workload.reference)
    durations, slowdowns, failures = run_ops(workload, speed, seconds)
    report_failures(failures)
    print(f"{name}: seed {seed}, {len(durations)} ops, {len(failures)} failed")
    print(f"as measured: {len(durations) / sum(durations):.4f} ops/s, op p50 "
          f"{1e3 * statistics.median(durations):.4f} ms; host slowdown "
          f"{speed.slowdown():.4f} (the metrics below are at reference speed)")
    scaled = [d / f for d, f in zip(durations, slowdowns)]
    print(tail(scaled))
    emit(not failures, len(durations), len(failures), {
        "ops_per_s": len(durations) * speed.slowdown() / sum(durations),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, END_TO_END_UNITS)


def traced(workloads, tracing, name: str, seed: int, seconds: float) -> dict:
    """Half the run untraced, then set-up and half the run traced.

    Returns the summary written to .bench_out/trace-<name>.json.
    """
    workload = workloads.WORKLOADS[name](seed)
    timed_setups(workload)
    plain_speed = hostspeed.HostSpeed(workload.reference)
    plain, plain_slow, failures = run_ops(workload, plain_speed, seconds / 2)
    setup_speed = hostspeed.HostSpeed("compute")
    traced_speed = hostspeed.HostSpeed(workload.reference)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin("setup", "bench.setup")
        start = time.perf_counter()
        workload.setup()
        tracer.end(root)
        setup_speed.sample(time.perf_counter() - start)
        spanned, spanned_slow, traced_failures = run_ops(workload, traced_speed,
                                                         seconds / 2, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    summary = tracing.summarize(tracer, setup_speed.slowdown(), traced_speed.slowdown())
    summary.update(workload=name, seed=seed,
                   attempted=len(plain) + len(spanned), failed=len(failures),
                   untraced_p50_ms=1e3 * statistics.median(
                       d / f for d, f in zip(plain, plain_slow)),
                   traced_p50_ms=1e3 * statistics.median(
                       d / f for d, f in zip(spanned, spanned_slow)))
    summary["overhead"] = summary["traced_p50_ms"] / summary["untraced_p50_ms"] - 1
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}.jsonl")
    (OUT / f"trace-{name}.json").write_text(json.dumps(summary, indent=1) + "\n")
    report_failures(failures)
    print(f"{name}: seed {seed}, {len(plain)} untraced + {len(spanned)} traced ops, "
          f"{len(failures)} failed")
    print(f"trace overhead: op p50 {summary['untraced_p50_ms']:.4f} ms untraced, "
          f"{summary['traced_p50_ms']:.4f} ms traced ({100 * summary['overhead']:+.1f}%)")
    print("self time per layer (ms per op, share of op time):")
    for layer, row in summary["layer_self"].items():
        print(f"  {layer:<18} {row['ms_per_op']:10.4f}  {100 * row['share']:5.1f}%")
    return summary


def print_report(tracing) -> int:
    """Per-layer metrics of the latest traced run of each workload."""
    summaries = [json.loads(p.read_text()) for p in sorted(OUT.glob("trace-*.json"))]
    if not summaries:
        print(f"no traced runs under {OUT}; run with --trace 1 first", file=sys.stderr)
        return 1
    names = [s["workload"] for s in summaries]
    print(f"{'metric':<28}{'unit':<7}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in tracing.UNITS.items():
        print(f"{metric:<28}{unit:<7}"
              + "".join(f"{s['metrics'][metric]:>18.4f}" for s in summaries))
    print(f"{'trace overhead (op p50)':<35}"
          + "".join(f"{100 * s['overhead']:>17.1f}%" for s in summaries))
    print("self time per layer, ms per op:")
    for layer in tracing.LAYERS:
        print(f"  {layer:<33}" + "".join(
            f"{s['layer_self'].get(layer, {}).get('ms_per_op', 0.0):>18.4f}"
            for s in summaries))
    return 0


def smoke(workloads, tracing) -> int:
    """One round of every workload, untraced then traced, all checks on."""
    ok = True
    for name in workloads.WORKLOADS:
        summary = traced(workloads, tracing, name, seed=0, seconds=0)
        values = summary["metrics"].values()
        if summary["failed"] or not all(math.isfinite(v) for v in values):
            ok = False
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--report", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workloads, tracing = _load_program()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.smoke:
        return smoke(workloads, tracing)
    if args.report:
        return print_report(tracing)
    if args.trace:
        summary = traced(workloads, tracing, args.workload, args.seed, args.seconds)
        emit(summary["failed"] == 0, summary["attempted"], summary["failed"],
             summary["metrics"], tracing.UNITS)
    else:
        untraced(workloads, args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
