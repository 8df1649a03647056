"""Alternating-pair A/B runs of the benchmark on two checkouts.

    python3 tools/abpairs.py PARENT CHANGE --pairs 10 --seed-base 2801 \\
        --workload key-service [--workload ...] [--seconds 25] [--out BENCH_<pr>.json]

PARENT and CHANGE are checkout directories, each with its own ``src/`` and
``bench/``. The two ``bench/`` trees must be identical, so that both sides
run one benchmark; the tool refuses to run otherwise and writes into
neither checkout. ``BENCHMARK.json`` is read from CHANGE: its command, its
workloads (the default when no ``--workload`` is given), its run length
(the default ``--seconds``) and the bound of each end-to-end metric.

Pair i runs every workload in turn with seed ``seed-base + i`` on both
sides, one run at a time, the parent first in even pairs and the change
first in odd pairs. Each run is the benchmark's untraced command; the tool
reads the last JSON line of its output and the "as measured" line, which
also gives the run's host slowdown (the benchmark's reference kernel time
over its nominal time). The
environment passes through unchanged, so a control such as pinned glibc
malloc thresholds is a prefix on this command
(``MALLOC_MMAP_THRESHOLD_=33554432 python3 tools/abpairs.py ...``) and is
recorded in the method.

For each workload and metric it prints both sides' medians and quartiles,
the pairs the change won (ties count for neither side), the median gap,
the parent's IQR, whether the ``BENCHMARK.json`` bound holds, and whether
the gain rule holds: at least 9/10 of the pairs won and a median gap in the
better direction larger than the parent's IQR. The host slowdown is
reported beside the as-measured metrics with both sides' medians and
quartiles only, no bound and no gain rule: it tells a swing of the host
from a change of the code. Quartiles are the
inclusive (linearly interpolated) ones of ``statistics.quantiles``.
``--out`` writes the ``BENCH_<pr>.json`` skeleton: ``method``, ``machine``
and ``workloads``; the author adds ``what`` and ``claim``.

Before the first pair the tool imports ``pufstack.puf.photonic`` once in
each checkout, with the benchmark's interpreter, which also builds a
compiled read kernel before any run is timed. ``machine`` records the kernel
each side loaded, "compiled" or "numpy" (a checkout without the kernel reads
"numpy"), so a side that fell back to numpy shows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

GAIN_SHARE = 0.9        # share of the pairs a claimed gain must win
AS_MEASURED = re.compile(r"^as measured: ([0-9.]+) ops/s, op p50 ([0-9.]+) ms"
                         r"(?:; host slowdown ([0-9.]+))?", re.M)
RAW_METRICS = {"as_measured_ops_per_s": ("1/s", "higher"),
               "as_measured_op_p50_ms": ("ms", "lower")}
SLOWDOWN = "host_slowdown"
KERNEL_PROBE = ("import sys; sys.path.insert(0, 'src'); from pufstack.puf import photonic; "
                "print(getattr(photonic, 'kernel_name', lambda: 'numpy')())")


def bench_digest(checkout: Path) -> dict[str, str]:
    """SHA-256 of every file under ``bench/``, bytecode caches left out."""
    bench = checkout / "bench"
    return {str(p.relative_to(bench)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(bench.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run: its metrics, as measured too, and its
    attempted and failed op counts."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(args)} in {checkout} exited {proc.returncode}\n"
                 + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    raw = AS_MEASURED.search(proc.stdout)
    if raw:
        metrics["as_measured_ops_per_s"] = float(raw.group(1))
        metrics["as_measured_op_p50_ms"] = float(raw.group(2))
        if raw.group(3):
            metrics[SLOWDOWN] = float(raw.group(3))
    return {"metrics": metrics, "attempted": result["attempted"],
            "failed": result["failed"]}


def photonic_kernel(checkout: Path, python: str) -> str:
    """The photonic read kernel that ``checkout`` loads, from one import."""
    proc = subprocess.run([python, "-c", KERNEL_PROBE], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: importing pufstack.puf.photonic in {checkout} exited "
                 f"{proc.returncode}\n" + proc.stderr[-2000:])
    return proc.stdout.strip()


def quartiles(runs: list[float]) -> tuple[float, float]:
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def spread(parent: list[float], change: list[float]) -> dict:
    """Both sides' medians, quartiles and runs of one metric."""
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(runs)
        sides[side] = {"median": round(statistics.median(runs), 4),
                       "quartiles": [round(q1, 4), round(q3, 4)],
                       "runs": [round(v, 4) for v in runs]}
    return sides


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None) -> dict:
    """One metric over the pairs; ``bound`` is None for a metric without
    one."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    row = {
        "better": better,
        "change_wins": f"{wins}/{len(parent)}",
        "median_change_rel": round(c_med / p_med - 1, 4),
        "parent_iqr": round(p_q3 - p_q1, 4),
        "gain_rule_met": wins >= GAIN_SHARE * len(parent) and gain > p_q3 - p_q1,
        **spread(parent, change),
    }
    if bound is not None:
        row["bound"] = bound
        row["bound_holds"] = -gain <= bound * p_med
    return row


def machine(kernels: dict[str, str]) -> dict:
    cpu = platform.processor()
    try:
        model = re.search(r"^model name\s*:\s*(.+)$",
                          Path("/proc/cpuinfo").read_text(), re.M)
        cpu = model.group(1) if model else cpu
    except OSError:
        pass
    info = {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "photonic_kernel": kernels}
    for package in ("numpy", "cryptography"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    return info


def method(args, seeds: list[int], argv: list[str]) -> str:
    env = " ".join(f"{k}={shlex.quote(v)}" for k, v in sorted(os.environ.items())
                   if k.startswith("MALLOC_"))
    words = ["PARENT" if a == args.parent else "CHANGE" if a == args.change else a
             for a in argv]
    command = " ".join(filter(None, [env, "python3 tools/abpairs.py",
                                     " ".join(shlex.quote(w) for w in words)]))
    return (f"alternating parent/change pairs, one run at a time, same seed on both "
            f"sides, each side from its own checkout of one bench/; each pair runs "
            f"the workloads in turn, the parent first in even pairs and the change "
            f"first in odd pairs; {args.seconds:g} s runs; seeds {seeds[0]}-{seeds[-1]}"
            f"; command: {command}")


def report(name: str, record: dict) -> None:
    print(f"\n{name}: {record['pairs']} pairs, seeds {record['seeds'][0]}-"
          f"{record['seeds'][-1]}; failed {record['failed']['parent']}/"
          f"{record['attempted']['parent']} parent, {record['failed']['change']}/"
          f"{record['attempted']['change']} change")
    print(f"  {'metric':<22} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'wins':>6} {'gap':>8} {'parent IQR':>11}  bound  gain rule")
    for metric, row in {**record["end_to_end"], **record["as_measured"]}.items():
        p, c = row["parent"], row["change"]
        line = (f"  {metric:<22} {p['median']:>12.4f} [{p['quartiles'][0]:.4f}, "
                f"{p['quartiles'][1]:.4f}] {c['median']:>12.4f} [{c['quartiles'][0]:.4f}, "
                f"{c['quartiles'][1]:.4f}]")
        if "change_wins" in row:
            bound = ("-" if "bound" not in row
                     else f"{'holds' if row['bound_holds'] else 'FAILS'}")
            line += (f" {row['change_wins']:>6} {100 * row['median_change_rel']:>+7.1f}% "
                     f"{row['parent_iqr']:>11.4f}  {bound:<6} "
                     f"{'met' if row['gain_rule_met'] else 'not met'}")
        print(line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="a workload to run (repeatable); default: every one")
    parser.add_argument("--seconds", type=float,
                        help="run length; default: BENCHMARK.json's run_seconds")
    parser.add_argument("--out", type=Path, help="where to write the BENCH json skeleton")
    args = parser.parse_args(argv)
    parent, change = Path(args.parent), Path(args.change)
    spec = json.loads((change / "BENCHMARK.json").read_text())
    args.seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    if args.pairs < 1 or args.seed_base < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --seed-base >= 0 and --seconds > 0")
    if any(w not in known for w in workloads):
        parser.error(f"--workload must be among {known}")
    theirs, ours = bench_digest(parent), bench_digest(change)
    if theirs != ours:
        differ = sorted(f for f in theirs.keys() | ours.keys()
                        if theirs.get(f) != ours.get(f))
        sys.exit(f"error: the two bench/ trees differ ({', '.join(differ)}); "
                 "both sides must run one benchmark")

    kernels = {side: photonic_kernel(checkout, spec["command"][0])
               for side, checkout in (("parent", parent), ("change", change))}
    print(f"photonic kernel: parent {kernels['parent']}, change {kernels['change']}",
          file=sys.stderr)
    seeds = [args.seed_base + i for i in range(args.pairs)]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = (("parent", parent), ("change", change))
        for w in workloads:
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                runs[w][side].append(run_once(checkout, spec["command"], w, seed,
                                              args.seconds))
            print(f"pair {i + 1}/{args.pairs} {w}: done", file=sys.stderr)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records = {}
    for w in workloads:
        sides = runs[w]
        record = {
            "pairs": args.pairs, "seeds": seeds,
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in sides},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in sides},
            "end_to_end": {}, "as_measured": {},
        }
        for name, m in bounds.items():
            record["end_to_end"][name] = {"unit": m["unit"], **compare(
                *([r["metrics"][name] for r in sides[s]] for s in ("parent", "change")),
                m["better"], m["bound"])}
        for name, (unit, better) in RAW_METRICS.items():
            if all(name in r["metrics"] for s in sides for r in sides[s]):
                record["as_measured"][name] = {"unit": unit, **compare(
                    *([r["metrics"][name] for r in sides[s]] for s in ("parent", "change")),
                    better, None)}
        if all(SLOWDOWN in r["metrics"] for s in sides for r in sides[s]):
            record["as_measured"][SLOWDOWN] = {"unit": "x", **spread(
                *([r["metrics"][SLOWDOWN] for r in sides[s]] for s in ("parent", "change")))}
        records[w] = record
        report(w, record)

    if args.out:
        skeleton = {"method": method(args, seeds, argv), "machine": machine(kernels),
                    "workloads": records}
        args.out.write_text(json.dumps(skeleton, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
