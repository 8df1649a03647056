"""tools/abpairs.py end to end: one pair of one workload at the smallest
run length, on two copies of this checkout."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pufstack.puf import photonic

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abpairs.py"


def _copy_checkout(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for tree in ("src", "bench"):
        shutil.copytree(ROOT / tree, dest / tree, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


@pytest.fixture
def checkouts(tmp_path):
    return _copy_checkout(tmp_path / "parent"), _copy_checkout(tmp_path / "change")


def _run(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--pairs", "1",
         "--seed-base", "7", "--workload", "auth-rolling", *extra],
        capture_output=True, text=True, timeout=300)


def test_one_pair_writes_the_skeleton(checkouts, tmp_path):
    out = tmp_path / "BENCH.json"
    proc = _run(*checkouts, "--seconds", "0.001", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "auth-rolling: 1 pairs, seeds 7-7" in proc.stdout
    skeleton = json.loads(out.read_text())
    assert set(skeleton) == {"method", "machine", "workloads"}
    assert "python3 tools/abpairs.py PARENT CHANGE --pairs 1" in skeleton["method"]
    assert {"cpu", "cores", "python", "numpy", "cryptography"} <= set(skeleton["machine"])
    # both copies build and load the kernel this checkout loads
    kernel = photonic.kernel_name()
    assert skeleton["machine"]["photonic_kernel"] == {"parent": kernel, "change": kernel}
    record = skeleton["workloads"]["auth-rolling"]
    assert record["pairs"] == 1 and record["seeds"] == [7]
    assert record["failed"] == {"parent": 0, "change": 0}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(record["as_measured"]) == {"as_measured_ops_per_s", "as_measured_op_p50_ms",
                                          "host_slowdown"}
    slowdown = record["as_measured"]["host_slowdown"]
    assert set(slowdown) == {"unit", "parent", "change"}   # no bound, no gain rule
    for side in ("parent", "change"):
        assert slowdown[side]["median"] > 0
        assert slowdown[side]["quartiles"] == [slowdown[side]["median"]] * 2
    for row in record["end_to_end"].values():
        assert len(row["parent"]["runs"]) == len(row["change"]["runs"]) == 1
        assert row["change_wins"] in ("0/1", "1/1")
        assert row["parent_iqr"] == 0
        assert isinstance(row["bound_holds"], bool)


def _tool():
    spec = importlib.util.spec_from_file_location("abpairs", TOOL)
    abpairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abpairs)
    return abpairs


def test_records_a_side_that_reads_in_numpy(checkouts):
    abpairs = _tool()
    parent, change = checkouts
    (parent / "src" / "pufstack" / "puf" / "_cascade.c").unlink()
    assert abpairs.photonic_kernel(parent, sys.executable) == "numpy"
    assert abpairs.photonic_kernel(change, sys.executable) == photonic.kernel_name()


def test_reads_the_host_slowdown():
    abpairs = _tool()
    line = ("as measured: 29.5000 ops/s, op p50 33.9000 ms; host slowdown 1.1250 "
            "(the metrics below are at reference speed)")
    assert abpairs.AS_MEASURED.search(line).groups() == ("29.5000", "33.9000", "1.1250")
    # a line without the slowdown still gives the as-measured metrics
    assert abpairs.AS_MEASURED.search(line[:line.index(";")]).group(3) is None
    sides = abpairs.spread([1.0, 1.2, 1.1, 1.4], [1.3, 1.0, 1.0, 1.1])
    assert sides["parent"] == {"median": 1.15, "quartiles": [1.075, 1.25],
                               "runs": [1.0, 1.2, 1.1, 1.4]}
    assert sides["change"]["median"] == 1.05


def test_refuses_two_benchmarks(checkouts):
    parent, change = checkouts
    with open(change / "bench" / "workloads.py", "a") as f:
        f.write("\n")
    proc = _run(parent, change)
    assert proc.returncode != 0
    assert "workloads.py" in proc.stderr
