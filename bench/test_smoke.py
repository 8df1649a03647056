"""Smoke test of the benchmark command: one round of every workload, untraced
and traced, with every output check on.

Not part of the repository's test suite (pytest collects ``tests/`` only).
Run it from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_passes_every_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
    for name in ("auth-rolling", "attest-walk", "population-batch", "key-service"):
        assert re.search(rf"^{name}: seed 0, .* ops, 0 failed$", proc.stdout, re.M)


def test_result_line_has_the_documented_keys():
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "key-service",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % 8 == 0
    assert set(result["metrics"]) == {"ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "auth-rolling", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
