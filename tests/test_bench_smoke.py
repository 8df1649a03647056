"""Runs the benchmark's smoke mode: one round of every workload, untraced
and traced, with every output check on. The checks compare the program's
outputs with independent references (pairwise Hamming loops, single-row
reads, the attestation chain rebuilt from its docstring), so this fails
when a package change breaks what the benchmark relies on."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
