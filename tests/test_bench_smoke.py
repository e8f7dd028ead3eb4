"""Smoke test of the benchmark harness: one op of each in-process workload.

Runs ``perfbench/run.py --smoke`` in a subprocess, as the benchmark itself
is run, and reads the result object on the last line of its output.  The
``cli`` workload is left out: its single op starts seven processes and
takes several seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["subband", "certify", "sweep"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
