"""Smoke test of the benchmark harness: one op of each in-process workload.

Runs ``perfbench/run.py --smoke`` in a subprocess, as the benchmark itself
is run, and reads the result object on the last line of its output.  The
``cli`` workload is left out: its single op starts seven processes and
takes several seconds.  The names the harness traces are read from its
source and looked up on ``wfk``.
"""

import argparse
import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import wfk
from wfk.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
# Traced names whose function is gone or no longer called; the benchmark's
# next revision drops them, and no other name may join them.
DEAD_TRACED = {
    "realization.verify_minimality",
    "linalg.solve_linear",
    "linalg.elimination_rank",
    "filters.check_symmetry",
    "filters.check_paraunitary",
    "signal.circular_convolve",
    "signal.frequency_pr_check",
}


def assigned(path, name):
    """The literal assigned to ``name`` at the top level of ``path``, read
    without importing the file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_traced_names_resolve():
    # the tracer skips a name it cannot find without an error, so a renamed
    # function would read 0 in every per-layer metric of its name
    bench = ROOT / "perfbench"
    io_names = assigned(bench / "tracer.py", "_READERS") + assigned(bench / "tracer.py", "_WRITERS")
    names = assigned(bench / "run.py", "TRACED_FUNCTIONS") + tuple(f"io.{n}" for n in io_names)
    commands = next(
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    unresolved = set()
    for name in names:
        layer, attr = name.split(".", 1)
        if name.startswith("cli.main."):
            found = inspect.isfunction(wfk.cli.main) and name[len("cli.main.") :] in commands
        else:
            found = inspect.isfunction(getattr(sys.modules.get(f"wfk.{layer}"), attr, None))
        if not found:
            unresolved.add(name)
    assert unresolved <= DEAD_TRACED, sorted(unresolved - DEAD_TRACED)


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
