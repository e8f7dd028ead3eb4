"""Tests of the package surface and its runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import wfk

SRC = Path(__file__).resolve().parent.parent / "src"


def test_exports_resolve_and_numpy_is_the_only_dependency():
    for name in wfk.__all__:
        assert getattr(wfk, name) is not None, name
    code = (
        "import sys, wfk, wfk.cli, wfk.io, wfk.signal\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'hypothesis', 'pytest'})\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
