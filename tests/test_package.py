"""Tests of the package surface and its runtime dependencies."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wfk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


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


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs(block):
    # each example runs as a reader would paste it, in a fresh namespace
    code = README_BLOCKS[block]
    exec(compile(code, f"README.md python block {block}", "exec"), {"__name__": "__readme__"})


def test_readme_has_python_blocks():
    assert README_BLOCKS
