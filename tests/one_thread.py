"""Run a function of a test module in a child process with one BLAS thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_thread_json(module, function, timeout=120):
    """The JSON value of ``module.function()``, run in a child process whose
    BLAS has one thread.

    OpenBLAS splits a large enough product among its threads at columns
    that depend on the product's width, and rounds the columns next to a
    split another way, so a bit-for-bit comparison holds for one BLAS
    thread, as in the benchmark; the child pins it before numpy loads.
    """
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH")])
    )
    code = f"import json\nfrom {module} import {function}\nprint(json.dumps({function}()))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
