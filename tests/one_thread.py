"""Run code of the test modules in child processes with one BLAS thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _one_thread_env():
    """The environment of a child whose BLAS has one thread and which
    imports the package from ``src`` and the test helpers from ``tests``."""
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
    return env


def one_thread_json(module, function, timeout=120):
    """The JSON value of ``module.function()``, run in a child process whose
    BLAS has one thread.

    OpenBLAS splits a large enough product among its threads at columns
    that depend on the product's width, and rounds the columns next to a
    split another way, so a bit-for-bit comparison holds for one BLAS
    thread, as in the benchmark; the child pins it before numpy loads.
    """
    code = f"import json\nfrom {module} import {function}\nprint(json.dumps({function}()))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_one_thread_env(), capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Runs each argument list of argv[1] (JSON) as a Python child and prints the
# peak resident sets in MB (ru_maxrss is in kilobytes on Linux).
_PEAKS = """\
import json, os, subprocess, sys
peaks = []
for args in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    status, usage = os.wait4(child.pid, 0)[1:]
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"{args} exited {os.waitstatus_to_exitcode(status)}")
    peaks.append(usage.ru_maxrss / 1024)
print(json.dumps(peaks))
"""


def one_thread_peak_mb(*commands, timeout=120):
    """The peak resident set in MB of ``python *args`` for each argument
    list of ``commands``, run one after another with one BLAS thread.

    Linux carries a process's peak over its fork and exec, so a child of
    the test process would read at least the test process's size: the
    children are started from a launcher that imports only the standard
    library, far smaller than any of them.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PEAKS, json.dumps(commands)],
        env=_one_thread_env(), capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
