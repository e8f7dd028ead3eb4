#!/usr/bin/env python3
"""Self-test of the benchmark: the smallest rung of each workload, once.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --smoke`` with
tracing off and on, and checks that the last output line is a result
object whose outputs are correct and whose metric names and units are
exactly the ``end_to_end`` (tracing off) or ``per_layer`` (tracing on)
metrics of ``BENCHMARK.json``.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, expected: dict) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    where = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(k for k in set(printed) & set(expected) if printed[k] != expected[k])
        problems.append(f"{where}: missing {missing}, extra {extra}, unit mismatch {units}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, expected[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
