#!/usr/bin/env python3
"""Benchmark of the wfk package: four closed-loop workloads and a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Each run works through a fixed list of operations, sized to take about
``--seconds`` on the baseline host.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs a list of half that size untraced, then again
with the layer functions named in ``TRACED_FUNCTIONS`` wrapped, and
reports per-layer metrics and the tracing overhead (traced minus untraced
scaled time of the same list).

Every timing in the end-to-end metrics is scaled to a nominal host speed:
a fixed reference loop (``host_reference``) is timed before and after
each op and each set-up, and the op's wall time is divided by the mean of
the two readings over ``REF_NOMINAL_S``.  On a shared host the CPU speed
changes by up to 1.8x in phases of seconds to minutes, which no run of a
practical length averages out; the reference loop slows with it, while a
change to the program does not move it.  The unscaled figures and the
speed factors are in the details line.

The last line of standard output is the result object; the line before
it carries the environment stamp and the details behind the figures.
Full results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by every child, so
# that BLAS threading is the same in every run and on every host and does
# not compete with the benchmark's own child processes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# A pass over the plan starts no op after this many times ``--seconds``, so
# that a run of a much slower program still ends in time.
DEADLINE_FACTOR = 2.0
# Duration of one ``host_reference`` reading on the baseline host, in a
# slow phase of its speed.  Any fixed value would do: it only sets the
# speed that scaled timings are quoted at.
REF_NOMINAL_S = 1.0e-3
REF_LOOP = 12000
REF_READINGS = 3
REF_WINDOW = 7
STARTUP_PROBES = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "pass_rate": "ratio",
}

TRACED_FUNCTIONS = (
    "filters.sample_box", "filters.box_to_params", "filters.params_to_box",
    "filters.wavelet_eval", "filters.check_symmetry", "filters.check_paraunitary",
    "filters.subband_filters",
    "realization.realize_wavelet", "realization.eval_realization",
    "realization.impulse_response", "realization.stein_certificate",
    "realization.verify_minimality",
    "linalg.solve_linear", "linalg.elimination_rank",
    "signal.analyze", "signal.synthesize", "signal.circular_convolve",
    "signal.frequency_pr_check",
    "io.load_signal", "io.save_signal", "io.parameters_from_dict",
    "io.realization_from_dict", "io.save_realization", "io.save_parameters",
    "io.save_eval_csv", "io.report_to_dict",
    "cli.main.gen", "cli.main.realize", "cli.main.verify", "cli.main.eval",
    "cli.main.analyze", "cli.main.synthesize",
)
PER_LAYER = {}
for _fn in TRACED_FUNCTIONS:
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
    PER_LAYER[f"{_fn}.errors"] = "count"
PER_LAYER.update({
    "realization.stein_certificate.residual_max": "abs",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
})


def fresh_import():
    """Import ``wfk`` from this checkout's sources, dropping earlier imports."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "wfk" or k.startswith("wfk.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    wfk = importlib.import_module("wfk")
    importlib.import_module("wfk.io")
    importlib.import_module("wfk.cli")
    if not Path(wfk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"wfk imported from {wfk.__file__}, not from {SRC}")
    return wfk


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name(),
        "blas_threads": BLAS_PIN,
        "children_blas_threads": {k: child_env()[k] for k in BLAS_PIN},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


_REF_MATRIX = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def host_reference() -> float:
    """Best of ``REF_READINGS`` timings of a fixed Python loop and matrix
    product.  It uses no ``wfk`` code, so only the host moves it."""
    best = float("inf")
    for _ in range(REF_READINGS):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        _REF_MATRIX @ _REF_MATRIX
        best = min(best, time.perf_counter() - t0)
    return best


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ``TAIL_BEYOND`` samples above it,
    and the percentile it sits at.  Fewer samples than that give the maximum."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def make_plan(slices, seconds: float, smoke: bool):
    """The fixed op list of a run: ``(position, slice index, k)``, in order.

    Each slice runs its ``ops`` count scaled to ``seconds``, at least one
    op (exactly one with ``smoke``).  The ops of each slice are spread
    evenly over the list, so every slice samples the whole run rather
    than one stretch of it: on a shared 2-vCPU host, CPU speed was seen to
    drift by up to 1.8x within tens of seconds.
    """
    scale = seconds / workloads.PLAN_SECONDS
    counts = [1 if smoke else max(1, round(sl.ops * scale)) for sl in slices]
    return sorted(((k + 0.5) / count, i, k)
                  for i, count in enumerate(counts) for k in range(count))


def run_ops(workload, plan, deadline_s: float, tracer=None):
    """Run the plan closed-loop; stop starting ops after ``deadline_s``.

    Returns the per-op records ``(slice index, k, latency, verdict,
    speed)`` and the wall time of the whole loop.  ``speed`` is the median
    of the host-reference readings taken up to ``REF_WINDOW`` ops before
    and after the op, over ``REF_NOMINAL_S``: one reading is too noisy to
    scale an op by, and host phases outlast a few ops.  It is 1 for a
    workload whose ops run in other processes (``host_scaled`` false).
    """
    slices = workload.slices
    records = []
    reading = host_reference if workload.host_scaled else lambda: REF_NOMINAL_S
    readings = [reading()]
    started = time.perf_counter()
    for _, index, k in plan:
        if time.perf_counter() - started > deadline_s:
            break
        records.append(_one_op(index, slices[index], k, tracer, len(records)))
        readings.append(reading())
    wall = time.perf_counter() - started
    return [
        record + (statistics.median(
            readings[max(0, i - REF_WINDOW):i + REF_WINDOW + 2]) / REF_NOMINAL_S,)
        for i, record in enumerate(records)
    ], wall


def _one_op(index, sl, k, tracer, op_id):
    if tracer is not None:
        tracer.op_id = op_id
        tracer.negative_control = sl.negative_control
    t0 = time.perf_counter()
    try:
        product = sl.run(k)
    except Exception as exc:  # a failed op is counted, never fatal
        return index, k, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        verdict = sl.check(product)
    except Exception as exc:
        verdict = f"check raised {type(exc).__name__}: {exc}"
    return index, k, latency, verdict


def setup(name: str, seed: int, workdir: Path, smoke: bool, trace: bool):
    """Import wfk, build the seeded inputs and warm up; repeated, median kept."""
    env = child_env()
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = host_reference()
        t0 = time.perf_counter()
        wfk = fresh_import()
        workload = workloads.make(name, env, trace)
        workload.setup(wfk, seed, workdir, smoke)
        if name == "cli":
            _, seen = workloads.startup_probe(env)
            if seen != BLAS_PIN["OPENBLAS_NUM_THREADS"]:
                raise SystemExit(f"CLI child sees OPENBLAS_NUM_THREADS={seen!r}")
        else:
            first = workload.slices[0]
            first.check(first.run(0))
        wall = time.perf_counter() - t0
        speed = (before + host_reference()) / (2 * REF_NOMINAL_S)
        times.append((wall / speed, wall, speed))
    return wfk, workload, statistics.median(t[0] for t in times), times


def scaled_seconds(records) -> float:
    return sum(r[2] / r[4] for r in records)


def summarize(records, wall):
    """End-to-end figures of a pass.  Latencies are scaled to the nominal
    host speed; ``ops_per_s`` is ops over their summed scaled latency."""
    raw = [r[2] for r in records]
    scaled = [r[2] / r[4] for r in records]
    failures = [r for r in records if r[3] != workloads.OK]
    wrong = [r for r in failures if r[3] != workloads.KNOWN]
    tail_value, tail_pct = tail(scaled)
    per_slice = {}
    for record, latency in zip(records, scaled):
        per_slice.setdefault(record[0], []).append(latency)
    return {
        "per_slice": {str(i): {"ops": len(v), "median_s": statistics.median(v)}
                      for i, v in sorted(per_slice.items())},
        "latency_p50_s": statistics.median(scaled),
        "latency_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "samples": len(scaled),
        "ops_per_s": len(scaled) / scaled_seconds(records),
        "unscaled": {"latency_p50_s": statistics.median(raw),
                     "latency_tail_s": tail(raw)[0],
                     "ops_per_s": len(raw) / wall},
        "speed_factor": {"min": min(r[4] for r in records),
                         "median": statistics.median(r[4] for r in records),
                         "max": max(r[4] for r in records)},
        "attempted": len(records),
        "failed": len(failures),
        "wrong": len(wrong),
        "known_defect": len(failures) - len(wrong),
        "wall_s": wall,
    }


def peak_rss_mb(with_children: bool) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        own += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def per_layer(tracer: Tracer, overhead: float, startup: float) -> dict:
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = tracer.calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = tracer.self_s.get(fn, 0.0)
        metrics[f"{fn}.errors"] = tracer.errors.get(fn, 0)
    for key in ("realization.stein_certificate.residual_max",
                "io.bytes_read", "io.bytes_written"):
        metrics[key] = tracer.gauges.get(key, 0.0)
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = tracer.span_count
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per slice on the smallest rung (self-test)")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"no wfk sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wfk, workload, setup_s, setup_runs = setup(
            args.workload, args.seed, workdir, args.smoke, bool(args.trace))
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "stamp": stamp(), "setup_runs_s": setup_runs,
                "slices": [sl.label for sl in workload.slices]}
        if args.trace:
            metrics, summary, extra = traced(wfk, workload, args)
            info.update(extra)
        else:
            plan = make_plan(workload.slices, args.seconds, args.smoke)
            records, wall = run_ops(workload, plan,
                                    DEADLINE_FACTOR * args.seconds)
            summary = summarize(records, wall)
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(args.workload == "cli"),
                "latency_p50_s": summary["latency_p50_s"],
                "latency_tail_s": summary["latency_tail_s"],
                "ops_per_s": summary["ops_per_s"],
                "pass_rate": 1.0 - summary["failed"] / summary["attempted"],
            }
            info["failures"] = _failure_list(workload, records)
        units = PER_LAYER if args.trace else END_TO_END
        info["summary"] = summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info["result"] = result
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(info, indent=1, default=str) + "\n")
    print(json.dumps({k: info[k] for k in info if k != "result"}, default=str))
    print(json.dumps(result))
    return 0


def _failure_list(workload, records, limit=20):
    return [
        {"slice": workload.slices[i].label, "k": k, "verdict": v}
        for i, k, _, v, _ in records if v != workloads.OK
    ][:limit]


def traced(wfk, workload, args):
    """Run a plan of half the run untraced, then the same ops traced."""
    plan = make_plan(workload.slices, args.seconds / 2, args.smoke)
    records, untraced_wall = run_ops(workload, plan,
                                     DEADLINE_FACTOR * args.seconds / 2)
    plan = plan[:len(records)]
    startups = [workloads.startup_probe(child_env())[0] for _ in range(STARTUP_PROBES)]
    tracer = Tracer()
    tracer.install(wfk, [fn for fn in TRACED_FUNCTIONS if not fn.startswith("cli.main.")]
                   + ["cli.main"])
    try:
        traced_records, traced_wall = run_ops(workload, plan, float("inf"), tracer)
    finally:
        tracer.uninstall()
    summary = summarize(traced_records, traced_wall)
    summary["attempted"] += len(records)
    summary["failed"] += sum(r[3] != workloads.OK for r in records)
    summary["wrong"] += sum(r[3] not in (workloads.OK, workloads.KNOWN) for r in records)
    # Both passes in scaled time, so that a change of host speed between
    # them is not counted as overhead.
    overhead = scaled_seconds(traced_records) - scaled_seconds(records)
    metrics = per_layer(tracer, overhead, statistics.median(startups))
    tracer.save(OUT / f"spans-{args.workload}.npz")
    extra = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "missing_functions": sorted(
            fn for fn in TRACED_FUNCTIONS
            if not fn.startswith("cli.main.") and fn not in tracer.wrapped),
        "failures": _failure_list(workload, traced_records),
    }
    return metrics, summary, extra


if __name__ == "__main__":
    sys.exit(main())
