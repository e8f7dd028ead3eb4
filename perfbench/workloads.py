"""The four closed-loop workloads of the wfk benchmark.

A workload is a list of slices.  A slice is one kind of operation on one
rung ``(n, m, rho)`` of the size ladder, with a fixed number of operations
per run.  Fixed counts keep the mix of rungs, and so every end-to-end
figure, the same from run to run, whatever the seed; and they make a
rung's weight in ``ops_per_s`` its share of the run's time, so a slower
rung slows the whole run by that share.

Operation ``k`` of a slice is deterministic in ``(seed, k)``, so a traced
run can replay exactly the operations of an untraced one.  An operation
returns its product; ``check`` then returns one of ``OK``, ``KNOWN`` (a
documented defect of the program, below) or a message naming what is
wrong.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OK = "ok"
# Two defects of the program are known.  An op that shows one counts as
# failed but does not mark the run incorrect; any other failure does.
#  * ``wfk verify`` wrongly fails valid filters at n=12, m=16, rho=0.999:
#    the absolute Stein residuals exceed their gates although the filter
#    is lossless.
#  * The box round trip ``params_to_box`` -> ``box_to_params`` moves
#    filter values by slightly more than 1e-12 on rare draws (about 1 in
#    3000 at n=4, worst seen 2.9e-12); a change beyond the ceiling below
#    is not that defect.
KNOWN = "known-defect"
KNOWN_DEFECT_CHECKS = {"stein_blocks", "stein_hermiticity"}
KNOWN_DEFECT_MIN_N = 12
KNOWN_ROUND_TRIP_CEILING = 1e-10

SIGNAL_LENGTH = 2**17
RECONSTRUCTION_TOL = 1e-9
AGREEMENT_TOL = 1e-9
ROUND_TRIP_TOL = 1e-12
GRID_POINTS = 512
# The op counts below were sized so that a run of this many seconds takes
# about that long on the baseline host (see README.md).
PLAN_SECONDS = 25


@dataclass
class Slice:
    label: str
    # Ops of this slice in a run of ``PLAN_SECONDS``; scaled with
    # ``--seconds``, at least one.
    ops: int
    run: Callable[[int], object]
    check: Callable[[object], str]
    negative_control: bool = False


def _draw_seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _signal(seed: int, length: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def _rung_label(rung) -> str:
    n, m, rho = rung
    return f"n{n}-m{m}-rho{rho:g}"


class Certify:
    """``wfk.cli.main(["verify", file])`` in-process over a seeded file mix.

    Kinds: a parameter file, its realization file, and that realization
    with ``B`` scaled by 1.01, which must fail (exit 1).
    """

    name = "certify"
    host_scaled = True
    rungs = ((2, 3, 0.0), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999))
    # Files per kind and rung; the op index cycles through them.
    pool = (4, 4, 2, 1)
    # Ops per run for each rung and kind (params, realization, scaled).
    # An order statistic that falls where two groups of ops with different
    # latencies meet jumps between them from run to run, so each one is
    # placed inside a group of like ops.  Of 62 ops, the median (between
    # the 31st and 32nd) falls among the 16 n=4 realization and scaled ops
    # (25th to 40th); the tail (the 11th slowest) is the 2nd fastest of the
    # 7 n=8 parameter files, with the two other n=8 ops and the three n=12
    # ops above them.  The n=12 ops take over half the run.
    ops = (
        (8, 8, 8),
        (10, 8, 8),
        (7, 1, 1),
        (1, 1, 1),
    )
    kinds = ("params", "realization", "scaled")

    def setup(self, wfk, seed: int, workdir: Path, smoke: bool) -> None:
        self.wfk = wfk
        rungs = self.rungs[:1] if smoke else self.rungs
        self.files = {}
        for r, rung in enumerate(rungs):
            n, m, rho = rung
            for i, gen_seed in enumerate(_draw_seeds(seed, r, self.pool[r])):
                box = wfk.sample_box(gen_seed, n, m, rho)
                params = wfk.box_to_params(box)
                real = wfk.realize_wavelet(params)
                scaled = wfk.Realization(a=real.a, b=real.b * 1.01, c=real.c, d=real.d)
                stem = workdir / f"{_rung_label(rung)}-{i}"
                paths = [Path(f"{stem}-{kind}.json") for kind in self.kinds]
                wfk.io.save_parameters(params, paths[0], box=box)
                wfk.io.save_realization(real, paths[1])
                wfk.io.save_realization(scaled, paths[2])
                for kind, path in zip(self.kinds, paths):
                    self.files.setdefault((r, kind), []).append(str(path))
        self.slices = [
            Slice(
                label=f"{_rung_label(rung)}/{kind}",
                ops=self.ops[r][j],
                run=self._runner(r, kind),
                check=self._checker(r, kind),
                negative_control=kind == "scaled",
            )
            for r, rung in enumerate(rungs)
            for j, kind in enumerate(self.kinds)
        ]

    def _runner(self, r, kind):
        files = self.files[(r, kind)]

        def run(k):
            out = _io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.wfk.cli.main(["verify", files[k % len(files)]])
            return code, out.getvalue()

        return run

    def _checker(self, r, kind):
        n = self.rungs[r][0]
        expected = 1 if kind == "scaled" else 0

        def check(product):
            code, text = product
            report = json.loads(text)
            if report["passed"] != (code == 0):
                return f"exit {code} disagrees with report passed={report['passed']}"
            if code == expected:
                return OK
            failing = {c["name"] for c in report["checks"] if not c["passed"]}
            if (expected == 0 and code == 1 and n >= KNOWN_DEFECT_MIN_N
                    and failing <= KNOWN_DEFECT_CHECKS):
                return KNOWN
            return f"exit {code}, expected {expected}; failing checks {sorted(failing)}"

        return check


class Subband:
    """FIR round trip: ``subband_filters`` -> ``analyze`` -> ``synthesize``."""

    name = "subband"
    host_scaled = True
    rungs = ((2, 3, 0.0), (8, 16, 0.0), (16, 32, 0.0))
    # The median falls inside the n=2 group and the tail (the 11th slowest)
    # is the fastest of the 11 n=16 ops, which take most of the run.
    ops = (30, 8, 11)
    pool = 2

    def setup(self, wfk, seed: int, workdir: Path, smoke: bool) -> None:
        self.wfk = wfk
        self.x = _signal(seed, SIGNAL_LENGTH)
        rungs = self.rungs[:1] if smoke else self.rungs
        self.slices = []
        for r, (n, m, rho) in enumerate(rungs):
            params = [wfk.sample_parameters(s, n, m, rho)
                      for s in _draw_seeds(seed, 10 + r, self.pool)]
            self.slices.append(Slice(
                label=_rung_label((n, m, rho)),
                ops=self.ops[r],
                run=self._runner(params),
                check=self._check,
            ))

    def _runner(self, pool):
        def run(k):
            wfk = self.wfk
            filters = wfk.subband_filters(pool[k % len(pool)])
            bands = wfk.analyze(self.x, filters)
            return wfk.synthesize(bands, filters), wfk.synthesis_delay(filters)

        return run

    def _check(self, product):
        y, delay = product
        err = np.linalg.norm(y - np.roll(self.x, delay)) / np.linalg.norm(self.x)
        if err <= RECONSTRUCTION_TOL:
            return OK
        return f"reconstruction error {err:.3e} > {RECONSTRUCTION_TOL:g}"


def _unitarity_defect(values: np.ndarray) -> float:
    eye = np.eye(values.shape[-1])
    gram = np.conj(np.swapaxes(values, 1, 2)) @ values
    return float(np.linalg.norm(gram - eye, axis=(1, 2)).max())


class Sweep:
    """One design step of a box-coordinate optimizer on a 512-point grid."""

    name = "sweep"
    host_scaled = True
    rungs = ((4, 8, 0.9), (8, 16, 0.99))
    # The median falls in the n=4 group, the tail inside the n=8 group.
    ops = (80, 17)

    def setup(self, wfk, seed: int, workdir: Path, smoke: bool) -> None:
        self.wfk = wfk
        self.grid = np.exp(2j * np.pi * np.arange(GRID_POINTS) / GRID_POINTS)
        rungs = self.rungs[:1] if smoke else self.rungs
        self.slices = [
            Slice(
                label=_rung_label(rung),
                ops=self.ops[r],
                run=self._runner(rung, _draw_seeds(seed, 20 + r, 1)[0]),
                check=self._check,
            )
            for r, rung in enumerate(rungs)
        ]

    def _runner(self, rung, base_seed):
        n, m, rho = rung

        def run(k):
            wfk = self.wfk
            box = wfk.sample_box(base_seed + k, n, m, rho)
            params = wfk.box_to_params(box)
            direct = [wfk.wavelet_eval(params, z) for z in self.grid]
            real = wfk.realize_wavelet(params)
            realized = [wfk.eval_realization(real, z) for z in self.grid]
            again = wfk.box_to_params(wfk.params_to_box(params))
            round_trip = [wfk.wavelet_eval(again, z) for z in self.grid]
            return np.array(direct), np.array(realized), np.array(round_trip)

        return run

    def _check(self, product):
        direct, realized, round_trip = product
        agree = float(np.linalg.norm(direct - realized, axis=(1, 2)).max())
        unit = max(_unitarity_defect(direct), _unitarity_defect(realized))
        trip = float(np.linalg.norm(round_trip - direct, axis=(1, 2)).max())
        if agree > AGREEMENT_TOL:
            return f"evaluators disagree by {agree:.3e}"
        if unit > AGREEMENT_TOL:
            return f"unitarity defect {unit:.3e}"
        if trip > KNOWN_ROUND_TRIP_CEILING:
            return f"box round trip moved values by {trip:.3e}"
        if trip > ROUND_TRIP_TOL:
            return KNOWN
        return OK


class Cli:
    """The ``wfk`` command pipeline at (4, 8, 0) on a 2**17-sample CSV signal.

    Untraced, each step is its own ``python -m wfk.cli`` process; traced,
    the same steps replay in-process through ``wfk.cli.main``.
    """

    name = "cli"
    # The ops run in child processes, whose speed the benchmark process's
    # reference readings were seen not to track (see README.md).
    host_scaled = False
    rung = (4, 8, 0.0)
    ops = 6
    eval_points = 256
    child_timeout_s = 120

    def __init__(self, child_env: dict, in_process: bool = False):
        self.child_env = child_env
        self.in_process = in_process

    def setup(self, wfk, seed: int, workdir: Path, smoke: bool) -> None:
        self.wfk = wfk
        self.workdir = workdir
        self.signal = workdir / "signal.csv"
        wfk.io.save_signal(_signal(seed, SIGNAL_LENGTH), self.signal)
        self.base_seed = _draw_seeds(seed, 30, 1)[0]
        self.slices = [Slice(_rung_label(self.rung), self.ops, self._run, self._check)]

    def steps(self, k):
        d = self.workdir / f"op{k % 2}"
        n, m, rho = self.rung
        p, r = str(d / "params.json"), str(d / "real.json")
        return d, [
            ["gen", "--n", str(n), "--index", str(m), "--rho", str(rho),
             "--seed", str(self.base_seed + k), "-o", p],
            ["realize", p, "-o", r],
            ["verify", p, "-o", str(d / "verify-params.json")],
            ["verify", r, "-o", str(d / "verify-real.json")],
            ["eval", p, "--circle", str(self.eval_points), "-o", str(d / "values.csv")],
            ["analyze", p, "--signal", str(self.signal), "--out", str(d / "bands")],
            ["synthesize", p, "--bands", str(d / "bands"), "--out", str(d / "rebuilt.csv"),
             "--reference", str(self.signal)],
        ]

    def _run(self, k):
        d, steps = self.steps(k)
        d.mkdir(parents=True, exist_ok=True)
        # Outputs of the op two back share this directory; the checks must
        # not read them.
        for stale in ("rebuilt.csv.json", "values.csv"):
            (d / stale).unlink(missing_ok=True)
        codes = []
        for argv in steps:
            if self.in_process:
                with contextlib.redirect_stdout(_io.StringIO()):
                    codes.append(self.wfk.cli.main(argv))
            else:
                done = subprocess.run(
                    [sys.executable, "-m", "wfk.cli", *argv],
                    env=self.child_env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, timeout=self.child_timeout_s,
                )
                codes.append(done.returncode)
        return d, codes

    def _check(self, product):
        d, codes = product
        if any(codes):
            return f"exit codes {codes}"
        sidecar = json.loads((d / "rebuilt.csv.json").read_text())
        err = sidecar["reconstruction_error"]
        if err is None or err > RECONSTRUCTION_TOL:
            return f"reconstruction error {err} > {RECONSTRUCTION_TOL:g}"
        rows = (d / "values.csv").read_text().count("\n")
        if rows != self.eval_points:
            return f"eval wrote {rows} rows, expected {self.eval_points}"
        return OK


def startup_probe(child_env: dict) -> tuple[float, str]:
    """Wall time of one ``import wfk.cli`` child and the BLAS pin it sees."""
    code = "import os, wfk.cli; print(os.environ.get('OPENBLAS_NUM_THREADS', ''))"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, done.stdout.strip()


def make(name: str, child_env: dict, trace: bool):
    if name == "cli":
        return Cli(child_env, in_process=trace)
    return {"certify": Certify, "subband": Subband, "sweep": Sweep}[name]()


NAMES = ("certify", "subband", "sweep", "cli")
