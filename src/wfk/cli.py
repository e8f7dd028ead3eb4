"""Command-line surface: gen, realize, verify, eval, analyze, synthesize.

Exit codes are a function of outcome only:

* 0 - success / all checks passed
* 1 - a verification check failed (report still written)
* 2 - usage or file-format error, or an output that cannot be written
* 3 - domain invariant violated by an input file
* 4 - numeric singularity (evaluation at a pole, or no circle point off one)
* 5 - unsupported mode (e.g. time-domain subbands for a non-FIR filter)

The environment variable ``WFK_SEED`` supplies the default seed of the
commands that take ``--seed``; it is read only when such a command runs
without ``--seed``.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import math
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import io as wio
from .errors import (
    ConvergenceError,
    FirRequiredError,
    InvariantError,
    PoleError,
    SamplingError,
    WfkError,
)
from .filters import (
    TOL,
    CheckReport,
    FilterParameters,
    box_to_params,
    circle_checks,
    sample_box,
    subband_filters,
    wavelet_eval,
)
from .realization import (
    cascade_index,
    eval_realization,
    realize_wavelet,
    stein_certificate,
)
from .signal import SubbandSet, analyze, synthesize, synthesis_delay

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_SINGULAR = 4
EXIT_UNSUPPORTED = 5


class UsageError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("WFK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"WFK_SEED must be an integer, got {raw!r}") from None


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@lru_cache(maxsize=None)
def _environment() -> dict:
    """Where a verify report's numbers came from, built once per process.

    The fields and their sources are those of the benchmark's stamp
    (``perfbench/run.py``): Python and numpy versions, ``os.cpu_count()``,
    the CPUs this process may run on, numpy's BLAS library and the BLAS
    thread variables (null when unset).
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(affinity(0)) if affinity else os.cpu_count(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in _BLAS_THREAD_VARIABLES},
    }


@contextmanager
def _allocation(message: str):
    """Raise ``UsageError(message)`` when the block refuses an allocation.

    numpy raises ``MemoryError`` for an array the host cannot hold and
    ``ValueError`` for a shape that cannot exist; a ``ValueError`` of this
    package (a ``WfkError``) passes through.
    """
    try:
        yield
    except WfkError:
        raise
    except (MemoryError, ValueError):
        raise UsageError(message) from None


def _cmd_gen(args) -> int:
    if args.n < 2:
        raise UsageError("--n must be >= 2")
    if args.index < 0:
        raise UsageError("--index must be >= 0")
    if not 0.0 <= args.rho <= 1.0:
        raise UsageError("--rho must lie in [0, 1]")
    if args.box is not None:
        box = wio.load_box(args.box, args.n, args.index, args.rho)
    else:
        with _allocation(f"--n {args.n} and --index {args.index}: box too large to allocate"):
            box = sample_box(args.seed, args.n, args.index, args.rho)
    params = box_to_params(box)
    wio.save_parameters(params, args.output, box=box)
    return EXIT_OK


def _cmd_realize(args) -> int:
    params = wio.load_parameters(args.params)
    wio.save_realization(realize_wavelet(params), args.output)
    return EXIT_OK


def _stopwatch():
    """A ``lap()`` that returns the wall time in ms since the previous lap.

    The first lap counts from the call that made it.  A check read off an
    earlier computation gets about 0 ms: ``paraunitary`` comes from the
    circle evaluation of ``symmetry`` (see :func:`wfk.filters.circle_checks`),
    ``frequency_pr`` from ``paraunitary``, and ``stein_hermiticity`` and
    ``minimality`` from the Stein certificate.
    """
    last = time.perf_counter()

    def lap() -> float:
        nonlocal last
        now = time.perf_counter()
        wall_ms, last = (now - last) * 1e3, now
        return wall_ms

    return lap


def _evaluator(target):
    """The batched evaluator of a parameter point or a realization."""
    fn = wavelet_eval if isinstance(target, FilterParameters) else eval_realization
    return partial(fn, target)


def _verify(target, points, tol, seed):
    """The checks of ``wfk verify`` and the report's Stein entry.

    A parameter point adds ``frequency_pr`` and runs the rest on its
    cascade.  ``degree`` is 0 when :func:`cascade_index` finds a whole
    number of factor cores in the realization's state dimension, as it
    always does in a cascade, and 1 otherwise.  A realization whose ``d``
    is not square or has one row (one band) raises ``InvariantError``.

    ``stein_blocks`` gates the largest Stein block residual and
    ``stein_hermiticity`` gates ``||H - H*||_F``, both relative to
    ``max(1, ||H||_1)``: rounding in ``A* H A`` grows with ``H``, and below
    ``||H||_1 = 1`` the gates are the absolute ones.  The entry holds the
    certificate's condition estimate, its positive-definiteness flag,
    ``||H||_1``, the solution ``method`` and ``residual_abs``, the absolute
    largest block residual, and ``worst_block``, the factor index or
    ``"elementary"`` of the block with the largest residual rows when
    ``stein_blocks`` fails (null when it passes, where that block is the
    argmax of rounding noise, and on the dense path); it is None when the
    Stein series diverges.
    """
    lap = _stopwatch()
    scalar = partial(CheckReport, sample_count=points, seed=seed)
    params = target if isinstance(target, FilterParameters) else None
    if params is None and (target.outputs != target.inputs or target.outputs < 2):
        # the circle checks compare n x n values: W(eps z) with W(z) P, W* W
        # with I; and a filter bank has at least two bands
        raise InvariantError(
            f"block 'd' must be n x n with n >= 2 to verify, got {target.outputs}x{target.inputs}"
        )
    n = target.outputs if params is None else params.n
    with _allocation(f"--points {points}: too many sample points to allocate"):
        circle = circle_checks(_evaluator(target), n, points, tol, seed)
    checks = [dataclasses.replace(c, wall_ms=lap()) for c in circle]
    if params is not None:
        # on the circle reconstruction is exact precisely when W is unitary,
        # so the perfect-reconstruction check is the same computation
        checks.append(dataclasses.replace(checks[-1], name="frequency_pr", wall_ms=lap()))
    real = target if params is None else realize_wavelet(params)
    degree = 0.0 if cascade_index(real) is not None else 1.0
    checks.append(scalar("degree", degree, 0.0, wall_ms=lap()))
    # minimality: H > 0 together with the block identities (lossless case)
    try:
        cert = stein_certificate(real)
        blocks, hermiticity = cert.relative_block_residual, cert.relative_hermiticity
        minimal = cert.positive_definite
        stein = {
            "condition_estimate": cert.condition_estimate,
            "positive_definite": cert.positive_definite,
            "norm_h": cert.norm_h,
            "method": cert.method,
            "residual_abs": cert.max_block_residual,
            "worst_block": None if blocks <= tol else cert.worst_block,
        }
    except ConvergenceError:
        # an unstable state matrix has no Stein solution: the Stein
        # residuals are infinite and minimality is not certified
        blocks = hermiticity = float("inf")
        minimal = False
        stein = None
    checks += [
        scalar("stein_blocks", blocks, tol, wall_ms=lap()),
        scalar("stein_hermiticity", hermiticity, 1e-10, wall_ms=lap()),
        scalar("minimality", 0.0 if minimal else 1.0, 0.0, wall_ms=lap()),
    ]
    return checks, stein


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points!r}")
    target = wio.load_filter(args.file)
    checks, stein = _verify(target, args.points, args.tol, args.seed)
    report = wio.report_to_dict(checks, args.seed, args.points, args.tol)
    report["stein"] = stein
    report["environment"] = _environment()
    wio.write_json(report, sys.stdout)
    if args.output:
        wio.save_json(report, args.output)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _parse_z(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError("--z expects 're,im'")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise UsageError("--z expects numeric 're,im'") from None
    if not cmath.isfinite(z):
        raise UsageError(f"--z must be a finite point, got {raw!r}")
    return z


def _cmd_eval(args) -> int:
    fn = _evaluator(wio.load_filter(args.file))
    if args.circle is not None:
        if args.circle < 1:
            raise UsageError("--circle must be >= 1")
        with _allocation(f"--circle {args.circle}: too many points to allocate"):
            zs = np.exp(2j * np.pi * np.arange(args.circle) / args.circle)
            values = fn(zs)
    else:
        zs = np.array([_parse_z(args.z)])
        values = fn(zs)
    if args.output:
        # the path by keyword, where perfbench/tracer.py looks for it
        wio.save_eval_csv(zs, values, path=args.output)
    else:
        wio.write_eval_csv(zs, values, sys.stdout)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    params = wio.load_parameters(args.params)
    filters = subband_filters(params)
    x = wio.load_signal(args.signal)
    bands = analyze(x, filters)
    out = Path(args.out)
    wio.make_output_dir(out)
    for k, band in enumerate(bands.bands):
        wio.save_signal(band, out / f"band_{k}.csv")
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    params = wio.load_parameters(args.params)
    filters = subband_filters(params)
    band_dir = Path(args.bands)
    bands = [wio.load_signal(band_dir / f"band_{k}.csv") for k in range(params.n)]
    rebuilt = synthesize(SubbandSet(n=params.n, bands=tuple(bands)), filters)
    delay = synthesis_delay(filters)
    sidecar = {"delay": delay, "bands": params.n, "signal_length": int(rebuilt.size)}
    # the reference is checked before --out is written, so a bad one leaves no file
    ref = wio.load_signal(args.reference) if args.reference else None
    if ref is not None and not np.isfinite(ref).all():
        raise InvariantError(f"{args.reference}: reference samples must be finite")
    if ref is not None and ref.size != rebuilt.size:
        raise UsageError(f"reference length {ref.size} != reconstruction length {rebuilt.size}")
    wio.save_signal(rebuilt, args.out)
    if ref is not None:
        # divided by their largest part, no square of the signals leaves the float range
        expected = np.roll(ref, delay)
        parts = (np.abs(x.view(float)).max(initial=0.0) for x in (rebuilt, expected))
        top = float(max(parts)) or 1.0
        expected /= top
        scale = float(np.linalg.norm(expected))
        err = float(np.linalg.norm(np.subtract(rebuilt / top, expected, out=expected)))
        sidecar["reconstruction_error"] = err / scale if scale else err * top
    else:
        sidecar["reconstruction_error"] = None
    wio.save_json(sidecar, str(args.out) + ".json")
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``wfk`` argument parser, built once per process.

    ``--seed`` defaults to None; :func:`main` resolves it from ``WFK_SEED``
    only for a command that takes it and was run without it.
    """
    parser = argparse.ArgumentParser(
        prog="wfk",
        description="Construct, realize and verify N-band paraunitary wavelet filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="draw or convert filter parameters")
    p.add_argument("--n", type=int, required=True, help="band count (>= 2)")
    p.add_argument("--index", type=int, required=True, help="number of factors (>= 0)")
    p.add_argument("--rho", type=float, default=0.0, help="spectral-radius bound in [0, 1]")
    p.add_argument("--seed", type=int)
    p.add_argument("--box", help="JSON file of box coordinates instead of sampling")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("realize", help="build the state-space realization")
    p.add_argument("params")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="run all applicable checks on a file")
    p.add_argument("file")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate a filter or realization")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--z", help="evaluation point as 're,im'; one that starts with '-' as --z=-0.5,0.5"
    )
    group.add_argument("--circle", type=int, help="evaluate at this many roots of unity")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="split a signal into subband CSV files")
    p.add_argument("params")
    p.add_argument("--signal", required=True)
    p.add_argument("--out", required=True, help="output directory for band_k.csv")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="rebuild a signal from subband CSV files")
    p.add_argument("params")
    p.add_argument("--bands", required=True, help="directory holding band_k.csv")
    p.add_argument("--out", required=True)
    p.add_argument("--reference", help="original signal for the error sidecar")
    p.set_defaults(func=_cmd_synthesize)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "seed" in vars(args):
            source = "--seed"
            if args.seed is None:
                args.seed, source = _default_seed(), "WFK_SEED"
            if args.seed < 0:
                raise UsageError(f"{source} must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PoleError, SamplingError) as exc:
        print(f"numeric singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except FirRequiredError as exc:
        print(f"unsupported mode: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except WfkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
