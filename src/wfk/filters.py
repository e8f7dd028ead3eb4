"""Parameter space and evaluation of N-band wavelet filters.

A wavelet filter here is an N x N rational matrix function that is unitary
on the unit circle and whose columns are the rotates ``f(z), f(eps z), ...,
f(eps^{N-1} z)`` of a single column, ``eps = exp(2i*pi/N)``.  Every such
filter factors as a product of degree-one rank-one unitary factors in
``z**N`` applied to the elementary filter ``diag(1, 1/z, ..., z**-(N-1)) @ Q``
with ``Q`` the unitary DFT matrix.  ``FilterParameters`` stores exactly the
data of that factorization; ``BoxPoint`` is the equivalent coordinate
parametrization over a real box, convenient for sampling and optimization.

Two blocked kernels apply the factors: :func:`_factor_updates` for the
evaluators, and :func:`_block_lattice`, the FIR polyphase lattice, for the
impulse responses (:attr:`FilterParameters.responses`) and the subband
signals of :mod:`wfk.signal` from ``n = 3`` on; at ``n = 2`` the signals
take one product with the responses instead.  :func:`subband_filters` is
the one gate of that FIR path.  One budget, ``_WORK_ENTRIES``, sizes the
working set of every blocked loop of the package, each reading it here
when it runs.

Identities between the rational functions here are checked by sampled
evaluation, never symbolically.  More than ``2*d + 8`` circle points would
decide a degree-``d`` identity, but for ``d = n*(n-1)/2 + n*m`` the
default counts fall short: ``wfk verify``'s 256 from ``(n, m) = (8, 16)``
on and the 64 of :func:`circle_checks` from ``(4, 8)`` on.  Half of the
points are drawn at random angles, which makes a false pass improbable,
not impossible.  On a realization file the Stein certificate of
:mod:`wfk.realization` proves unitarity algebraically, so only
``symmetry`` rests on sampling alone.  The evaluators take a point or an
array of points, and the shape of ``z`` alone chooses the kernel: a
scalar goes through a one-point kernel and an array of any size through
the array kernel.  :func:`circle_checks` evaluates all of its points in
one call.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionError,
    FirRequiredError,
    InvariantError,
    PoleError,
    SamplingError,
)

# Default tolerance of every verification check.
TOL = 1e-9
_UNIT_NORM_TOL = 1e-12
# Pole guard for Blaschke factors and the z = 0 pole of the elementary filter.
_POLE_TOL = 1e-14
# 1 - |alpha| >= this many n*2**-52 keeps the rounded n-th roots of every pole
# inside the circle (n from 2 to 32: at n*2**-52 up to 35% of angles fail, at 2n none).
_POLE_FLOOR_ULPS = 4
# Factors per block of _factor_updates, chosen by measurement: wavelet_eval
# at 512 circle points took 0.79 / 0.72 / 0.84 ms at (n, m, rho) =
# (8, 16, 0.99) with 4 / 8 / 16 factors a block (1.06 ms one at a time),
# 1.69 / 1.37 / 2.04 ms at (12, 16, 0.999) and 6.0 / 4.8 / 4.9 ms at
# (16, 32, 0.999); median of 80, alternating in one process, one BLAS
# thread, 2-CPU Xeon.
_FACTOR_BLOCK = 8
# Factors per block of _block_lattice, chosen by measurement: a round trip
# of a 2**17-sample signal (subband_filters, analyze, synthesize) took
# 5.6 / 6.0 / 5.9 ms at (n, m) = (8, 16) and 9.6 / 9.4 / 9.1 ms at
# (16, 32) with 8 / 12 / 16 factors a block, median of 35, one BLAS thread,
# 2-CPU Xeon.  Larger blocks mean fewer passes over the rows but a longer
# sequential recurrence.
_BLOCK = 16
# Entries that a blocked loop's work may hold at a time, 2**15 complex
# entries (512 KiB): each work array of an eval_realization point chunk (X
# and the ratios that give Q in _sweep, the stacked zI - A in _lu, C X in
# both; one point when that needs more), both work arrays of a
# _block_lattice panel and a panel of the polyphase copy or a two-band
# window (signal._panels); io derives its blocks from it.  Every loop reads
# it here when it runs.  Measured with one BLAS thread on a 2-CPU host,
# eval_realization as ms for one 512-point call (warm heap, median of 3
# in-process runs interleaving the budgets) / minor faults of one
# `wfk verify` of a realization file (in the certify benchmark's order; at
# (16,32) a loop of verifies in a fresh process):
#
#   budget        2**18         2**16         2**15         2**14
#   (4,8,.9)      1.08 / 16     1.10 / 33     1.09 / 33     1.15 / 22
#   (8,16,.99)    2.77 / 740    2.56 / 515    2.23 / 134    2.57 / 15
#   (12,16,.999)  5.28 / 2258   5.28 / 1536   5.79 / 843    6.86 / 846
#   (16,32,.999) 13.41 / 2385  11.89 / 1415  13.91 / 1433  17.33 / 1500
#
# 2**15 faults half as often as 2**16 at n = 8 and 12; 2**14 faults no
# less and computes slower.  _polyphase at 2**17 samples, n = 2 / 16:
# 0.14 / 0.24 ms against 0.18 / 0.41 ms unblocked.  With one BLAS thread a
# budget moves no bit of _polyphase, _block_lattice or the two-band path,
# and none of eval_realization when N_in is a multiple of 4: otherwise BLAS
# rounds a column of _sweep's vector-matrix products by its place in the
# unrolled loop, which moved values by up to 6.5e-16 of their largest
# modulus at N_in = 2, 3 and 5.
_WORK_ENTRIES = 1 << 15


def _frozen(a, dtype=None) -> np.ndarray:
    """``a`` as an array of ``dtype`` (by default its own) that nothing can
    write: ``a`` itself when it has that dtype and it and the array that
    owns its memory are read-only, else one read-only copy."""
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.dtype == (dtype or a.dtype):
        owner = a if a.base is None else a.base
        if isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable:
            return a
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _integral(value) -> int | None:
    """``value`` as an ``int`` when it is an integer or an integral float,
    numpy's too, else None; a bool is not an integer here."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


def _named(value):
    """``value`` for a message: a numpy scalar as its Python value, whatever numpy's repr."""
    return value.item() if isinstance(value, np.generic) else value


def _count(value, name: str = "band count", low: int = 2) -> int:
    """``value`` as an ``int`` of at least ``low``: the rule of every count and seed."""
    count = _integral(value)
    if count is None or count < low:
        raise InvariantError(f"{name} must be an integer >= {low}, got {_named(value)!r}")
    return count


def _rho(rho) -> float:
    """``rho`` as a float in ``[0, 1]``: the rule of every entry point that takes it;
    a value that ``float`` cannot convert, a string or a bool is named as given."""
    try:
        value = _named(rho) if isinstance(rho, (str, bytes, bool, np.bool_)) else float(rho)
    except (TypeError, ValueError, OverflowError):
        value = rho
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        raise InvariantError(f"rho must lie in [0, 1], got {value!r}")
    return value


def _unit_vector(v) -> np.ndarray:
    """``v`` as a read-only complex vector after the vector rule: finite
    entries and unit norm within ``_UNIT_NORM_TOL``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, rejected below
        norm = np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1))
    if not abs(norm - 1.0) <= _UNIT_NORM_TOL:
        if not np.isfinite(v).all():
            raise InvariantError("factor vector must have finite entries")
        raise InvariantError(f"factor vector must have unit norm, got {float(norm)}")
    return _frozen(v)


@dataclass(frozen=True, eq=False)
class Factor:
    """One degree-one unitary factor: a unit vector ``v`` and a pole ``alpha``.

    The factor acts as ``I + (phi(z**n) - 1) v v*`` where ``phi`` is the
    scalar all-pass ``(1 - conj(alpha) w) / (w - alpha)``; only ``v v*``
    matters, so ``v`` is stored up to a global phase.
    """

    v: np.ndarray
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "v", _unit_vector(self.v))
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise InvariantError("alpha must be finite")
        if abs(alpha) >= 1.0:
            raise InvariantError(f"|alpha| must be < 1, got {abs(alpha)!r}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True, eq=False)
class FilterParameters:
    """Full parameter point: band count, factor list and spectral-radius bound.

    ``rho`` bounds every ``|alpha_j|`` strictly; ``rho = 0`` forces all
    ``alpha_j = 0`` (the FIR filters), and ``1 - |alpha_j| >= 4*n*2**-52``
    keeps the rounded poles in ``z`` inside the circle.  ``m = len(factors)``
    is the index of the filter and fixes its minimal state dimension
    ``n*((n-1)/2 + m)``.
    """

    n: int
    rho: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n))
        object.__setattr__(self, "rho", rho := _rho(self.rho))
        factors = tuple(self.factors)
        for k, f in enumerate(factors):
            if f.v.shape != (self.n,):
                raise InvariantError(
                    f"factor {k}: factor vector has dimension {f.v.shape[0]}, expected {self.n}"
                )
            if rho == 0.0:
                if f.alpha != 0:
                    raise InvariantError(f"factor {k}: rho = 0 forces every alpha to be exactly 0")
            elif abs(f.alpha) >= rho:
                raise InvariantError(
                    f"factor {k}: |alpha| = {abs(f.alpha)!r} must be strictly below rho = {rho!r}"
                )
            elif (1.0 - abs(f.alpha)) * 2.0**52 < _POLE_FLOOR_ULPS * self.n:
                raise InvariantError(
                    f"factor {k}: |alpha| = {abs(f.alpha)!r} is within the floor"
                    f" {_POLE_FLOOR_ULPS}*n*2**-52 = {_POLE_FLOOR_ULPS * self.n * 2.0**-52!r} of 1"
                )
        object.__setattr__(self, "factors", factors)

    @property
    def m(self) -> int:
        """Index of the filter (number of degree-one factors)."""
        return len(self.factors)

    def is_fir(self) -> bool:
        """True when every pole parameter vanishes (polynomial filter)."""
        return all(f.alpha == 0 for f in self.factors)

    @cached_property
    def _pole_radius(self) -> float:
        """``max_j |alpha_j|`` (0 with no factors), for the pole guard of
        the one-point kernel."""
        return max((abs(f.alpha) for f in self.factors), default=0.0)

    @cached_property
    def _factor_stack(self) -> tuple[np.ndarray, ...]:
        """The factors as arrays, built on first use and shared by every kernel.

        ``(vectors, alphas, alpha_conjugates, outers)``: the vectors as
        ``(m, n)`` rows, the poles and their conjugates as ``(m,)`` and the
        projections ``v v*`` as ``(m, n, n)``.
        """
        vectors = np.array([f.v for f in self.factors], dtype=complex).reshape(-1, self.n)
        alphas = np.array([f.alpha for f in self.factors], dtype=complex)
        return (
            _frozen(vectors),
            _frozen(alphas),
            _frozen(alphas.conj()),
            _frozen(vectors[:, :, None] * vectors.conj()[:, None, :]),
        )

    @cached_property
    def responses(self) -> tuple[np.ndarray, ...]:
        """The N subband impulse responses of an FIR filter: the first column
        of ``W`` as a polynomial in ``1/z``, each trimmed after its last
        nonzero tap, built on first use; :func:`subband_filters` is the gate.

        The impulse runs through :func:`_block_lattice`, the kernel of the
        signal path, laid out as ``y[i, r, j]`` = tap ``n*j + r`` of band
        ``i``, so the delay ``z**-n`` of a factor is a shift by one in
        ``j``.  The shift never wraps a nonzero tap: before factor ``k``
        only ``j < k`` is filled.  A tap row is one panel when its work fits
        in ``_WORK_ENTRIES``: for ``n <= 16`` whenever ``n*(m+1) <= 1024``.
        Their lengths, and so :func:`wfk.signal.synthesis_delay`, equal the
        one-factor lattice's; their values agree with its values up to
        rounding.  No length exceeds ``n*(m + 1)``.
        """
        n, vectors = self.n, subband_filters(self)._factor_stack[0]
        y = np.zeros((n, n, self.m + 1), dtype=complex)
        # tap i of band i is 1/sqrt(n): the first column of diag(z**-i) @ Q
        y[np.arange(n), np.arange(n), 0] = 1.0 / np.sqrt(n)
        _block_lattice(y.reshape(n, -1), vectors)
        responses = []
        for band in y:
            coeffs = band.T.reshape(-1)
            last = np.nonzero(np.abs(coeffs) > 0.0)[0]
            end = last[-1] + 1 if last.size else 1
            responses.append(_frozen(coeffs[:end]))
        return tuple(responses)

    @property
    def max_length(self) -> int:
        """Length of the longest subband response."""
        return max(h.size for h in self.responses)


@dataclass(frozen=True, eq=False)
class BoxPoint:
    """Coordinates in the real box parameterizing an index-``m`` filter.

    Each factor contributes one row of ``2n`` coordinates::

        (delta_1, a_1, ..., a_{2n-3}, theta, r)

    with ``delta_1`` in ``[0, pi)``, the middle angles and ``theta`` in
    ``[0, 2*pi)`` and ``r`` in ``[0, rho)`` (pinned to 0 when ``rho = 0``).
    The first ``n-2`` middle angles continue the hyperspherical modulus
    chain, the remaining ``n-1`` are the phases of components ``2..n``;
    ``alpha = r exp(i theta)``.
    """

    n: int
    rho: float
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n))
        object.__setattr__(self, "rho", rho := _rho(self.rho))
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 * self.n:
            raise InvariantError(
                f"coords must have shape (m, {2 * self.n}), got {coords.shape}"
            )
        if not np.isfinite(coords).all():
            raise InvariantError("box coordinates must be finite")
        upper = np.full(2 * self.n, 2 * np.pi)
        upper[0], upper[-1] = np.pi, rho
        bad = ~((0.0 <= coords) & (coords < upper))
        if rho == 0.0:
            bad[:, -1] = coords[:, -1] != 0.0
        if bad.any():
            # the first bad coordinate in row-major order
            row, col = divmod(int(np.argmax(bad)), 2 * self.n)
            x = float(coords[row, col])
            if col == 0:
                raise InvariantError(f"delta_1 = {x!r} outside [0, pi)")
            if col < 2 * self.n - 1:
                raise InvariantError(f"angle {x!r} outside [0, 2*pi)")
            if rho == 0.0:
                raise InvariantError("rho = 0 pins the radius coordinate to 0")
            raise InvariantError(f"radius {x!r} outside [0, {rho!r})")
        object.__setattr__(self, "coords", _frozen(coords))

    @property
    def m(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled verification check, reproducible from its fields;
    the verdict is derived: ``passed`` is ``max_residual <= tolerance``, so NaN fails."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool = field(init=False)
    _: KW_ONLY
    sample_count: int
    seed: int
    # circle points redrawn because a draw hit a pole
    resampled: int = 0
    # wall time of the check in milliseconds, where the caller measured it
    wall_ms: float = 0.0
    # circle point of the largest residual; None for a check off the circle
    argmax_z: complex | None = None

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries ``eps**(-j*k) / sqrt(n)`` (0-indexed)."""
    return _dft_cached(_count(n)).copy()


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return _frozen(np.eye(n))


@lru_cache(maxsize=None)
def _negative_range(n: int) -> np.ndarray:
    """The exponents ``0, -1, ..., -(n-1)`` as a column."""
    return _frozen(-np.arange(n)[:, None])


@lru_cache(maxsize=None)
def _dft_cached(n: int) -> np.ndarray:
    eps = np.exp(2j * np.pi / n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return _frozen(eps ** (-j * k) / np.sqrt(n))


def _point_or_array(z) -> complex | np.ndarray:
    """``z`` as a Python complex when it is one point, else as a complex array.

    A Python ``int``, ``float`` or ``complex`` (numpy's ``float64`` and
    ``complex128`` are subclasses) is converted without a 0-d array round
    trip; any other scalar, such as a numpy integer, goes through one.
    """
    if isinstance(z, (int, float, complex)):
        return complex(z)
    z = np.asarray(z, dtype=complex)
    return complex(z) if z.ndim == 0 else z


def blaschke(alpha, w):
    """All-pass factor ``(1 - conj(alpha) w) / (w - alpha)``, broadcast over arrays.

    Raises
    ------
    PoleError
        If any ``w`` lies within ``1e-14 * max(1, |w|)`` of its ``alpha``.
    """
    den = w - alpha
    near = np.abs(den) <= _POLE_TOL * np.maximum(1.0, np.abs(w))
    if near.any():
        at = np.broadcast_to(w, near.shape)[near][0]
        raise PoleError(f"all-pass factor evaluated at its pole (w = {complex(at)!r})")
    return (1.0 - np.conj(alpha) * w) / den


def elementary_wavelet_eval(n: int, z) -> np.ndarray:
    """Value of the minimal-degree filter ``diag(z**0..z**-(n-1)) @ Q``.

    The index-0 case of :func:`wavelet_eval`, with its shapes and errors;
    a band count below 2 raises ``InvariantError``.
    """
    return wavelet_eval(FilterParameters(n=n, rho=0.0, factors=()), z)


def wavelet_eval(params: FilterParameters, z) -> np.ndarray:
    """Evaluate the filter described by ``params`` at a point or an array of points.

    The stored factors compose as ``factors[m-1] @ ... @ factors[0] @ base``
    so that appending a factor multiplies on the left and raises the index
    by one.  ``z`` may have any shape; the result has shape
    ``z.shape + (n, n)``, so a scalar ``z`` gives one ``n x n`` matrix.
    The shape of ``z`` chooses the kernel.  A scalar goes through
    :func:`_wavelet_point` as a Python complex (see
    :func:`_point_or_array`), which forms every ``I + s_j v_j v_j*``
    in one ``(m, n, n)`` stack and multiplies neighbours pairwise,
    ``ceil(log2 m)`` stacked products.  An array of any size computes
    ``z**n`` and the ``m`` all-pass scales ``s_j`` once for all points,
    and applies the factors ``_FACTOR_BLOCK`` (8) at a time to the
    ``n x (K*n)`` row-stacked values by :func:`_factor_updates`: per block,
    one matrix product gives every ``v_j* W``, a short recurrence over the
    block corrects each for the factors before it and scales it per point,
    and one matrix product adds all the rank-one updates.  The values equal
    those of one update ``W += s_j v_j (v_j* W)`` per factor up to
    rounding.  A scalar whose ``z**n`` leaves the float range goes through
    the array kernel too.

    Raises
    ------
    PoleError
        When any point is ``0`` or has ``z**n`` at one of the ``alpha_j``.
    """
    z = _point_or_array(z)
    if isinstance(z, complex):
        return _wavelet_point(params, z)
    n = params.n
    points = z.reshape(-1)
    if (np.abs(points) <= _POLE_TOL).any():
        raise PoleError("elementary filter has a pole at z = 0")
    with np.errstate(over="ignore", invalid="ignore"):
        power = points**n
        far = ~(np.abs(power) < np.inf)
        powers = points ** _negative_range(n)
        if far.any():
            # z**n leaves the float range: with u = 1/z, E(z) = diag(u**k) Q, and
            # phi_j(z**n) = (u**n - conj(alpha_j)) / (1 - alpha_j u**n) is
            # -conj(alpha_j) to within 1e-308, |u**n| being below the smallest
            # normal float; w = 2, off every pole, holds the place of z**n.
            # Near the top of the float range 1/z overflows inside the
            # division and gives 0, which is u to within 1e-308 as well
            powers[:, far] = (1.0 / points[far]) ** np.arange(n)[:, None]
            power[far] = 2.0
    # w[i, k, j] = W(z_k)[i, j]; its n x (K*n) view turns V* W into one product
    w = np.multiply(powers[:, :, None], _dft_cached(n)[:, None, :], order="C")
    vectors, alphas, alpha_conjugates, _ = params._factor_stack
    scales = blaschke(alphas[:, None], power) - 1.0
    scales[:, far] = -1.0 - alpha_conjugates[:, None]
    _factor_updates(w.reshape(n, -1), vectors, scales)
    return w.transpose(1, 0, 2).reshape(z.shape + (n, n))


def _factor_updates(w: np.ndarray, vectors: np.ndarray, scales: np.ndarray) -> None:
    """Apply ``I + s_j v_j v_j*`` for each row ``v_j`` of ``vectors`` in turn to
    the rows of ``w``, ``_FACTOR_BLOCK`` factors at a time.

    ``scales`` is ``(m, K)``: the multiplier ``s_j`` of factor ``j`` at each
    of ``K`` points, where point ``k`` owns the ``w.shape[1] // K`` adjacent
    columns from ``k * w.shape[1] // K`` on.  For a block ``V`` of rows
    ``v_1 .. v_k``, with ``G = tril(conj(V) V^T, -1) + I`` and
    ``P = conj(V) w``::

        d_j = s_j (G[j, :j+1] @ [d_1 .. d_(j-1), P_j]),   w += V^T D

    ``G[j, :j+1] @ [d_1 .. d_(j-1), P_j]`` is ``v_j* w`` after the factors
    before ``j``, so this is the one-factor update ``w += s_j v_j (v_j* w)``
    up to rounding (the WY form of a product of rank-one updates; Bischof &
    Van Loan, SIAM J. Sci. Stat. Comput. 8, 1987).  It is the lattice of
    :func:`_block_lattice` with the shift of a row replaced by a multiplier
    per point, so no value is carried between columns; the two kernels set
    up a block alike (:func:`_block_setup`).  A block
    costs two matrix products over ``w`` and ``k`` vector-matrix products
    over the block's rows of ``D``; the work arrays, ``D``, one row and one
    array of ``w``'s shape for ``V^T D``, are allocated once per call.
    """
    m, points = scales.shape
    k = min(_FACTOR_BLOCK, m)
    if not (k and points):
        return
    d = np.empty((k, w.shape[1]), dtype=complex)
    row = np.empty(w.shape[1], dtype=complex)
    update = np.empty_like(w)
    for lo in range(0, m, k):
        v, s = vectors[lo : lo + k], scales[lo : lo + k, :, None]
        vc, g = _block_setup(v)
        diffs = d[: len(v)]
        np.matmul(vc, w, out=diffs)
        per_point = diffs.reshape(len(v), points, -1)
        per_point[0] *= s[0]
        for j in range(1, len(v)):
            np.matmul(g[j, : j + 1], diffs[: j + 1], out=row)
            np.multiply(row.reshape(points, -1), s[j], out=per_point[j])
        np.matmul(v.T, diffs, out=update)
        w += update


def _block_setup(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``conj(V)`` and the unit lower-triangular ``G = tril(conj(V) V^T, -1) + I``
    of a block ``V`` of factor rows, for both blocked kernels."""
    vc = v.conj()
    g = np.tril(vc @ v.T, -1)
    np.fill_diagonal(g, 1.0)
    return vc, g


def _block_lattice(y: np.ndarray, vectors: np.ndarray) -> None:
    """Apply ``I + (S - I) v v*`` for each row ``v`` of ``vectors`` in turn to
    the rows of ``y``, ``_BLOCK`` factors at a time.

    The one FIR lattice: :func:`wfk.signal.analyze` and
    :func:`wfk.signal.synthesize` run it on polyphase rows and
    :attr:`FilterParameters.responses` on the taps.  ``S`` rolls a row
    circularly by one column, the unit delay ``1/w`` of a factor.  For a
    block ``V`` of rows ``v_1 .. v_k``, with ``G = conj(V) V^T`` (so
    ``G[j, i] = v_j* v_i``) and ``P = conj(V) y``::

        s_j = P_j + sum_{i<j} G[j, i] d_i,   d_j = S s_j - s_j,   y += V^T D

    ``s_j`` is ``v_j* y`` after the factors before ``j``, so this is the
    one-factor lattice exactly, up to the order of its sums.  Columns
    couple only through ``S``, so the panels run left to right, each
    carrying every ``s_j`` at its last column into the next.  The wrap
    needs ``s_j`` at the last column before the first panel: it depends on
    the ``j`` columns that end there, so the last ``k`` columns, run
    without the wrap, give it exactly.  A block therefore holds at most as
    many factors as ``y`` has columns.

    Works in place on two work arrays, ``k + max(k, n)`` entries a panel
    column: ``d`` holds a panel's ``P`` and then its ``D``; ``work`` the
    ``s_j``, each with a spare column for the carried value, then ``V^T D``.
    A row whose one panel fits in ``_WORK_ENTRIES`` entries is one panel,
    as the taps are; any other is cut into panels of the widest multiple of
    8 that keeps the arrays within two rows' worth, at most
    ``_WORK_ENTRIES // 8`` (4096) columns.
    With one BLAS thread any multiple of 8, or a width of at least the row,
    gives the same bits: every panel then starts at a multiple of 8, and the
    products round a column alike wherever such a panel puts it.  With more
    threads OpenBLAS splits a large enough product at columns that depend on
    its width, and the bits may move by rounding there.
    """
    n, cols = y.shape
    k = min(_BLOCK, vectors.shape[0], cols)
    if not k:
        return
    per_column = k + max(k, n)
    width = min(max((2 * cols // per_column - 8) // 8 * 8, 8), _WORK_ENTRIES // 8)
    width = cols if cols * per_column <= _WORK_ENTRIES else width
    panels = [y[:, a:b] for a, b in _panel_bounds(cols, width)]
    span = max(max(p.shape[1] for p in panels), k)
    d = np.empty((k, span), dtype=complex)
    work = np.empty(max(k * (span + 1), n * span), dtype=complex)
    for lo in range(0, vectors.shape[0], k):
        v = vectors[lo : lo + k]
        vc, g = _block_setup(v)
        edge = np.zeros(len(v), dtype=complex)
        _block_differences(y[:, cols - len(v) :], vc, g, d, work, edge)
        for panel in panels:
            diffs = _block_differences(panel, vc, g, d, work, edge)
            update = work[: panel.size].reshape(panel.shape)
            np.matmul(v.T, diffs, out=update)
            # row by row: a 2-D in-place add over a strided panel makes
            # numpy allocate ufunc buffers of about the panel's size
            for row, add in zip(panel, update):
                row += add


def _panel_bounds(cols: int, width: int) -> list[tuple[int, int]]:
    """Column ranges ``(a, b)`` of ``width`` columns from column 0 on, the
    last one ending at ``cols``.

    A remainder under 8 columns joins the last panel: a one-column panel
    would turn the products into matrix-vector products, with other bits.
    """
    starts = range(0, max(cols - 7, 1), width)
    return list(zip(starts, [*starts[1:], cols]))


def _block_differences(panel, vc, g, d, work, edge) -> np.ndarray:
    """``D`` of one block on one panel, as a view of ``d``.

    ``edge`` holds each ``s_j`` at the column before the panel, and is left
    holding it at the panel's last.
    """
    k, w = vc.shape[0], panel.shape[1]
    diffs = d[:k, :w]
    s = work[: k * (w + 1)].reshape(k, w + 1)
    # s_j over the panel is s[:, 1:], and S s_j is s[:, :-1]
    np.matmul(vc, panel, out=diffs)
    s[:, 0] = edge
    # s_1 = P_1, plus 0 so that a zero is +0 as the one-term product gives it
    np.add(diffs[0], 0.0, out=s[0, 1:])
    np.subtract(s[0, :-1], s[0, 1:], out=diffs[0])
    for j in range(1, k):
        np.matmul(g[j, : j + 1], diffs[: j + 1], out=s[j, 1:])
        np.subtract(s[j, :-1], s[j, 1:], out=diffs[j])
    edge[:] = s[:, -1]
    return diffs


def _wavelet_point(params: FilterParameters, z: complex) -> np.ndarray:
    """The filter at one point: ``prod_j (I + s_j v_j v_j*) @ E(z)``.

    ``s_j = phi_j(z**n) - 1`` by the expression of :func:`blaschke`, on
    the ``(m,)`` rows of the factor stack.  Its pole guard is scalar
    arithmetic first: ``|w - alpha_j| >= |w| - max_j |alpha_j|``, so a
    ``w`` that clears the largest pole modulus by twice the guard cannot be
    within the guard of a pole, even after rounding, and skips the minimum
    over the factors.  A point of the unit circle clears it unless some
    ``|alpha_j|`` is within ``2e-14`` of 1.  The identity is added to the
    stack of ``s_j v_j v_j*`` in place.
    """
    n = params.n
    try:
        if abs(z) <= _POLE_TOL:
            raise PoleError("elementary filter has a pole at z = 0")
        w = z**n
        size = abs(w)
    except OverflowError:
        size = math.inf
    if not size < math.inf:
        return wavelet_eval(params, np.array([z]))[0]
    base = z ** _negative_range(n) * _dft_cached(n)
    if not params.factors:
        return base
    _, alphas, alpha_conjugates, outers = params._factor_stack
    den = w - alphas
    guard = _POLE_TOL * max(1.0, size)
    if size - params._pole_radius <= 2.0 * guard and np.abs(den).min() <= guard:
        raise PoleError(f"all-pass factor evaluated at its pole (w = {w!r})")
    scales = (1.0 - alpha_conjugates * w) / den - 1.0
    stack = scales[:, None, None] * outers
    stack += _eye(n)
    return _pairwise_product(stack) @ base


def _pairwise_product(f: np.ndarray) -> np.ndarray:
    """The product ``f[m-1] @ ... @ f[0]`` of an ``(m, n, n)`` stack by
    stacked products of neighbours."""
    while f.shape[0] > 1:
        even = f.shape[0] // 2 * 2
        pairs = f[1:even:2] @ f[:even:2]
        f = np.concatenate([pairs, f[even:]]) if even < f.shape[0] else pairs
    return f[0]


def box_to_params(box: BoxPoint) -> FilterParameters:
    """Map box coordinates to filter parameters (surjective by construction).

    For every row at once, the chain angles ``d = (delta_1, a_1, ...,
    a_{n-2})`` give the moduli ``cos(d_k) sin(d_0) ... sin(d_{k-1})``, the
    last modulus being the product of all the sines, and the vector is
    ``v = mods * exp(i * (0, phases))``.
    """
    n, coords = box.n, box.coords
    deltas = coords[:, : n - 1]
    mods = np.ones((box.m, n))
    np.cumprod(np.sin(deltas), axis=1, out=mods[:, 1:])
    mods[:, :-1] *= np.cos(deltas)
    phases = np.zeros((box.m, n))
    phases[:, 1:] = coords[:, n - 1 : 2 * n - 2]
    vectors = mods * np.exp(1j * phases)
    alphas = coords[:, -1] * np.exp(1j * coords[:, -2])
    factors = tuple(Factor(v=v, alpha=a) for v, a in zip(vectors, alphas))
    return FilterParameters(n=box.n, rho=box.rho, factors=factors)


def params_to_box(params: FilterParameters) -> BoxPoint:
    """Canonical box coordinates of ``params``, one array pass over all factors.

    Each vector is first turned by the global phase that makes its first
    nonzero component real; a real one, of either sign, is left as it is,
    so a vector from :func:`box_to_params` keeps its phases.  Every chain
    angle is ``arctan2(norm of the moduli after it, this modulus)``, with
    the signed real first component as the modulus of ``delta_1``: so
    ``delta_1`` lies in ``[0, pi)`` and the other chain angles in
    ``[0, pi/2]``, the canonical section of the (many-to-one) box map, and
    no angle loses a small tail to an ill-conditioned inverse.  A row whose
    ``delta_1`` would round to ``pi`` is negated first, which leaves
    ``v v*``, and so the filter, unchanged.  A zero component has phase 0,
    and the phases and the pole angle are reduced to ``[0, 2*pi)``.
    """
    n, m = params.n, params.m
    v, alphas, _, _ = params._factor_stack
    anchor = v[np.arange(m), (v != 0).argmax(axis=1)]
    v = np.where(anchor.imag[:, None] != 0, v * np.exp(-1j * np.angle(anchor))[:, None], v)
    mods = np.abs(v)
    # tails[:, k] is the norm of mods[:, k+1:]
    tails = np.sqrt(np.cumsum(mods[:, :0:-1] ** 2, axis=1))[:, ::-1]
    # delta_1 must stay below pi, and -v gives the same v v*
    v[np.arctan2(tails[:, 0], v[:, 0].real) == np.pi] *= -1
    heads = np.concatenate([v[:, :1].real, mods[:, 1:-1]], axis=1)
    coords = np.zeros((m, 2 * n))
    coords[:, : n - 1] = np.arctan2(tails, heads)
    coords[:, n - 1 : 2 * n - 2] = np.where(mods[:, 1:] > 0, np.angle(v[:, 1:]), 0.0)
    coords[:, -2] = np.where(alphas != 0, np.angle(alphas), 0.0)
    angles = coords[:, n - 1 : -1]
    # the modulo can round a tiny negative angle up to 2*pi
    angles %= 2 * np.pi
    angles[angles >= 2 * np.pi] = 0.0
    coords[:, -1] = np.abs(alphas)
    return BoxPoint(n=n, rho=params.rho, coords=coords)


def sample_box(seed: int, n: int, m: int, rho: float) -> BoxPoint:
    """Draw box coordinates uniformly; deterministic for a fixed seed.

    Each pole's radius is uniform on ``[0, rho)``, the paper's box, with no
    cap below ``rho``.
    """
    n, m, rho = _count(n), _count(m, "m", 0), _rho(rho)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    coords = np.zeros((m, 2 * n))
    if m:
        coords[:, 0] = rng.uniform(0.0, np.pi, size=m)
        coords[:, 1 : 2 * n - 1] = rng.uniform(0.0, 2 * np.pi, size=(m, 2 * n - 2))
        if rho > 0.0:
            coords[:, 2 * n - 1] = rng.uniform(0.0, rho, size=m)
    return BoxPoint(n=n, rho=rho, coords=coords)


def sample_parameters(seed: int, n: int, m: int, rho: float) -> FilterParameters:
    """Uniform draw from the parameter box, returned through ``box_to_params``."""
    return box_to_params(sample_box(seed, n, m, rho))


def unit_circle_points(count: int, seed: int = 0) -> np.ndarray:
    """Sample points on the unit circle: a deterministic grid plus random angles.

    The first ``ceil(count/2)`` points are equispaced roots of unity (so
    failures are reproducible without the seed); the rest are i.i.d.
    uniform angles from ``seed``.
    """
    count = _count(count, "sample count", 1)
    grid = (count + 1) // 2
    det = np.exp(2j * np.pi * np.arange(grid) / grid)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    rand = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=count - grid))
    return np.concatenate([det, rand])


_RETRIES = 8
# Relative distance from a check's maximum within which residuals tie.
_TIE = 1e-12


def _max_circle_residual(
    residual, points: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Column-wise max of ``residual`` over ``points``, where it is reached, and the redraws.

    ``residual`` maps ``K`` points to ``K`` residuals, or to a ``(K, c)``
    array of ``c`` residuals per point.  Returns the ``c`` maxima, the
    point at which each is reached and the number of redrawn points.  One
    work list of batches starts as ``[points]``; each batch popped from it
    is one ``residual`` call.  On ``PoleError`` a one-point batch has
    failed and a larger one is replaced by its two halves, the first half
    popped next, so a single bad point costs about ``log2(K)`` extra calls.
    When the list runs empty with failed points, one batch of as many
    points is redrawn, from an rng seeded by ``seed`` and built at the
    first redraw, for at most ``_RETRIES`` rounds; a point redrawn in two
    rounds counts twice.

    Residuals that tie up to rounding name a stable point: the first, in
    the order of ``points`` and then of the redraws, whose residual is
    within ``_TIE`` (1e-12) relative of the maximum, or equal to it, as at
    an infinite maximum.  The symmetry of a filter makes ``paraunitary``'s
    residual equal at ``z`` and ``eps z``, and a rounding difference in the
    last bit would otherwise pick either.
    """
    groups, work, failed, rounds, resampled, rng = [], [points], 0, 0, 0, None
    while work:
        batch = work.pop()
        try:
            groups.append((batch, residual(batch)))
        except PoleError:
            if batch.size == 1:
                failed += 1
            else:
                work += [batch[batch.size // 2 :], batch[: batch.size // 2]]
        if failed and not work:
            if rounds == _RETRIES:
                raise SamplingError("exhausted retries while avoiding poles on the circle")
            if rng is None:
                rng = np.random.default_rng(seed ^ 0x5EED)
            work.append(np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=failed)))
            rounds, resampled, failed = rounds + 1, resampled + failed, 0
    zs = np.concatenate([z for z, _ in groups])
    values = np.concatenate([np.reshape(v, (z.size, -1)) for z, v in groups])
    worst = values.max(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf where the maximum is inf
        at = ((values >= worst - _TIE * worst) | (values == worst)).argmax(axis=0)
    return worst, zs[at], resampled


def _values(eval_fn, points: np.ndarray, n: int) -> np.ndarray:
    """``eval_fn`` at all points as a ``(K, n, n)`` stack; ``(n, n)`` broadcasts."""
    values = np.asarray(eval_fn(points), dtype=complex)
    if values.shape not in ((n, n), (points.size, n, n)):
        raise DimensionError(
            f"expected {points.size} values of shape ({n}, {n}), got {values.shape}"
        )
    if not np.isfinite(values).all():
        raise DimensionError("matrix entries must be finite (no NaN/Inf)")
    return np.broadcast_to(values, (points.size, n, n))


def _symmetry_residual(values: np.ndarray) -> np.ndarray:
    """``||F(eps z) - F(z) P||_F`` per point from the stack ``[F(eps z); F(z)]``.

    ``P`` sends ``e_j`` to ``e_{j+1}`` cyclically, so column ``j`` of
    ``F(z) P`` is column ``j + 1`` of ``F(z)``: a roll of the columns,
    taken as two slice subtractions into one array.
    """
    rotated, plain = np.split(values, 2)
    diff = np.empty_like(plain)
    np.subtract(rotated[..., :-1], plain[..., 1:], out=diff[..., :-1])
    np.subtract(rotated[..., -1:], plain[..., :1], out=diff[..., -1:])
    return np.linalg.norm(diff, axis=(1, 2))


def _unitarity_residual(values: np.ndarray) -> np.ndarray:
    """``||F(z)* F(z) - I||_F`` per point of the stack ``F(z)``, with the 1
    taken off the Gram diagonal in place."""
    diagonal = np.arange(values.shape[-1])
    gram = np.swapaxes(values.conj(), 1, 2) @ values
    gram[:, diagonal, diagonal] -= 1.0
    return np.linalg.norm(gram, axis=(1, 2))


def _circle_reports(names, residual, sample_points, tol, seed) -> list[CheckReport]:
    """One report per column of ``residual`` over ``sample_points`` circle points."""
    worst, where, resampled = _max_circle_residual(
        residual, unit_circle_points(sample_points, seed), seed
    )
    return [
        CheckReport(name, float(w), tol, sample_count=sample_points, seed=seed,
                    resampled=resampled, argmax_z=complex(z))
        for name, w, z in zip(names, worst, where)
    ]


def circle_checks(
    eval_fn, n: int, sample_points: int = 64, tol: float = TOL, seed: int = 0
) -> tuple[CheckReport, CheckReport]:
    """The ``symmetry`` and ``paraunitary`` checks on the circle, from one evaluation.

    ``symmetry`` is the column-rotation symmetry ``F(eps z) = F(z) P``,
    ``eps = exp(2i*pi/n)``, and ``paraunitary`` is ``F(z)* F(z) = I``; each
    report carries the max Frobenius residual over the sampled points and
    the point where it is reached.  ``eval_fn`` maps an array of ``K``
    points to a ``(K, n, n)`` stack of values (a constant ``(n, n)`` result
    broadcasts).  It is called with ``eps z`` and ``z`` for all points at
    once, and the unitarity residual is read off the values at ``z``.  A
    point where ``eval_fn`` raises ``PoleError`` is redrawn for both, so
    both reports carry the same ``resampled`` count.  Finite values whose
    residual overflows give ``inf``, never NaN.
    """
    n, sample_points = _count(n), _count(sample_points, "sample count", 1)
    seed = _count(seed, "seed", 0)
    root = np.exp(2j * np.pi / n)

    def residual(zs):
        values = _values(eval_fn, np.concatenate([root * zs, zs]), n)
        plain = values[zs.size :]
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.stack([_symmetry_residual(values), _unitarity_residual(plain)], axis=1)
        # the values are finite, so a NaN residual is an overflow (inf - inf)
        out[np.isnan(out)] = np.inf
        return out

    return tuple(_circle_reports(["symmetry", "paraunitary"], residual, sample_points, tol, seed))


def subband_filters(params: FilterParameters) -> FilterParameters:
    """The FIR gate of the subband path: ``params`` itself, when every
    ``alpha_j`` is 0.

    For ``alpha = 0`` each factor is ``V(w) = I + (1/w - 1) v v*``: one
    inner product and one unit delay on the polyphase components, which is
    all :func:`wfk.signal.analyze` and :func:`wfk.signal.synthesize` need.
    They, :func:`wfk.signal.synthesis_delay` and
    :attr:`FilterParameters.responses` pass this gate.

    Raises
    ------
    FirRequiredError
        If any ``alpha_j`` is nonzero (the filter is not polynomial).
    """
    if not params.is_fir():
        raise FirRequiredError("subband impulse responses require all alpha = 0")
    return params
