"""Parameter space and evaluation of N-band wavelet filters.

A wavelet filter here is an N x N rational matrix function that is unitary
on the unit circle and whose columns are the rotates ``f(z), f(eps z), ...,
f(eps^{N-1} z)`` of a single column, ``eps = exp(2i*pi/N)``.  Every such
filter factors as a product of degree-one rank-one unitary factors in
``z**N`` applied to the elementary filter ``diag(1, 1/z, ..., z**-(N-1)) @ Q``
with ``Q`` the unitary DFT matrix.  ``FilterParameters`` stores exactly the
data of that factorization; ``BoxPoint`` is the equivalent coordinate
parametrization over a real box, convenient for sampling and optimization.

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

from dataclasses import dataclass
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
# sample_parameters keeps |alpha| at or below this even when rho = 1.
_ALPHA_CAP = 0.999


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Factor:
    """One degree-one unitary factor: a unit vector ``v`` and a pole ``alpha``.

    The factor acts as ``I + (phi(z**n) - 1) v v*`` where ``phi`` is the
    scalar all-pass ``(1 - conj(alpha) w) / (w - alpha)``; only ``v v*``
    matters, so ``v`` is stored up to a global phase.
    """

    v: np.ndarray
    alpha: complex

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise InvariantError("factor vector must have finite entries")
        with np.errstate(over="ignore"):  # a huge entry gives inf, rejected below
            nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > _UNIT_NORM_TOL:
            raise InvariantError(f"factor vector must have unit norm, got {float(nrm)!r}")
        alpha = complex(self.alpha)
        if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
            raise InvariantError("alpha must be finite")
        if abs(alpha) >= 1.0:
            raise InvariantError(f"|alpha| must be < 1, got {abs(alpha)!r}")
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class FilterParameters:
    """Full parameter point: band count, factor list and spectral-radius bound.

    ``rho`` bounds every ``|alpha_j|`` strictly; ``rho = 0`` forces all
    ``alpha_j = 0`` (the FIR filters).  ``m = len(factors)`` is the index of
    the filter and fixes its minimal state dimension ``n*((n-1)/2 + m)``.
    """

    n: int
    rho: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise InvariantError(f"band count must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        rho = float(self.rho)
        if not 0.0 <= rho <= 1.0:
            raise InvariantError(f"rho must lie in [0, 1], got {rho!r}")
        object.__setattr__(self, "rho", rho)
        factors = tuple(self.factors)
        for f in factors:
            if f.v.shape != (self.n,):
                raise InvariantError(
                    f"factor vector has dimension {f.v.shape[0]}, expected {self.n}"
                )
            if rho == 0.0:
                if f.alpha != 0:
                    raise InvariantError("rho = 0 forces every alpha to be exactly 0")
            elif abs(f.alpha) >= rho:
                raise InvariantError(
                    f"|alpha| = {abs(f.alpha)!r} must be strictly below rho = {rho!r}"
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
    def _factor_stack(self) -> tuple[np.ndarray, ...]:
        """The factors as arrays for :func:`wavelet_eval`, built on first use.

        ``(vectors, conjugates, alphas, alpha_conjugates, outers)``: the
        vectors and their conjugates as ``(m, n)`` rows, the poles and their
        conjugates as ``(m,)`` and the projections ``v v*`` as ``(m, n, n)``.
        """
        vectors = np.array([f.v for f in self.factors], dtype=complex).reshape(-1, self.n)
        alphas = np.array([f.alpha for f in self.factors], dtype=complex)
        return (
            _frozen(vectors),
            _frozen(vectors.conj()),
            _frozen(alphas),
            _frozen(alphas.conj()),
            _frozen(vectors[:, :, None] * vectors.conj()[:, None, :]),
        )


@dataclass(frozen=True)
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
        if self.n < 2:
            raise InvariantError(f"band count must be >= 2, got {self.n!r}")
        rho = float(self.rho)
        if not 0.0 <= rho <= 1.0:
            raise InvariantError(f"rho must lie in [0, 1], got {rho!r}")
        object.__setattr__(self, "rho", rho)
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 * self.n:
            raise InvariantError(
                f"coords must have shape (m, {2 * self.n}), got {coords.shape}"
            )
        if not np.isfinite(coords).all():
            raise InvariantError("box coordinates must be finite")
        two_pi = 2 * np.pi
        for row in coords:
            if not 0.0 <= row[0] < np.pi:
                raise InvariantError(f"delta_1 = {row[0]!r} outside [0, pi)")
            for ang in row[1 : 2 * self.n - 1]:
                if not 0.0 <= ang < two_pi:
                    raise InvariantError(f"angle {ang!r} outside [0, 2*pi)")
            r = row[2 * self.n - 1]
            if rho == 0.0:
                if r != 0.0:
                    raise InvariantError("rho = 0 pins the radius coordinate to 0")
            elif not 0.0 <= r < rho:
                raise InvariantError(f"radius {r!r} outside [0, {rho!r})")
        object.__setattr__(self, "coords", _frozen(coords))

    @property
    def m(self) -> int:
        return self.coords.shape[0]


def _lattice(y: np.ndarray, vectors: np.ndarray, shift: int) -> None:
    """Apply ``I + (S - I) v v*`` for each ``v`` in turn to the rows of ``y``.

    ``S`` rolls a row circularly by ``shift`` samples: ``1`` is the unit
    delay ``1/w`` of a factor, ``-1`` its adjoint.  Works in place.
    """
    for v in vectors:
        s = v.conj() @ y
        d = np.empty_like(s)
        d[shift:] = s[:-shift]
        d[:shift] = s[-shift:]
        d -= s
        for row, vi in zip(y, v):
            row += vi * d


@dataclass(frozen=True)
class SubbandFilterSet:
    """The N subband filters of a polynomial filter, kept as its FIR factors.

    ``vectors`` holds one unit vector per factor, row ``j`` for ``V_{j+1}``,
    in stored order; it is the only data.  The impulse responses (the first
    column of the filter as a polynomial in ``1/z``) and their maximal
    length are derived from it on first use.  Built by
    :func:`subband_filters`.
    """

    n: int
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=complex).reshape(-1, self.n)
        object.__setattr__(self, "vectors", _frozen(vectors))

    @cached_property
    def responses(self) -> tuple[np.ndarray, ...]:
        """First-column taps, each trimmed after its last nonzero tap.

        The impulse runs through :func:`_lattice` laid out as ``y[i, r, j]``
        = tap ``n*j + r`` of band ``i``, so the delay ``z**-n`` of a factor
        is a shift by one in ``j``.  The shift never wraps a nonzero tap:
        before factor ``k`` only ``j < k`` is filled.
        """
        n = self.n
        y = np.zeros((n, n, self.vectors.shape[0] + 1), dtype=complex)
        # tap i of band i is 1/sqrt(n): the first column of diag(z**-i) @ Q
        y[np.arange(n), np.arange(n), 0] = 1.0 / np.sqrt(n)
        _lattice(y.reshape(n, -1), self.vectors, 1)
        responses = []
        for coeffs in y.transpose(0, 2, 1).reshape(n, -1):
            last = np.nonzero(np.abs(coeffs) > 0.0)[0]
            end = last[-1] + 1 if last.size else 1
            responses.append(_frozen(coeffs[:end]))
        return tuple(responses)

    @property
    def max_length(self) -> int:
        return max(h.size for h in self.responses)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled verification check; reproducible from its fields."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    sample_count: int
    seed: int
    # circle points redrawn because a draw hit a pole
    resampled: int = 0
    # wall time of the check in milliseconds, where the caller measured it
    wall_ms: float = 0.0
    # circle point of the largest residual; None for a check off the circle
    argmax_z: complex | None = None

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise InvariantError("pass flag must equal (residual <= tolerance)")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries ``eps**(-j*k) / sqrt(n)`` (0-indexed)."""
    if n < 2:
        raise InvariantError(f"band count must be >= 2, got {n!r}")
    return _dft_cached(int(n)).copy()


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    return _frozen(np.eye(n))


@lru_cache(maxsize=None)
def _negative_range(n: int) -> np.ndarray:
    return _frozen(-np.arange(n))


@lru_cache(maxsize=None)
def _dft_cached(n: int) -> np.ndarray:
    eps = np.exp(2j * np.pi / n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return _frozen(eps ** (-j * k) / np.sqrt(n))


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
    :func:`_wavelet_point`, which forms every ``I + s_j v_j v_j*`` in one
    ``(m, n, n)`` stack and multiplies neighbours pairwise,
    ``ceil(log2 m)`` stacked products.  An array of any size computes
    ``z**n`` and the ``m`` all-pass scales ``s_j`` once for all points,
    and each factor is one rank-one update ``W += s_j v (v* W)`` of the
    ``n x (K*n)`` row-stacked values, whose innermost loop runs over the
    ``K*n`` contiguous entries.

    Raises
    ------
    PoleError
        When any point is ``0`` or has ``z**n`` at one of the ``alpha_j``.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return _wavelet_point(params, complex(z))
    n = params.n
    points = z.reshape(-1)
    if (np.abs(points) <= _POLE_TOL).any():
        raise PoleError("elementary filter has a pole at z = 0")
    # w[i, k, j] = W(z_k)[i, j]; its n x (K*n) view w2 turns v* W into one product
    powers = points ** _negative_range(n)[:, None]
    w = np.multiply(powers[:, :, None], _dft_cached(n)[:, None, :], order="C")
    if params.factors:
        vectors, conjugates, alphas, _, _ = params._factor_stack
        scales = blaschke(alphas[:, None], points ** n) - 1.0
        w2 = w.reshape(n, -1)
        for v, vc, s in zip(vectors[:, :, None], conjugates, scales[:, :, None]):
            # W += s v (v* W) at every point at once
            t = (vc @ w2).reshape(-1, n)
            t *= s
            w2 += v * t.reshape(1, -1)
    return w.transpose(1, 0, 2).reshape(z.shape + (n, n))


def _wavelet_point(params: FilterParameters, z: complex) -> np.ndarray:
    """The filter at one point: ``prod_j (I + s_j v_j v_j*) @ E(z)``.

    ``s_j = phi_j(z**n) - 1`` by the expression of :func:`blaschke`, whose
    pole guard is one minimum over the factors.
    """
    n = params.n
    if abs(z) <= _POLE_TOL:
        raise PoleError("elementary filter has a pole at z = 0")
    base = (z ** _negative_range(n))[:, None] * _dft_cached(n)
    if not params.factors:
        return base
    _, _, alphas, alpha_conjugates, outers = params._factor_stack
    w = z**n
    den = w - alphas
    if np.abs(den).min() <= _POLE_TOL * max(1.0, abs(w)):
        raise PoleError(f"all-pass factor evaluated at its pole (w = {w!r})")
    scales = (1.0 - alpha_conjugates * w) / den - 1.0
    return _pairwise_product(_eye(n) + scales[:, None, None] * outers) @ base


def _pairwise_product(f: np.ndarray) -> np.ndarray:
    """The product ``f[m-1] @ ... @ f[0]`` of an ``(m, n, n)`` stack by
    stacked products of neighbours."""
    while f.shape[0] > 1:
        even = f.shape[0] // 2 * 2
        pairs = f[1:even:2] @ f[:even:2]
        f = np.concatenate([pairs, f[even:]]) if even < f.shape[0] else pairs
    return f[0]


def _wrap_angle(x: float) -> float:
    """Reduce to [0, 2*pi); the modulo can round a tiny negative up to 2*pi."""
    out = x % (2 * np.pi)
    return 0.0 if out >= 2 * np.pi else out


def _factor_to_coords(n: int, v: np.ndarray, alpha: complex) -> np.ndarray:
    """Canonical box coordinates of one factor (inverse of the modulus chain)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    nz = np.nonzero(np.abs(v) > _UNIT_NORM_TOL)[0]
    if nz.size == 0:
        raise InvariantError("factor vector is numerically zero")
    anchor = v[nz[0]]
    # Rotate away a genuinely complex global phase; a real anchor (either
    # sign) is left untouched so box-generated vectors invert exactly.
    if abs(anchor.imag) > _UNIT_NORM_TOL * abs(anchor):
        v = v * np.exp(-1j * np.angle(anchor))
    lead = float(np.clip(v[0].real, -1.0, 1.0))
    if lead == -1.0:
        # the box keeps delta_1 strictly below pi; the sign flip changes
        # nothing downstream since only v v* enters the filter
        v = -v
        lead = 1.0
    coords = np.zeros(2 * n)
    coords[0] = np.arccos(lead)
    mods = np.abs(v)
    for k in range(1, n - 1):
        tail = np.linalg.norm(mods[k + 1 :])
        coords[k] = np.arctan2(tail, mods[k])
    for k in range(1, n):
        phase = np.angle(v[k]) if mods[k] > _UNIT_NORM_TOL else 0.0
        coords[n - 2 + k] = _wrap_angle(phase)
    alpha = complex(alpha)
    if alpha != 0:
        coords[2 * n - 2] = _wrap_angle(np.angle(alpha))
        coords[2 * n - 1] = abs(alpha)
    return coords


def _coords_to_factor(n: int, row: np.ndarray) -> Factor:
    """Build one factor from a row of box coordinates."""
    deltas = np.concatenate(([row[0]], row[1 : n - 1]))
    phases = np.concatenate(([0.0], row[n - 1 : 2 * n - 2]))
    mods = np.empty(n)
    prefix = 1.0
    for k in range(n - 1):
        mods[k] = prefix * np.cos(deltas[k])
        prefix *= np.sin(deltas[k])
    mods[n - 1] = prefix
    v = mods * np.exp(1j * phases)
    alpha = row[2 * n - 1] * np.exp(1j * row[2 * n - 2])
    return Factor(v=v, alpha=alpha)


def box_to_params(box: BoxPoint) -> FilterParameters:
    """Map box coordinates to filter parameters (surjective by construction)."""
    factors = tuple(_coords_to_factor(box.n, row) for row in box.coords)
    return FilterParameters(n=box.n, rho=box.rho, factors=factors)


def params_to_box(params: FilterParameters) -> BoxPoint:
    """Canonical box coordinates of ``params``.

    Inverts :func:`box_to_params` whenever each stored vector has a real
    first component; vectors with a complex first component are first
    rotated by a global phase (which leaves the filter unchanged).  The
    returned modulus-chain angles always lie in ``[0, pi/2]``, the
    canonical section of the (many-to-one) box map.
    """
    coords = np.array(
        [_factor_to_coords(params.n, f.v, f.alpha) for f in params.factors]
    ).reshape(params.m, 2 * params.n)
    return BoxPoint(n=params.n, rho=params.rho, coords=coords)


def sample_box(seed: int, n: int, m: int, rho: float) -> BoxPoint:
    """Draw box coordinates uniformly; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    coords = np.zeros((m, 2 * n))
    if m:
        coords[:, 0] = rng.uniform(0.0, np.pi, size=m)
        coords[:, 1 : 2 * n - 1] = rng.uniform(0.0, 2 * np.pi, size=(m, 2 * n - 2))
        cap = min(float(rho), _ALPHA_CAP)
        if cap > 0.0:
            coords[:, 2 * n - 1] = rng.uniform(0.0, cap, size=m)
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
    if count < 1:
        raise InvariantError(f"sample count must be >= 1, got {count!r}")
    grid = (count + 1) // 2
    det = np.exp(2j * np.pi * np.arange(grid) / grid)
    rng = np.random.default_rng(seed)
    rand = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=count - grid))
    return np.concatenate([det, rand])


_RETRIES = 8
# Relative distance from a check's maximum within which residuals tie.
_TIE = 1e-12


def _sample_residuals(residual, points: np.ndarray) -> tuple[list, np.ndarray]:
    """``residual`` at the points where it does not raise, and the points where it does.

    ``residual`` takes all points in one call; when it raises
    ``PoleError`` the points are halved until the failing ones are
    isolated, so a single bad point costs about ``log2(K)`` extra calls.
    Returns the ``(points, residuals)`` pairs of the calls that succeeded
    and the array of failed points.
    """
    try:
        return [(points, residual(points))], points[:0]
    except PoleError:
        if points.size == 1:
            return [], points
        half = points.size // 2
        (ga, fa), (gb, fb) = (
            _sample_residuals(residual, part) for part in (points[:half], points[half:])
        )
        return ga + gb, np.concatenate([fa, fb])


def _max_circle_residual(
    residual, points: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Column-wise max of ``residual`` over ``points``, where it is reached, and the redraws.

    ``residual`` maps ``K`` points to ``K`` residuals, or to a ``(K, c)``
    array of ``c`` residuals per point.  Returns the ``c`` maxima, the
    point at which each is reached and the number of redrawn points.  Only
    the points where ``residual`` hit a pole are redrawn, from an rng
    seeded by ``seed``, for at most ``_RETRIES`` rounds; a point redrawn in
    two rounds counts twice.

    Residuals that tie up to rounding name a stable point: the first, in
    the order of ``points`` and then of the redraws, whose residual is
    within ``_TIE`` (1e-12) relative of the maximum.  The symmetry of a
    filter makes ``paraunitary``'s residual equal at ``z`` and ``eps z``,
    and a rounding difference in the last bit would otherwise pick either.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    groups, failed = _sample_residuals(residual, points)
    resampled = 0
    for _ in range(_RETRIES):
        if not failed.size:
            break
        redraw = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=failed.size))
        resampled += redraw.size
        more, failed = _sample_residuals(residual, redraw)
        groups += more
    if failed.size:
        raise SamplingError("exhausted retries while avoiding poles on the circle")
    zs = np.concatenate([z for z, _ in groups])
    values = np.concatenate([np.reshape(v, (z.size, -1)) for z, v in groups])
    worst = values.max(axis=0)
    at = (values >= worst - _TIE * worst).argmax(axis=0)
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
    ``F(z) P`` is column ``j + 1`` of ``F(z)``: a roll of the columns.
    """
    rotated, plain = np.split(values, 2)
    return np.linalg.norm(rotated - np.roll(plain, -1, axis=-1), axis=(1, 2))


def _unitarity_residual(values: np.ndarray) -> np.ndarray:
    """``||F(z)* F(z) - I||_F`` per point of the stack ``F(z)``."""
    eye = np.eye(values.shape[-1])
    return np.linalg.norm(np.swapaxes(values.conj(), 1, 2) @ values - eye, axis=(1, 2))


def _circle_reports(names, residual, sample_points, tol, seed) -> list[CheckReport]:
    """One report per column of ``residual`` over ``sample_points`` circle points."""
    worst, where, resampled = _max_circle_residual(
        residual, unit_circle_points(sample_points, seed), seed
    )
    return [
        CheckReport(
            name, float(w), tol, float(w) <= tol, sample_points, seed, resampled,
            argmax_z=complex(z),
        )
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
    both reports carry the same ``resampled`` count.
    """
    root = np.exp(2j * np.pi / n)

    def residual(zs):
        values = _values(eval_fn, np.concatenate([root * zs, zs]), n)
        plain = values[zs.size :]
        return np.stack([_symmetry_residual(values), _unitarity_residual(plain)], axis=1)

    return tuple(_circle_reports(["symmetry", "paraunitary"], residual, sample_points, tol, seed))


def subband_filters(params: FilterParameters) -> SubbandFilterSet:
    """The N subband filters of a polynomial filter, kept as its factors.

    For ``alpha = 0`` each factor is ``V(w) = I + (1/w - 1) v v*``: one
    inner product and one unit delay on the polyphase components, which is
    all :func:`wfk.signal.analyze` and :func:`wfk.signal.synthesize` need.
    The impulse responses are read off the same factors (see
    :class:`SubbandFilterSet`); the length never exceeds ``n*(m + 1)``.

    Raises
    ------
    FirRequiredError
        If any ``alpha_j`` is nonzero (the filter is not polynomial).
    """
    if not params.is_fir():
        raise FirRequiredError("subband impulse responses require all alpha = 0")
    vectors = np.array([f.v for f in params.factors], dtype=complex)
    return SubbandFilterSet(n=params.n, vectors=vectors)
