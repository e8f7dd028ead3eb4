"""State-space realizations of wavelet filters and their certificates.

Every filter produced by :mod:`wfk.filters` is rational and bounded at
infinity, hence realizable as ``F(z) = C (zI - A)**-1 B + D``.  This module
builds such realizations constructively: a permutation-based realization of
the elementary filter, a bidiagonal core for each degree-one factor, and a
series cascade that raises the index one factor at a time.  Verification
tools certify the construction: a Stein-equation certificate for circle
unitarity and exact degree accounting.  The same certificate decides
minimality: when ``M* diag(H, I) M = diag(H, I)`` holds for the system
matrix ``M`` with ``A`` stable and ``H > 0``, the ``H``-balanced system
matrix is unitary, so both of its Gramians are the identity and the
realization is minimal (the discrete-time bounded-real lemma).  ``H > 0``
is tested with a relative margin, ``H > delta ||H||_1 I`` with
``delta = 1e-12``; see :func:`stein_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    InvariantError,
    PoleError,
    SingularMatrixError,
)
from .filters import FilterParameters, dft_matrix
from .linalg import adjoint, as_matrix, solve_linear


# eval_realization picks its solver by the number of points in a call.  From
# _ROW_MIN_POINTS points on, an upper-triangular A is solved state by state
# (one vectorized update per row of A), which is several times cheaper than
# LU once the points amortize the Python loop over the rows; below it (one
# point at a time, as a sweep evaluates) and for any A that is not upper
# triangular, diagonal blocks of at most _BLOCK states get one stacked LU
# each.  20 splits the state dimension 38 of (n, m) = (4, 8) into two
# blocks, which measured no slower than one dense LU for a single point.
# The points go through in chunks: a state-by-state chunk holds at most
# _ROW_ENTRIES entries of X, a block chunk at most _CHUNK_ENTRIES entries
# of its largest stacked array.
_BLOCK = 20
_CHUNK_ENTRIES = 1 << 16
_ROW_MIN_POINTS = 8
_ROW_ENTRIES = 1 << 18


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _eye(size: int) -> np.ndarray:
    out = np.eye(size)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Realization:
    """System matrix blocks of ``x(t+1) = A x + B u``, ``y = C x + D u``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a)
        d = as_matrix(self.d)
        p = a.shape[0]
        if a.shape[1] != p:
            raise InvariantError(f"state block must be square, got {a.shape}")
        b = as_matrix(self.b, rows=p, cols=d.shape[1])
        c = as_matrix(self.c, rows=d.shape[0], cols=p)
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "d", _frozen(d))

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def outputs(self) -> int:
        return self.d.shape[0]

    @property
    def inputs(self) -> int:
        return self.d.shape[1]

    @cached_property
    def upper_triangular(self) -> bool:
        """True when ``A`` has no nonzero entry below its diagonal.

        Every cascade realization has this shape; a realization file keeps
        it exactly, since its zeros are stored as zeros.
        """
        return not np.tril(self.a, -1).any()

    @cached_property
    def _solve_plan(self) -> tuple[tuple, int]:
        """Diagonal blocks for :func:`eval_realization` and its points per chunk.

        A block is ``(lo, hi, A[lo:hi, lo:hi], A[lo:hi, hi:], B[lo:hi], I)``;
        the blocks are near-equal, at most ``_BLOCK`` states each, and listed
        last first.  A state matrix that is not upper triangular is one block.
        """
        p = self.state_dim
        count = -(-p // _BLOCK) if self.upper_triangular else 1
        edges = [k * p // count for k in range(count + 1)] if p else []
        a, b = self.a, self.b
        blocks = tuple(
            (lo, hi, a[lo:hi, lo:hi], a[lo:hi, hi:], b[None, lo:hi], _eye(hi - lo))
            for lo, hi in reversed(list(zip(edges[:-1], edges[1:])))
        )
        size = max((hi - lo for lo, hi, *_ in blocks), default=0)
        chunk = max(1, _CHUNK_ENTRIES // max(size * size, p * self.inputs, 1))
        return blocks, chunk

    @cached_property
    def _row_plan(self) -> tuple[tuple, np.ndarray, np.ndarray, int]:
        """Rows for the state-by-state solve of :func:`eval_realization`.

        Returns the rows, the diagonal of ``A``, the row scales and the points
        per chunk.  A row is ``(i, lo, hi, coefficients, b_i)``, listed last
        first: ``[lo, hi)`` is the nonzero span of row ``i`` of ``A`` right of
        the diagonal (empty when ``lo == hi``), the coefficients are
        ``A[i, lo:hi]`` and ``b_i`` is row ``i`` of ``B``, or None when it is
        zero.  A row whose span is one entry keeps that entry as its scale
        (the scale is 1 for every other row), so the solve folds it into
        ``1 / (z - a_ii)``.  Used only when ``A`` is upper triangular.
        """
        p = self.state_dim
        row, col = np.nonzero(np.triu(self.a, 1))
        lo, hi = np.full(p, p), np.zeros(p, dtype=int)
        np.minimum.at(lo, row, col)
        np.maximum.at(hi, row, col + 1)
        lo = np.minimum(lo, hi)  # a row with no entry gets lo == hi == 0
        single = hi - lo == 1
        scale = np.ones(p, dtype=complex)
        scale[single] = self.a[single, lo[single]]
        spans = zip(range(p), lo.tolist(), hi.tolist(), self.b.any(axis=1).tolist())
        rows = tuple(
            (i, l, h, self.a[i, l:h], self.b[i] if has_b else None)
            for i, l, h, has_b in reversed(list(spans))
        )
        chunk = max(1, _ROW_ENTRIES // max(p * self.inputs, 1))
        return rows, np.diagonal(self.a).copy(), scale, chunk


@dataclass(frozen=True)
class SteinCertificate:
    """Solution and residuals of the circle-unitarity (Stein) equation.

    ``h`` solves ``A* H A + C* C = H``; for a realization of a filter that
    is unitary on the circle the two remaining block identities
    ``A* H B + C* D = 0`` and ``B* H B + D* D = I`` hold as well, and the
    three residual norms certify this numerically.  ``positive_definite``
    means ``H > delta ||H||_1 I`` (``delta = 1e-12``), which with the block
    identities certifies that the realization is minimal; ``norm_h`` is that
    ``||H||_1``.
    """

    h: np.ndarray
    residual_state: float
    residual_cross: float
    residual_input: float
    hermiticity: float
    condition_estimate: float
    positive_definite: bool
    norm_h: float

    def __post_init__(self):
        object.__setattr__(self, "h", _frozen(self.h))

    @property
    def max_block_residual(self) -> float:
        return max(self.residual_state, self.residual_cross, self.residual_input)


def system_matrix(r: Realization) -> np.ndarray:
    """Assemble the ``(p+N) x (p+N)`` block matrix ``[[A, B], [C, D]]``."""
    return np.block([[r.a, r.b], [r.c, r.d]])


def realize_elementary_wavelet(n: int) -> Realization:
    """Realize the minimal-degree filter for ``n`` bands, state dimension
    ``n*(n-1)/2``.

    Stage one builds a permutation system matrix: ``A`` is a direct sum of
    nilpotent Jordan chains of lengths ``1 .. n-1``, the pre-DFT input
    matrix feeds the last state of each chain from inputs ``2 .. n``, the
    output matrix reads each chain head into outputs ``2 .. n``, and the
    pre-DFT ``D`` routes input 1 straight to output 1.  Stage two
    multiplies the input side by the DFT matrix.
    """
    if n < 2:
        raise InvariantError(f"band count must be >= 2, got {n!r}")
    p = n * (n - 1) // 2
    a = np.zeros((p, p), dtype=complex)
    b_pre = np.zeros((p, n), dtype=complex)
    c = np.zeros((n, p), dtype=complex)
    start = 0
    for length in range(1, n):
        for j in range(start, start + length - 1):
            a[j, j + 1] = 1.0
        b_pre[start + length - 1, length] = 1.0
        c[length, start] = 1.0
        start += length
    d_pre = np.zeros((n, n), dtype=complex)
    d_pre[0, 0] = 1.0
    q = dft_matrix(n)
    return Realization(a=a, b=b_pre @ q, c=c, d=d_pre @ q)


def _pole_roots(alpha: complex, n: int) -> np.ndarray:
    """The ``n`` n-th roots of ``alpha``: principal root times each root of unity.

    For ``n = 4`` the order ``(r, -r, ir, -ir)`` is used so the constructed
    matrices match the reference fixtures entry-wise; the transfer function
    does not depend on the order.
    """
    if alpha == 0:
        return np.zeros(n, dtype=complex)
    r = complex(alpha) ** (1.0 / n)
    if n == 4:
        return np.array([r, -r, 1j * r, -1j * r])
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def realize_allpass_core(alpha: complex, n: int) -> Realization:
    """Realize the scalar function ``(1 - |alpha|**2) / (z**n - alpha)``.

    This is the strictly proper part of the degree-one all-pass factor in
    ``z**n``.  The state matrix is upper bidiagonal with the ``n`` n-th
    roots of ``alpha`` on the diagonal (a single nilpotent Jordan block
    when ``alpha = 0``) and ones above it.
    """
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise InvariantError(f"|alpha| must be < 1, got {abs(alpha)!r}")
    a = np.diag(_pole_roots(alpha, n)) + np.diag(np.ones(n - 1), 1)
    gain = np.sqrt(1.0 - abs(alpha) ** 2)
    b = np.zeros((n, 1), dtype=complex)
    b[n - 1, 0] = gain
    c = np.zeros((1, n), dtype=complex)
    c[0, 0] = gain
    return Realization(a=a, b=b, c=c, d=np.zeros((1, 1), dtype=complex))


def realize_decimated_unitary(v, alpha: complex, n: int) -> Realization:
    """Realize ``I + (phi_alpha(z**n) - 1) v v*`` with state dimension ``n``.

    Wraps the scalar core between ``v`` and ``v*``; the feedthrough is
    ``I - (1 + conj(alpha)) v v*``, the value of the factor at infinity
    plus the all-pass constant term.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise InvariantError("v must have unit norm")
    core = realize_allpass_core(alpha, n)
    d = np.eye(v.size) - (1.0 + np.conj(alpha)) * np.outer(v, v.conj())
    return Realization(
        a=core.a,
        b=core.b @ v.conj()[None, :],
        c=v[:, None] @ core.c,
        d=d,
    )


def cascade(delta: Realization, inner: Realization) -> Realization:
    """Realize the product ``F_delta(z) F_inner(z)`` of two realized systems.

    The stacked state matrix is block upper triangular with the ``delta``
    states on top, so cascading factors with triangular cores keeps the
    whole state matrix triangular.
    """
    if delta.inputs != inner.outputs:
        raise DimensionError(
            f"cascade mismatch: delta consumes {delta.inputs}, inner yields {inner.outputs}"
        )
    p_d, p_i = delta.state_dim, inner.state_dim
    a = np.block(
        [
            [delta.a, delta.b @ inner.c],
            [np.zeros((p_i, p_d), dtype=complex), inner.a],
        ]
    )
    b = np.vstack([delta.b @ inner.d, inner.b])
    c = np.hstack([delta.c, delta.d @ inner.c])
    return Realization(a=a, b=b, c=c, d=delta.d @ inner.d)


def realize_wavelet(params: FilterParameters) -> Realization:
    """Build the cascade realization of the filter described by ``params``.

    Starts from the elementary-filter realization and cascades one
    degree-``n`` factor per stored parameter, raising the index by one each
    time; the state dimension is exactly ``n*((n-1)/2 + m)``.
    """
    r = realize_elementary_wavelet(params.n)
    for f in params.factors:
        r = cascade(realize_decimated_unitary(f.v, f.alpha, params.n), r)
    return r


def eval_realization(r: Realization, z) -> np.ndarray:
    """Transfer-function value ``C (zI - A)**-1 B + D`` at a point or an array of points.

    ``z`` may have any shape; the result has shape ``z.shape + (N_out, N_in)``,
    so a scalar ``z`` gives one matrix.  When ``A`` is upper triangular, as
    every cascade is, and the call has at least 8 points, ``(zI - A) X = B``
    is solved one state at a time, last state first:
    ``x_i = (b_i + A[i, lo:hi] x[lo:hi]) / (z - a_ii)`` over the nonzero span
    ``[lo, hi)`` of row ``i``, for all points at once.  Fewer points go by
    block back-substitution over diagonal blocks of at most 20 states, one
    stacked ``numpy.linalg.solve`` per block; a state matrix that is not upper
    triangular is a single block, which is plain LU.  The points go through
    in chunks that keep the work arrays at a few MB.

    Raises
    ------
    PoleError
        If ``zI - A`` is singular at any point or the value is not finite.
    """
    z = np.asarray(z, dtype=complex)
    points = z.reshape(-1)
    if r.upper_triangular and points.size >= _ROW_MIN_POINTS:
        solve, chunk = _sweep, r._row_plan[3]
    else:
        solve, chunk = _transfer, r._solve_plan[1]
    values = np.empty((points.size,) + r.d.shape, dtype=complex)
    try:
        for k in range(0, points.size, chunk):
            solve(r, points[k : k + chunk], values[k : k + chunk])
    except np.linalg.LinAlgError:
        values = None
    if values is None or not np.isfinite(values).all():
        if points.size > 1:
            for point in points:
                eval_realization(r, point)  # raises, naming the first pole
        where = f"z = {complex(points[0])!r}" if points.size == 1 else "a sampled point"
        raise PoleError(f"{where} is a pole of the realization")
    return values.reshape(z.shape + r.d.shape)


def _transfer(r: Realization, points: np.ndarray, out: np.ndarray) -> None:
    """``C X + D`` for one chunk of points, back-substituting block by block."""
    p = r.state_dim
    x = np.empty((points.size, p, r.inputs), dtype=complex)
    zs = points[:, None, None]
    for lo, hi, a_ii, a_right, b_i, eye in r._solve_plan[0]:
        rhs = b_i + a_right @ x[:, hi:] if hi < p else b_i
        x[:, lo:hi] = np.linalg.solve(zs * eye - a_ii, rhs)
    np.add(r.c @ x, r.d, out=out)


def _sweep(r: Realization, points: np.ndarray, out: np.ndarray) -> None:
    """``C X + D`` for one chunk of points, solving state by state.

    ``X`` is kept state-major, shape ``(p, K, N_in)``, so each state's
    values are one contiguous slice.  A zero divisor ``z - a_ii`` raises
    ``LinAlgError``, as a singular LU would.
    """
    rows, diagonal, scale, _ = r._row_plan
    p, k, n_in = r.state_dim, points.size, r.inputs
    divisor = points[None, :] - diagonal[:, None]
    if not divisor.all():
        raise np.linalg.LinAlgError("zI - A is singular")
    x = np.empty((p, k, n_in), dtype=complex)
    with np.errstate(all="ignore"):
        inverse = 1.0 / divisor
        gain = (inverse * scale[:, None])[:, :, None]
        inverse = inverse[:, :, None]
        for i, lo, hi, coef, b_i in rows:
            x_i = x[i]
            if hi - lo == 1:
                np.multiply(x[lo], gain[i], out=x_i)
                if b_i is not None:
                    x_i += inverse[i] * b_i
            elif hi > lo:
                np.matmul(coef, x[lo:hi].reshape(hi - lo, k * n_in), out=x_i.reshape(-1))
                if b_i is not None:
                    x_i += b_i
                x_i *= inverse[i]
            elif b_i is not None:
                np.multiply(inverse[i], b_i, out=x_i)
            else:
                x_i.fill(0.0)
        y = r.c @ x.reshape(p, k * n_in)
    np.add(y.reshape(-1, k, n_in).transpose(1, 0, 2), r.d, out=out)


def impulse_response(r: Realization, horizon: int) -> list[np.ndarray]:
    """Matrix taps ``h(0) = D`` and ``h(k) = C A**(k-1) B`` for ``k < horizon``."""
    if horizon < 1:
        raise InvariantError(f"horizon must be >= 1, got {horizon!r}")
    taps = [np.array(r.d)]
    reach = np.array(r.b)
    for _ in range(1, horizon):
        taps.append(r.c @ reach)
        reach = r.a @ reach
    return taps


def mcmillan_degree(params: FilterParameters) -> int:
    """Minimal state dimension of the filter: ``n*(n-1)/2 + n*m`` exactly."""
    return params.n * (params.n - 1) // 2 + params.n * params.m


def spectral_radius(params: FilterParameters) -> float:
    """Largest eigenvalue modulus of the realized state matrix.

    The factor cores contribute the n-th roots of each ``alpha_j`` and the
    elementary block contributes zeros, so the radius is
    ``max_j |alpha_j|**(1/n)`` (zero for FIR parameters).
    """
    if not params.factors:
        return 0.0
    return max(abs(f.alpha) ** (1.0 / params.n) for f in params.factors)


_STEIN_MAX_DOUBLINGS = 64
_STEIN_STOP = 1e-12
# Relative margin of the positive-definiteness test.  On valid filters
# lambda_min(H) / ||H||_1 measured >= 2.1e-2 up to (n, m, rho) = (4, 8, 0.9),
# >= 5.6e-7 at (12, 16, 0.999) and >= 3.2e-9 at (16, 32, 0.999); with a
# hidden (unobservable, uncontrollable) state in a random unitary basis it
# measured between -9e-17 and 1.6e-16.  1e-12 sits over three decades from
# both, where 1e-9 would leave a factor of 3 at (16, 32, 0.999).
_PD_MARGIN = 1e-12


def stein_certificate(r: Realization) -> SteinCertificate:
    """Solve ``A* H A + C* C = H`` and report the three Stein block residuals.

    ``H`` is accumulated from the convergent series ``sum_k (A*)**k C*C A**k``
    with doubling acceleration, which converges quadratically whenever the
    spectral radius of ``A`` is below one.  The certificate reports
    Hermiticity, a condition estimate (infinite for singular ``H``), and
    whether ``H > delta ||H||_1 I`` with ``delta = 1e-12``, tested by one
    Cholesky factorization.  Together with the block identities this
    certifies minimality: the ``H``-balanced system matrix is then unitary,
    so both of its Gramians are the identity.  A plain Cholesky of ``H`` is
    not enough, since rounding lets it succeed on ``H`` with a hidden state
    and ``lambda_min(H) / ||H||_1`` near ``1e-17``.  A singular or
    indefinite ``H`` is flagged, not rejected.

    Raises
    ------
    ConvergenceError
        If the series fails to settle within the iteration cap (state
        matrix not asymptotically stable).
    """
    p = r.state_dim
    h = adjoint(r.c) @ r.c
    power = np.array(r.a)
    for _ in range(_STEIN_MAX_DOUBLINGS):
        inc = adjoint(power) @ h @ power
        h = h + inc
        # max-abs avoids the overflow a squared Frobenius norm would hit
        # while detecting divergence
        scale = float(np.abs(h).max()) if h.size else 0.0
        if not np.isfinite(h).all() or scale > 1e100:
            raise ConvergenceError(
                "Stein series diverged; spectral radius appears to be >= 1"
            )
        if h.size == 0 or np.abs(inc).max() <= _STEIN_STOP * max(1.0, scale):
            break
        power = power @ power
    else:
        raise ConvergenceError(
            "Stein series did not converge; spectral radius appears to be >= 1"
        )
    residual_state = float(np.linalg.norm(adjoint(r.a) @ h @ r.a + adjoint(r.c) @ r.c - h))
    residual_cross = float(np.linalg.norm(adjoint(r.a) @ h @ r.b + adjoint(r.c) @ r.d))
    residual_input = float(
        np.linalg.norm(adjoint(r.b) @ h @ r.b + adjoint(r.d) @ r.d - np.eye(r.inputs))
    )
    hermiticity = float(np.linalg.norm(h - adjoint(h)))
    condition, positive, norm_h = 1.0, True, 0.0
    if p:
        norm_h = float(np.linalg.norm(h, ord=1))
        try:
            condition = norm_h * float(np.linalg.norm(solve_linear(h, np.eye(p)), ord=1))
        except SingularMatrixError:
            condition = float("inf")
        try:
            np.linalg.cholesky((h + adjoint(h)) / 2.0 - _PD_MARGIN * norm_h * np.eye(p))
        except np.linalg.LinAlgError:
            positive = False
    return SteinCertificate(
        h=h,
        residual_state=residual_state,
        residual_cross=residual_cross,
        residual_input=residual_input,
        hermiticity=hermiticity,
        condition_estimate=condition,
        positive_definite=positive,
        norm_h=norm_h,
    )
