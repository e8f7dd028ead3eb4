"""State-space realizations of wavelet filters and their certificates.

Every filter produced by :mod:`wfk.filters` is rational and bounded at
infinity, hence realizable as ``F(z) = C (zI - A)**-1 B + D``.  This module
builds such realizations constructively: a permutation-based realization of
the elementary filter, a bidiagonal core for each degree-one factor, and a
series cascade that raises the index one factor at a time.  Verification
tools certify the construction: a Stein-equation certificate for circle
unitarity and exact degree accounting.  A cascade of lossless sections has
a block-diagonal Stein solution, one block per section, which the
certificate takes in closed form.  The same certificate decides
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
)
from .filters import (
    _UNIT_NORM_TOL,
    TOL,
    FilterParameters,
    _eye,
    _frozen,
    _point_or_array,
    dft_matrix,
)

# An array chunk of eval_realization holds at most _CHUNK_ENTRIES entries of
# each work array (X and the ratios that give Q in _sweep, the stacked
# zI - A in _lu, C X in both), or one point when that needs more.  2**15
# complex entries are 512 KiB.  Measured with one BLAS thread on a 2-CPU
# host, as ms for one 512-point call (warm heap, median of 3 in-process
# runs interleaving the budgets) / minor faults of one `wfk verify` of a
# realization file (in the certify benchmark's order; at (16,32) a loop of
# verifies in a fresh process):
#
#   budget        2**18         2**16         2**15         2**14
#   (4,8,.9)      1.08 / 16     1.10 / 33     1.09 / 33     1.15 / 22
#   (8,16,.99)    2.77 / 740    2.56 / 515    2.23 / 134    2.57 / 15
#   (12,16,.999)  5.28 / 2258   5.28 / 1536   5.79 / 843    6.86 / 846
#   (16,32,.999) 13.41 / 2385  11.89 / 1415  13.91 / 1433  17.33 / 1500
#
# 2**15 faults half as often as 2**16 at n = 8 and 12; 2**14 faults no
# less and computes slower.  With one BLAS thread the values' bytes do not
# depend on the budget, or on a point's place in the array, only when N_in
# is a multiple of 4: otherwise BLAS rounds a column of _sweep's
# vector-matrix products by its place in the unrolled loop, which moved
# values by up to 6.5e-16 of their largest modulus at N_in = 2, 3 and 5.
_CHUNK_ENTRIES = 1 << 15


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex matrix, checking finiteness and shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionError("matrix entries must be finite (no NaN/Inf)")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"expected {cols} cols, got {m.shape[1]}")
    return m


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
        return self._upper_pattern is not None

    @cached_property
    def _upper_pattern(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Rows and columns of the nonzeros right of the diagonal of an upper
        triangular ``A``, in row-major order, or None when ``A`` is not upper
        triangular; one scan of ``A`` serves :attr:`upper_triangular` and
        ``_HeadPlan``."""
        # np.nonzero(a) measured 2.4 against 0.9 ms for this at 632 states
        rows, cols = np.divmod(np.flatnonzero(self.a != 0), self.state_dim)
        if (rows > cols).any():
            return None
        strict = rows < cols
        return rows[strict], cols[strict]

    @cached_property
    def _head_plan(self) -> _HeadPlan:
        """The plan of both triangular solvers of :func:`eval_realization`."""
        return _HeadPlan(self)


class _HeadPlan:
    """The link/head decomposition of an upper-triangular ``A``, built from
    the nonzero pattern alone.

    Row ``i`` is a link when its only nonzero right of the diagonal is
    ``A[i, i+1]``, ``B[i] = 0`` and nothing else reads state ``i+1``: no row
    of ``C`` and no entry of ``A`` past the superdiagonal.  Every other row
    is a head (``m + N - 1`` of them in a cascade of ``m`` factors in
    general position).  The run of head ``h`` goes up from it to its top
    state, just below the previous head; on it ``x_j = Q_j(z) u_h`` with
    ``u_h = b_h + A[h, h+1:] x[h+1:]`` and
    ``Q_j = 1/(z - a_hh) prod_{i=j}^{h-1} A[i, i+1]/(z - a_ii)``.  Nothing
    outside a run reads it below its top, so ``X`` is needed at the tops alone.

    ``diagonal`` and ``scale`` (the link's ``A[i, i+1]``, 1 at a head) run
    over the states in reversed order and ``starts`` marks the heads in that
    order, so one ``multiply.reduceat`` of ``scale / (z - diagonal)`` is
    ``Q`` at every top, each product taken from the head up.  ``rows``,
    shape ``(H + N_out, H)``, holds the head rows of ``-A`` over ``C`` at
    ``tops``, and ``b_heads[k]`` is ``b_h``.  Substituting the runs leaves
    ``(I - N(z)) U = B_heads``, unit upper triangular, and
    ``Y = C_eff(z) U + D``: ``rows`` times ``Q`` is ``[-N; C_eff]`` off the
    diagonal of the head block, which :func:`_condensed_point` sets to the
    ones of ``I - N``.
    """

    def __init__(self, r: Realization):
        p, a = r.state_dim, r.a
        upper_rows, upper_cols = r._upper_pattern
        read = r.c.any(axis=0)
        read[upper_cols[upper_cols > upper_rows + 1]] = True
        link = (np.bincount(upper_rows, minlength=p) == 1) & ~r.b.any(axis=1)
        link[:-1] &= (np.diagonal(a, 1) != 0) & ~read[1:]
        heads = np.flatnonzero(~link)
        self.tops = np.append(0, heads[:-1] + 1)[: heads.size]
        scale = np.ones(p, dtype=complex)
        scale[:-1][link[:-1]] = np.diagonal(a, 1)[link[:-1]]
        self.diagonal, self.scale = np.diagonal(a)[::-1], scale[::-1]
        self.starts = p - 1 - heads[::-1]
        self.rows = np.vstack([-a[heads[:, None], self.tops], r.c[:, self.tops]])
        self.b_heads = r.b[heads]


@dataclass(frozen=True)
class SteinCertificate:
    """Solution and residuals of the circle-unitarity (Stein) equation.

    ``h`` solves ``A* H A + C* C = H``; for a realization of a filter that
    is unitary on the circle the two remaining block identities
    ``A* H B + C* D = 0`` and ``B* H B + D* D = I`` hold as well, and the
    three residual norms certify this numerically.  The residuals and
    ``hermiticity`` (``||H - H*||_F``) are absolute; rounding in ``A* H A``
    grows with ``H``, so the ``relative_*`` properties divide them by
    ``scale = max(1, ||H||_1)``.  ``positive_definite`` means
    ``H > delta ||H||_1 I`` (``delta = 1e-12``), which with the block
    identities certifies that the realization is minimal; ``norm_h`` is that
    ``||H||_1``.  ``condition_estimate`` is the 1-norm condition number
    ``||H||_1 ||H^-1||_1``, ``inf`` when ``H`` is singular.  ``method`` is
    ``"block"`` when ``H`` is the closed-form block-diagonal solution of the
    cascade layout and ``"dense"`` when it came from the doubling series.
    ``worst_block`` names the block whose rows of the full residual
    ``[A B; C D]* diag(H, I) [A B; C D] - diag(H, I)`` have the largest
    Frobenius norm: the 0-based index ``i`` of the factor whose core it is
    (``factors[i]`` of the parameters, ``i`` cores above the elementary
    block) or ``"elementary"``; it is None on the dense path.
    """

    h: np.ndarray
    residual_state: float
    residual_cross: float
    residual_input: float
    hermiticity: float
    condition_estimate: float
    positive_definite: bool
    norm_h: float
    method: str
    worst_block: int | str | None = None

    def __post_init__(self):
        # an array owning read-only memory, as _block_certificate builds H,
        # is kept: nothing can write it through another array
        h = self.h
        if not isinstance(h, np.ndarray) or h.flags.writeable or h.base is not None:
            object.__setattr__(self, "h", _frozen(h))

    @property
    def max_block_residual(self) -> float:
        return max(self.residual_state, self.residual_cross, self.residual_input)

    @property
    def scale(self) -> float:
        """``max(1, ||H||_1)``, the norm the residuals are gated against."""
        return max(1.0, self.norm_h)

    @property
    def relative_block_residual(self) -> float:
        return self.max_block_residual / self.scale

    @property
    def relative_hermiticity(self) -> float:
        return self.hermiticity / self.scale


def system_matrix(r: Realization) -> np.ndarray:
    """Assemble the ``(p+N_out) x (p+N_in)`` block matrix ``[[A, B], [C, D]]``."""
    p = r.state_dim
    s = np.empty((p + r.outputs, p + r.inputs), dtype=complex)
    s[:p, :p], s[:p, p:], s[p:, :p], s[p:, p:] = r.a, r.b, r.c, r.d
    return s


def realize_elementary_wavelet(n: int) -> Realization:
    """Realize the minimal-degree filter for ``n`` bands, state dimension
    ``n*(n-1)/2``.

    Stage one builds a permutation system matrix: ``A`` is a direct sum of
    nilpotent Jordan chains of lengths ``1 .. n-1``, the pre-DFT input
    matrix feeds the last state of each chain from inputs ``2 .. n``, the
    output matrix reads each chain head into outputs ``2 .. n``, and the
    pre-DFT ``D`` routes input 1 straight to output 1.  Stage two
    multiplies the input side by the DFT matrix.  A state count too large
    to allocate raises ``InvariantError``.
    """
    if n < 2:
        raise InvariantError(f"band count must be >= 2, got {n!r}")
    p = n * (n - 1) // 2
    a = _state_matrix(p)
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


def _state_matrix(p: int) -> np.ndarray:
    """A zero ``p x p`` state matrix; a refused allocation (``MemoryError``,
    or numpy's ``ValueError`` for a shape that cannot exist) raises
    ``InvariantError`` naming ``p``."""
    try:
        return np.zeros((p, p), dtype=complex)
    except (MemoryError, ValueError):
        raise InvariantError(f"a realization with {p} states is too large to allocate") from None


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
    return r * _unity_roots(n)


@lru_cache(maxsize=None)
def _unity_roots(n: int) -> np.ndarray:
    """The ``n`` n-th roots of unity, shared by every pole of a band count."""
    return _frozen(np.exp(2j * np.pi * np.arange(n) / n))


def realize_allpass_core(alpha: complex, n: int) -> Realization:
    """Realize the scalar function ``(1 - |alpha|**2) / (z**n - alpha)``.

    This is the strictly proper part of the degree-one all-pass factor
    ``phi_alpha(z**n)``, realized as the one-input section with ``D = 0``
    (:func:`realize_decimated_unitary` at ``v = [1]``).  Its state matrix is
    upper bidiagonal with the ``n`` n-th roots of ``alpha`` on the diagonal
    (a single nilpotent Jordan block when ``alpha = 0``) and ones above it.
    """
    r = realize_decimated_unitary([1.0], alpha, n)
    return Realization(a=r.a, b=r.b, c=r.c, d=np.zeros((1, 1), dtype=complex))


def realize_decimated_unitary(v, alpha: complex, n: int) -> Realization:
    """Realize ``I + (phi_alpha(z**n) - 1) v v*`` with state dimension ``n``.

    Wraps the scalar core (:func:`realize_allpass_core`, the one-input
    section with ``D = 0``) between ``v`` and ``v*``; the feedthrough is
    ``I - (1 + conj(alpha)) v v*``, the value of the factor at infinity
    plus the all-pass constant term.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_NORM_TOL:
        raise InvariantError("v must have unit norm")
    return Realization(*(x[0] for x in _section_stack(v[None, :], [complex(alpha)], n)))


def _section_stack(vectors, alphas, n: int) -> tuple[np.ndarray, ...]:
    """The blocks ``(A_s, B_s, C_s, D_s)`` of one degree-``n`` section per pole
    in ``alphas``, wrapped between the unit vectors in the rows of
    ``vectors``, as ``(m, ., .)`` stacks built in one pass.

    The core's ``A`` is bidiagonal, its ``B`` and ``C`` hold the gain
    ``sqrt(1 - |alpha|**2)`` in their last and first entry, and each section
    wraps it between ``v`` and ``v*``; at ``v = [1]`` the section's ``A``,
    ``B`` and ``C`` are the core's (:func:`realize_allpass_core`, the
    section with ``D = 0``).  Every entry comes from the numpy operation, on
    the same operands, that builds one section on its own, so a section has
    the same bits in any stack: the diagonal and superdiagonal are added as
    whole matrices, the gains come from Python's ``abs`` and ``**`` of each
    pole, and ``b v*`` and ``v c`` are stacked matrix products, which numpy
    runs a matrix at a time.  Raises ``InvariantError`` unless every
    ``|alpha| < 1``.
    """
    sizes = [abs(alpha) for alpha in alphas]
    for size in sizes:
        if size >= 1.0:
            raise InvariantError(f"|alpha| must be < 1, got {size!r}")
    m = len(sizes)
    diagonal = np.zeros((m, n, n), dtype=complex)
    roots = np.array([_pole_roots(alpha, n) for alpha in alphas], dtype=complex)
    diagonal[:, np.arange(n), np.arange(n)] = roots.reshape(m, n)
    a = diagonal + np.diag(np.ones(n - 1), 1)
    gains = np.sqrt([1.0 - size**2 for size in sizes])
    b = np.zeros((m, n, 1), dtype=complex)
    b[:, n - 1, 0] = gains
    c = np.zeros((m, 1, n), dtype=complex)
    c[:, 0, 0] = gains
    outers = vectors[:, :, None] * vectors.conj()[:, None, :]
    d = np.eye(vectors.shape[1]) - (1.0 + np.conj(alphas))[:, None, None] * outers
    return a, b @ vectors.conj()[:, None, :], vectors[:, :, None] @ c, d


def _sections(vectors, alphas, n: int):
    """The sections of :func:`_section_stack`, one ``(A_s, B_s, C_s, D_s)`` at
    a time; the stack is built when the first section is read."""
    yield from zip(*_section_stack(vectors, alphas, n))


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
    return _cascade_sections(inner, [(delta.a, delta.b, delta.c, delta.d)], delta.state_dim)


def _cascade_sections(inner: Realization, sections, added: int) -> Realization:
    """Cascade the blocks ``(A_s, B_s, C_s, D_s)`` of each section onto ``inner``.

    ``A`` and ``B`` are allocated once, for ``inner.state_dim + added``
    states, before any section is read.  Each section, first innermost,
    writes its core on the diagonal above the states before it, its rows
    ``B_s C`` of ``A`` and ``B_s D`` of ``B``, and the new ``C = [C_s, D_s C]``
    and ``D = D_s D``.  Too many states to allocate raise ``InvariantError``.
    """
    a = _state_matrix(inner.state_dim + added)
    b = np.zeros((a.shape[0], inner.inputs), dtype=complex)
    lo = added
    a[lo:, lo:], b[lo:], c, d = inner.a, inner.b, inner.c, inner.d
    for a_s, b_s, c_s, d_s in sections:
        hi, lo = lo, lo - a_s.shape[0]
        a[lo:hi, lo:hi] = a_s
        a[lo:hi, hi:] = b_s @ c
        b[lo:hi] = b_s @ d
        c, d = np.hstack([c_s, d_s @ c]), d_s @ d
    return Realization(a=a, b=b, c=c, d=d)


def realize_wavelet(params: FilterParameters) -> Realization:
    """Build the cascade realization of the filter described by ``params``.

    Starts from the elementary-filter realization and cascades one
    degree-``n`` factor per stored parameter, raising the index by one each
    time; the state dimension is exactly ``n*((n-1)/2 + m)``.  The factors
    go through :func:`_cascade_sections`, the writer of :func:`cascade`, in
    one pass; their blocks are built together by :func:`_section_stack`,
    once ``A`` is allocated.  A state count too large to allocate raises
    ``InvariantError`` before any section is built.
    """
    n = params.n
    alphas = [f.alpha for f in params.factors]
    sections = _sections(params._factor_stack[0], alphas, n)
    return _cascade_sections(realize_elementary_wavelet(n), sections, n * params.m)


def eval_realization(r: Realization, z) -> np.ndarray:
    """Transfer-function value ``C (zI - A)**-1 B + D`` at a point or an array of points.

    ``z`` may have any shape; the result has shape ``z.shape + (N_out, N_in)``,
    so a scalar ``z`` gives one matrix.  When ``A`` is upper triangular, as
    every cascade is, one plan serves two solvers (see ``_HeadPlan``): a
    row whose only entry right of the diagonal is ``A[i, i+1]``, whose row
    of ``B`` is zero and whose next state nothing else reads just passes
    that state on, so each run of such rows ends in a head row, is a
    running product of that head's value and is read at its top state
    alone.  One ``multiply.reduceat`` gives that product, ``Q``, at every
    top, and both solvers read one matrix of the plan, the head rows of
    ``-A`` over ``C`` at the tops (``m + N - 1`` of them in a cascade of
    ``m`` factors in general position).  The shape of ``z`` chooses the
    solver.  A scalar goes through :func:`_condensed_point`, which
    substitutes the runs into a unit upper-triangular system over the heads
    and takes one 2-D ``numpy.linalg.solve``, a fixed number of array calls
    whatever the size of the filter.  For an array of any size the heads
    are solved one at a time, last first, for all points at once, and ``X``
    is formed only at the tops.  A state matrix that is not upper
    triangular gets one stacked LU, for a point or an array.  Both array
    solvers take the points in chunks sized from one entry budget,
    ``_CHUNK_ENTRIES``, and each returns its chunk's values with a
    per-point mask of where it could solve.

    Raises
    ------
    PoleError
        If ``zI - A`` is singular at any point or the value is not finite,
        naming the first such point.
    """
    z = _point_or_array(z)
    if isinstance(z, complex) and r.upper_triangular:
        return _condensed_point(r, z)
    z = np.asarray(z)
    points, p = z.reshape(-1), r.state_dim
    if r.upper_triangular:
        solve, entries = _sweep, max(r._head_plan.b_heads.size, p)
    else:
        solve, entries = _lu, p * max(p, r.inputs)
    # both solvers also form C X, N_out x N_in entries per point
    chunk = max(1, _CHUNK_ENTRIES // max(entries, r.outputs * r.inputs, 1))
    values = np.empty((points.size,) + r.d.shape, dtype=complex)
    finite = np.empty(points.size, dtype=bool)
    for k in range(0, points.size, chunk):
        part = values[k : k + chunk]
        solved = solve(r, points[k : k + chunk], part)
        finite[k : k + chunk] = solved & np.isfinite(part).all(axis=(1, 2))
    if not finite.all():
        raise PoleError(f"z = {complex(points[finite.argmin()])!r} is a pole of the realization")
    return values.reshape(z.shape + r.d.shape)


def _lu(r: Realization, points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``C X + D`` for one chunk by one stacked LU, and per point whether
    ``zI - A`` is invertible there.

    numpy rejects the whole stack when one matrix has an exactly zero
    pivot; ``slogdet`` factors each matrix the same way and has sign 0
    just there, so the other points are solved again without them.
    """
    shifted = points[:, None, None] * _eye(r.state_dim) - r.a
    invertible = np.ones(points.size, dtype=bool)
    try:
        x = np.linalg.solve(shifted, r.b[None])
    except np.linalg.LinAlgError:
        invertible = np.linalg.slogdet(shifted)[0] != 0
        x = np.zeros((points.size,) + r.b.shape, dtype=complex)
        x[invertible] = np.linalg.solve(shifted[invertible], r.b[None])
    np.add(r.c @ x, r.d, out=out)
    return invertible


def _top_values(plan: _HeadPlan, points) -> tuple[np.ndarray, np.ndarray]:
    """``Q`` at every top and whether all of it is finite, as a zero
    ``z - a_ii`` makes it not: shape ``(H,)`` and one flag for a scalar
    ``z``, ``(K, H)`` and one flag per point for a ``(K, 1)`` column of
    points.  Call it under ``np.errstate(all="ignore")``."""
    divisor = points - plan.diagonal
    ratios = np.divide(plan.scale, divisor, out=divisor)
    q = np.multiply.reduceat(ratios, plan.starts, axis=-1)[..., ::-1]
    return q, np.isfinite(q).all(axis=-1)


def _condensed_point(r: Realization, z: complex) -> np.ndarray:
    """``C_eff U + D`` at one point by one solve of the head system; a
    non-finite ``Q`` is a pole before the solve, a non-finite value after."""
    plan = r._head_plan
    h = plan.b_heads.shape[0]
    with np.errstate(all="ignore"):
        q, finite = _top_values(plan, z)
        if finite:
            system = q * plan.rows
            system.reshape(-1)[: h * h : h + 1] = 1.0  # the diagonal of I - N
            # I - N is unit upper triangular, so LU pivots on exact ones
            value = system[h:] @ np.linalg.solve(system[:h], plan.b_heads)
            value += r.d
    if not (finite and np.isfinite(value).all()):
        raise PoleError(f"z = {z!r} is a pole of the realization")
    return value


def _sweep(r: Realization, points: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``C X + D`` for one chunk of points, head by head, last first, and
    per point whether ``Q`` is finite there (see :func:`_top_values`).

    Each head ``h`` computes ``u_h = b_h + A[h, h+1:] x[h+1:]`` for all
    points at once, as ``b_h`` minus its row of the plan's ``rows`` (``-A``)
    times ``X`` at the tops past its run, and sets its top as ``x = Q u_h``;
    ``X``, shape ``(H, K, N_in)``, holds the tops past a run contiguously.
    """
    plan = r._head_plan
    k, n_in = points.size, r.inputs
    h = plan.b_heads.shape[0]
    x = np.empty((h, k, n_in), dtype=complex)
    flat = x.reshape(h, k * n_in)
    with np.errstate(all="ignore"):
        q, finite = _top_values(plan, points[:, None])
        for i in reversed(range(h)):
            coupled = (plan.rows[i, i + 1 :] @ flat[i + 1 :]).reshape(k, n_in)
            np.multiply(q[:, i, None], plan.b_heads[i] - coupled, out=x[i])
        y = plan.rows[h:] @ flat
    np.add(y.reshape(r.outputs, k, n_in).transpose(1, 0, 2), r.d, out=out)
    return finite


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


def cascade_index(r: Realization) -> int | None:
    """The number ``k`` of factor cores in ``n*(n-1)/2 + k*n`` states, ``n`` outputs, or None."""
    n = r.outputs
    extra = r.state_dim - n * (n - 1) // 2
    if n == 0 or extra < 0 or extra % n:
        return None
    return extra // n


_STEIN_MAX_DOUBLINGS = 64
_STEIN_STOP = 1e-12
# Relative margin of the positive-definiteness test.  On valid filters
# lambda_min(H) / ||H||_1 measured >= 2.1e-2 up to (n, m, rho) = (4, 8, 0.9),
# >= 5.6e-7 at (12, 16, 0.999) and >= 3.2e-9 at (16, 32, 0.999); the closed
# form's H gave 1.9e-2, 8.8e-5, 5.6e-7 and 3.3e-9 at (4, 8), (8, 16),
# (12, 16) and (16, 32) with every |alpha| = 1 - e, the same for each e from
# 1e-3 to 1e-13.  With a hidden (unobservable, uncontrollable) state in a
# random unitary basis it measured between -9e-17 and 1.6e-16.  1e-12 sits
# over three decades from both, where 1e-9 would leave a factor of 3 at
# (16, 32, 0.999).
_PD_MARGIN = 1e-12


def stein_certificate(r: Realization) -> SteinCertificate:
    """Solve ``A* H A + C* C = H`` and report the three Stein block residuals.

    A realization in the cascade layout (``A`` upper triangular with
    ``n*(n-1)/2 + k*n`` states for ``n`` outputs, as :func:`realize_wavelet`
    builds and a realization file keeps) first gets the closed-form
    candidate ``diag(H_1, ..., H_k, I)`` of :func:`_block_solution`; no
    Stein equation is solved for it.  :func:`_block_certificate` sums the
    ``(p + N_in)**2`` residual over the nonzero columns of each block row
    of ``S = [A B; C D]``, joined one block row at a time from ``A``,
    ``B``, ``C`` and ``D`` and never assembled whole, for a realization of
    any shape and without forming ``diag(H, I)``, so every entry of ``S``
    enters the residuals and the block structure cannot create a false
    pass.  The candidate is
    kept when its state-equation residual is at most ``TOL`` (1e-9)
    relative to ``max(1, ||H||_1)`` and ``H > delta ||H||_1 I``: a stable
    ``A`` has exactly one solution of the state equation, so a kept
    candidate is that solution, and a failed cross or input identity is
    the realization's own.  Otherwise (as for a cascade-layout file whose
    cores are not in the bidiagonal normal form) and for every other
    layout, ``H`` is summed from the series ``sum_k (A*)**k C*C A**k`` with
    doubling acceleration, which converges quadratically when the spectral
    radius of ``A`` is below one, and the same routine certifies it as a
    single block.

    The certificate reports Hermiticity, the 1-norm condition number of
    ``H`` (``inf`` if singular), and whether ``H > delta ||H||_1 I``
    (``delta = 1e-12``, one Cholesky factorization per block), which with
    the block identities certifies minimality: the ``H``-balanced system
    matrix is then unitary, so both of its Gramians are the identity.  A
    plain Cholesky is not enough: rounding lets it succeed on ``H`` with a
    hidden state and ``lambda_min(H) / ||H||_1`` near ``1e-17``.  A
    singular or indefinite ``H`` is flagged, not rejected.

    Raises
    ------
    ConvergenceError
        If ``A`` is upper triangular with some ``|a_ii| >= 1``, checked
        before any candidate is formed (its spectral radius is
        ``max |a_ii|``, and an unstable ``A`` can satisfy the block
        identities with a closed-form candidate), or if the series fails to
        settle within the iteration cap (state matrix not asymptotically
        stable).
    """
    if r.upper_triangular and np.abs(np.diagonal(r.a)).max(initial=0.0) >= 1.0:
        raise ConvergenceError("Stein equation rejected: spectral radius max |a_ii| is >= 1")
    if cascade_index(r) is not None and r.upper_triangular:
        blocks = _block_solution(r)
        if blocks is not None:
            cert = _block_certificate(r, *blocks)
            if cert.residual_state <= TOL * cert.scale and cert.positive_definite:
                return cert
    return _block_certificate(r, np.zeros((0, 0, 0)), _series_solution(r), "dense")


def _block_solution(r: Realization) -> tuple[np.ndarray, np.ndarray] | None:
    """The closed-form diagonal blocks of the cascade's Stein solution, or None.

    Returns the ``k`` core blocks stacked as ``(k, n, n)``, top first, and
    the identity for the elementary block, whose system matrix is a
    permutation times the DFT.  A core in the bidiagonal normal form of
    :func:`realize_allpass_core` (the one-input section with ``D = 0``, so
    the ``A`` of every factor) is similar to the lattice all-pass section
    (Gray & Markel, IEEE Trans. AU-21(6), 1973), whose system matrix is
    unitary; with ``K_j = [e_n, A_jj e_n, ..., A_jj**(n-1) e_n]``, which is
    anti-triangular with a unit anti-diagonal, ``H_j = (K_j K_j*)**-1``.
    It is formed as ``K_j**-* K_j**-1``: inverting ``K_j K_j*`` would square
    the condition number, and at (16, 32) its state residual measured
    1.4e-9 relative against 1.1e-13.  A singular or non-finite ``K_j``
    gives None.
    """
    n, k = r.outputs, cascade_index(r)
    kn = k * n
    diagonal = r.a[:kn, :kn].reshape(k, n, k, n)[np.arange(k), :, np.arange(k)]
    columns = [np.broadcast_to(_eye(n)[:, -1:], (k, n, 1))]
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            columns.append(diagonal @ columns[-1])
        try:
            inverse = np.linalg.inv(np.concatenate(columns, axis=2))
        except np.linalg.LinAlgError:
            return None
        cores = _stack_adjoint(inverse) @ inverse
    if not np.isfinite(cores).all():
        return None
    return (cores + _stack_adjoint(cores)) / 2.0, np.eye(r.state_dim - kn, dtype=complex)


def _series_solution(r: Realization) -> np.ndarray:
    """``H = sum_k (A*)**k C*C A**k`` by the doubling series.

    Raises ``ConvergenceError`` if the series diverges (or overflows) or
    does not settle.
    """
    power = np.array(r.a)
    with np.errstate(over="ignore", invalid="ignore"):
        h = r.c.conj().T @ r.c
        for _ in range(_STEIN_MAX_DOUBLINGS):
            inc = power.conj().T @ h @ power
            h = h + inc
            # max-abs avoids the overflow a squared Frobenius norm would hit
            # while detecting divergence
            scale = float(np.abs(h).max()) if h.size else 0.0
            if not np.isfinite(h).all() or scale > 1e100:
                raise ConvergenceError(
                    "Stein series diverged; spectral radius appears to be >= 1"
                )
            if h.size == 0 or np.abs(inc).max() <= _STEIN_STOP * max(1.0, scale):
                return h
            power = power @ power
    raise ConvergenceError(
        "Stein series did not converge; spectral radius appears to be >= 1"
    )


def _stack_adjoint(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x.conj(), -1, -2)


def _row_energy(x: np.ndarray) -> np.ndarray:
    """The squared 2-norm of each row of a complex ``x`` with a contiguous last axis."""
    return np.einsum("ij,ij->i", x.view(float), x.view(float))


def _block_certificate(
    r: Realization, cores: np.ndarray, last: np.ndarray, method: str = "block"
) -> SteinCertificate:
    """The certificate of ``H = diag(cores[0], ..., cores[k-1], last)``.

    ``last`` is the elementary block, or all of ``H`` with no cores on the
    dense path, where ``worst_block`` stays None and ``last`` itself, made
    read-only, is the ``H`` the certificate keeps.  With ``S = [A B; C D]``,
    ``R = S* diag(H, I) S - diag(H, I)``, of size ``(p + N_in)**2``, holds
    the state equation in ``R[:p, :p]``, the cross identity in ``R[:p, p:]``
    and the input identity in ``R[p:, p:]``.  One pass per block row ``S_b``
    (the cores top first, ``last``, ``[C D]``) adds ``S_b[:, J]* W_b S_b[:, J]``
    into ``R[J, J]``, ``J`` the nonzero columns of ``S_b`` and ``W_b`` its
    block of ``H`` (none for ``[C D]``), so every nonzero of ``S`` enters the
    residuals.  Each ``S_b`` is joined from its rows of ``A`` and ``B``, or
    from ``C`` and ``D``, and dropped before the next: ``S`` is never
    assembled whole, and ``H``, built once and made read-only, is kept by
    the certificate, not copied.  Then each block of ``H``, and 1 on the
    diagonal of ``R[p:, p:]``, is subtracted: ``diag(H, I)`` is never
    formed, so any realization shape is accepted.  The norms, the inverse, the Hermiticity
    and the Cholesky test of ``H`` are taken per block: for a block-diagonal
    ``H`` each is the dense one.
    """
    k, n, _ = cores.shape
    kn, p = k * n, r.state_dim
    if k:
        h = np.zeros((p, p), dtype=complex)
        h[:kn, :kn].reshape(k, n, k, n)[np.arange(k), :, np.arange(k)] = cores
        h[kn:, kn:] = last
    else:
        h = last
    h.flags.writeable = False
    size = p + r.inputs
    residual = np.zeros((size, size), dtype=complex)
    flat = residual.reshape(-1)
    bounds = [j * n for j in range(k + 1)] + [p]
    rows = [(r.a[lo:hi], r.b[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] + [(r.c, r.d)]
    for (left, right), w in zip(rows, [*cores, last, None]):
        block = np.concatenate((left, right), axis=1)
        cols = block.any(axis=0).nonzero()[0]
        block = block[:, cols]
        # R[J, J] through its flat indices, which numpy gathers faster
        flat[cols[:, None] * size + cols] += block.conj().T @ (block if w is None else w @ block)
    # H's blocks alone: a strided pass over all of R[:p, :p] took 0.1 ms at 258 states
    residual[:kn, :kn].reshape(k, n, k, n)[np.arange(k), :, np.arange(k)] -= cores
    residual[kn:p, kn:p] -= last
    flat[p * size + p :: size + 1] -= 1.0
    stacks = [s for s in (cores, last[None]) if s.size]
    hermiticity = float(np.linalg.norm([np.linalg.norm(s - _stack_adjoint(s)) for s in stacks]))
    condition, positive, norm_h, worst = 1.0, True, 0.0, None
    if p:
        norm_h = max(float(np.abs(s).sum(axis=1).max()) for s in stacks)
        try:
            condition = norm_h * max(
                float(np.abs(np.linalg.inv(s)).sum(axis=1).max()) for s in stacks
            )
        except np.linalg.LinAlgError:
            condition = float("inf")
        try:
            for s in stacks:
                margin = _PD_MARGIN * norm_h * _eye(s.shape[-1])
                np.linalg.cholesky((s + _stack_adjoint(s)) / 2.0 - margin)
        except np.linalg.LinAlgError:
            positive = False
    state, cross = _row_energy(residual[:p, :p]), _row_energy(residual[:p, p:])
    if p and method == "block":
        # squared Frobenius norm of each block's rows of R, cores top first
        rows = state + cross
        energy = list(rows[:kn].reshape(k, n).sum(axis=1))
        if last.size:
            energy.append(rows[kn:].sum())
        top = int(np.argmax(energy))
        worst = k - 1 - top if top < k else "elementary"
    return SteinCertificate(
        h=h,
        residual_state=float(np.sqrt(state.sum())),
        residual_cross=float(np.sqrt(cross.sum())),
        residual_input=float(np.sqrt(_row_energy(residual[p:, p:]).sum())),
        hermiticity=hermiticity,
        condition_estimate=condition,
        positive_definite=positive,
        norm_h=norm_h,
        method=method,
        worst_block=worst,
    )
