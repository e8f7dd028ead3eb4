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
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    InvariantError,
    PoleError,
)
from .filters import TOL, FilterParameters, _eye, dft_matrix

# A _sweep chunk of eval_realization holds at most _ROW_ENTRIES entries of X
# and of the grid of Q, an LU chunk at most _CHUNK_ENTRIES entries of its
# largest stacked array.
_CHUNK_ENTRIES = 1 << 16
_ROW_ENTRIES = 1 << 18


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


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
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
    ``A[i, i+1]`` and ``B[i] = 0``; every other row is a head (``m + N - 1``
    of them in a cascade of ``m`` factors).  Each state belongs to the first
    head at or below it, and on the run of states that head ``h`` owns,
    ``x_j = Q_j(z) u_h`` with ``u_h = b_h + A[h, J_h] x[J_h]`` over the
    nonzero columns ``J_h`` right of the diagonal and
    ``Q_j = 1/(z - a_hh) prod_{i=j}^{h-1} A[i, i+1]/(z - a_ii)``.

    The states sit in a ``(width, H)`` grid, one column per run, the head in
    row 0 and its links upward below it, holding the ``diagonal`` and the
    link ``scale`` (1 at a head), so the running product of
    ``scale / (z - diagonal)`` down the rows is every ``Q`` at once.  A slot
    past a run holds ``a = NaN``, which nothing reads.

    :func:`_sweep` keeps ``X`` only at ``reads``, the states that a head or
    ``C`` reads (the top of each run in a cascade), whose grid slots are
    ``read_slots``.  For the ``k``-th head, ``runs[k]`` is the slice of
    ``reads`` it owns, ``columns[k]`` the positions of ``J_h`` in ``reads``,
    ``couplings[k]`` the values ``A[h, J_h]`` and ``b_heads[k]`` is ``b_h``.
    ``chunk`` is the number of points per chunk of :func:`_sweep`, so that
    neither ``X`` nor the grid holds more than ``_ROW_ENTRIES`` entries.

    Substituting the runs leaves ``(I - N(z)) U = B_heads``, unit upper
    triangular of size ``H``, and ``Y = C_eff(z) U + D``, with
    ``N[h, h'] = sum A[h, c] Q_c`` and ``C_eff[:, h'] = sum C[:, c] Q_c`` over
    the columns ``c`` that ``h'`` owns; :func:`_condensed_point` solves it
    from the entry list ``condensed``, built when it is first needed.
    """

    def __init__(self, r: Realization):
        p, a = r.state_dim, r.a
        rows, cols = r._upper_pattern
        link = (np.bincount(rows, minlength=p) == 1) & ~r.b.any(axis=1)
        link[:-1] &= np.diagonal(a, 1) != 0
        heads = np.flatnonzero(~link)
        h = heads.size
        owner = np.searchsorted(heads, np.arange(p))
        depth = heads[owner] - np.arange(p)
        self.width = int(depth.max(initial=0)) + 1
        slot = depth * h + owner
        self.diagonal = np.full(self.width * h, np.nan, dtype=complex)
        self.diagonal[slot] = np.diagonal(a)
        self.scale = np.ones(self.width * h, dtype=complex)
        links = np.flatnonzero(link)
        self.scale[slot[links]] = a[links, links + 1]
        # the entries right of the diagonal in head rows, by head index
        coupled = ~link[rows]
        row, col = owner[rows[coupled]], cols[coupled]
        read = r.c.any(axis=0)
        read[col] = True
        self.reads = np.flatnonzero(read)
        self.read_slots = slot[self.reads]
        ends = np.searchsorted(self.reads, heads + 1).tolist()
        self.runs = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
        coupling, columns = a[heads[row], col], np.searchsorted(self.reads, col)
        bounds = np.searchsorted(row, np.arange(h + 1)).tolist()
        self.columns = [columns[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.couplings = [coupling[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.b_heads = r.b[heads]
        self.chunk = max(1, _ROW_ENTRIES // max(self.reads.size * r.inputs, self.width * h, 1))
        self._condensed_inputs = (r.c, owner, slot, row, col, coupling)

    @cached_property
    def condensed(self) -> tuple:
        """The entries of ``[I - N; C_eff]`` for :func:`_condensed_point`.

        ``(entry_slots, entry_coefficients, targets, sums, constant)``: the
        grid slot of each entry's ``Q``, its coefficient (``-A[h, c]`` or
        ``C[o, c]``), the flat targets, sorted and unique, the ``reduceat``
        starts that add entries sharing a target (None when none do, as in
        a cascade) and the constant part ``[I; 0]``, flat.
        """
        c, owner, slot, row, col, coupling = self._condensed_inputs
        h = self.b_heads.shape[0]
        out_row, out_col = np.nonzero(c)
        targets = np.concatenate([row * h + owner[col], (h + out_row) * h + owner[out_col]])
        order = np.argsort(targets, kind="stable")
        entry_slots = slot[np.concatenate([col, out_col])][order]
        entry_coefficients = np.concatenate([-coupling, c[out_row, out_col]])[order]
        targets, starts = np.unique(targets[order], return_index=True)
        sums = None if starts.size == order.size else starts
        constant = np.zeros((h + c.shape[0]) * h, dtype=complex)
        constant[np.arange(h) * (h + 1)] = 1.0
        return entry_slots, entry_coefficients, targets, sums, constant


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
        object.__setattr__(self, "h", _frozen(self.h))

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
    return r * np.exp(2j * np.pi * np.arange(n) / n)


def realize_allpass_core(alpha: complex, n: int) -> Realization:
    """Realize the scalar function ``(1 - |alpha|**2) / (z**n - alpha)``.

    This is the strictly proper part of the degree-one all-pass factor in
    ``z**n``.  The state matrix is upper bidiagonal with the ``n`` n-th
    roots of ``alpha`` on the diagonal (a single nilpotent Jordan block
    when ``alpha = 0``) and ones above it.
    """
    a, b, c, d = _factor_blocks(None, complex(alpha), n)
    return Realization(a=a, b=b, c=c, d=d)


def realize_decimated_unitary(v, alpha: complex, n: int) -> Realization:
    """Realize ``I + (phi_alpha(z**n) - 1) v v*`` with state dimension ``n``.

    Wraps the scalar core between ``v`` and ``v*``; the feedthrough is
    ``I - (1 + conj(alpha)) v v*``, the value of the factor at infinity
    plus the all-pass constant term.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise InvariantError("v must have unit norm")
    a, b, c, d = _factor_blocks(v, complex(alpha), n)
    return Realization(a=a, b=b, c=c, d=d)


def _factor_blocks(v, alpha: complex, n: int) -> tuple[np.ndarray, ...]:
    """The blocks ``(A, B, C, D)`` of :func:`realize_decimated_unitary`, or of
    :func:`realize_allpass_core` when ``v`` is None, as plain arrays.

    The core's ``A`` is bidiagonal, its ``B`` and ``C`` hold the gain
    ``sqrt(1 - |alpha|**2)`` in their last and first entry; the factor wraps
    the core between the complex vector ``v`` and ``v*``.  Raises
    ``InvariantError`` unless ``|alpha| < 1``.
    """
    if abs(alpha) >= 1.0:
        raise InvariantError(f"|alpha| must be < 1, got {abs(alpha)!r}")
    a = np.diag(_pole_roots(alpha, n)) + np.diag(np.ones(n - 1), 1)
    gain = np.sqrt(1.0 - abs(alpha) ** 2)
    b = np.zeros((n, 1), dtype=complex)
    b[n - 1, 0] = gain
    c = np.zeros((1, n), dtype=complex)
    c[0, 0] = gain
    if v is None:
        return a, b, c, np.zeros((1, 1), dtype=complex)
    d = np.eye(v.size) - (1.0 + np.conj(alpha)) * np.outer(v, v.conj())
    return a, b @ v.conj()[None, :], v[:, None] @ c, d


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
    time; the state dimension is exactly ``n*((n-1)/2 + m)``.  The result
    is the fold of :func:`cascade` over the factors, bit for bit, built in
    one pass: ``A`` and ``B`` are allocated once and each factor writes its
    core, its block row of ``A`` and of ``B`` above the states before it,
    and the new ``C`` and ``D``, with the products :func:`cascade` uses.
    A state count too large to allocate raises ``InvariantError``.
    """
    n = params.n
    p = mcmillan_degree(params)
    a = _state_matrix(p)
    inner = realize_elementary_wavelet(n)
    b = np.zeros((p, n), dtype=complex)
    lo = p - inner.state_dim
    a[lo:, lo:], b[lo:], c, d = inner.a, inner.b, inner.c, inner.d
    for f in params.factors:
        a_f, b_f, c_f, d_f = _factor_blocks(f.v, f.alpha, n)
        lo -= n
        a[lo : lo + n, lo : lo + n] = a_f
        a[lo : lo + n, lo + n :] = b_f @ c
        b[lo : lo + n] = b_f @ d
        c, d = np.hstack([c_f, d_f @ c]), d_f @ d
    return Realization(a=a, b=b, c=c, d=d)


def eval_realization(r: Realization, z) -> np.ndarray:
    """Transfer-function value ``C (zI - A)**-1 B + D`` at a point or an array of points.

    ``z`` may have any shape; the result has shape ``z.shape + (N_out, N_in)``,
    so a scalar ``z`` gives one matrix.  When ``A`` is upper triangular, as
    every cascade is, one plan serves two solvers (see ``_HeadPlan``): a
    row whose only entry right of the diagonal is ``A[i, i+1]`` and whose
    row of ``B`` is zero just passes the next state on, so each run of such
    rows ends in a head row and is a running product of that head's value,
    one product for all runs.  The shape of ``z`` chooses the solver.  A
    scalar goes through :func:`_condensed_point`, which substitutes the runs
    into a unit upper-triangular system over the heads and takes one 2-D
    ``numpy.linalg.solve``, a fixed number of array calls whatever the size
    of the filter.  For an array of any size the heads (``m + N - 1`` in a
    cascade of ``m`` factors) are solved one at a time, last first, for all
    points at once, and ``X`` is formed only at the states that a head or
    ``C`` reads (one per run in a cascade); the points go through in chunks
    of a few MB of work arrays.  A state matrix that is not upper
    triangular gets one stacked LU, in chunks, for a point or an array.

    Raises
    ------
    PoleError
        If ``zI - A`` is singular at any point or the value is not finite.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0 and r.upper_triangular:
        return _condensed_point(r, complex(z))
    points = z.reshape(-1)
    if r.upper_triangular:
        solve, chunk = _sweep, r._head_plan.chunk
    else:
        solve, chunk = _lu, _lu_chunk(r)
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


def _lu_chunk(r: Realization) -> int:
    """Points per chunk of :func:`_lu`."""
    p = r.state_dim
    return max(1, _CHUNK_ENTRIES // max(p * p, p * r.inputs, 1))


def _lu(r: Realization, points: np.ndarray, out: np.ndarray) -> None:
    """``C X + D`` for one chunk of points by one stacked LU of ``zI - A``."""
    x = np.linalg.solve(points[:, None, None] * _eye(r.state_dim) - r.a, r.b[None])
    np.add(r.c @ x, r.d, out=out)


def _run_ratios(plan: _HeadPlan, points: np.ndarray) -> np.ndarray:
    """The grid of ``plan`` as ``scale / (z - a)``, shape ``(width, H * K)``;
    the running product down its rows is ``Q``.

    A zero divisor ``z - a_ii`` raises ``LinAlgError``, as a singular LU
    would.  Call it under ``np.errstate(all="ignore")``.
    """
    divisor = points - plan.diagonal[:, None]
    if not divisor.all():
        raise np.linalg.LinAlgError("zI - A is singular")
    return np.divide(plan.scale[:, None], divisor, out=divisor).reshape(plan.width, -1)


def _condensed_point(r: Realization, z: complex) -> np.ndarray:
    """``C_eff U + D`` at one point by one solve of the head system."""
    plan = r._head_plan
    slots, coefficients, targets, sums, constant = plan.condensed
    h = plan.b_heads.shape[0]
    with np.errstate(all="ignore"):
        try:
            q = np.cumprod(_run_ratios(plan, np.array([z])), axis=0)
            entries = q.reshape(-1)[slots] * coefficients
            if sums is not None:
                entries = np.add.reduceat(entries, sums)
            system = constant.copy()
            system[targets] = entries
            system = system.reshape(h + r.outputs, h)
            value = system[h:] @ np.linalg.solve(system[:h], plan.b_heads) + r.d
        except np.linalg.LinAlgError:
            value = None
    if value is None or not np.isfinite(value).all():
        raise PoleError(f"z = {z!r} is a pole of the realization")
    return value


def _sweep(r: Realization, points: np.ndarray, out: np.ndarray) -> None:
    """``C X + D`` for one chunk of points, head by head, last first.

    ``Q`` is the running product down the grid's rows, one multiply per
    row: a ``cumprod`` along them measured 3-4x slower on rows this wide.
    Each head ``h`` computes ``u_h = b_h + A[h, J_h] x[J_h]`` for all points
    at once and fills its run as ``x = Q u_h``, at the states that a head
    or ``C`` reads.  ``X`` is kept state-major, shape ``(R, K, N_in)``, so a
    run is one contiguous slice.
    """
    plan = r._head_plan
    k, n_in = points.size, r.inputs
    x = np.empty((plan.reads.size, k, n_in), dtype=complex)
    with np.errstate(all="ignore"):
        q = _run_ratios(plan, points)
        for depth in range(1, plan.width):
            q[depth] *= q[depth - 1]
        q = q.reshape(-1, k)[plan.read_slots, :, None]
        for i in reversed(range(len(plan.runs))):
            cols, run = plan.columns[i], plan.runs[i]
            u = (plan.couplings[i] @ x[cols].reshape(cols.size, k * n_in)).reshape(k, n_in)
            np.multiply(q[run], u + plan.b_heads[i], out=x[run])
        y = r.c[:, plan.reads] @ x.reshape(-1, k * n_in)
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
    Stein equation is solved for it.  :func:`_block_certificate` sums
    ``S* diag(H, I) S`` over the nonzero columns of each block row of the
    system matrix ``S``, so every entry of ``A``, ``B``, ``C`` and ``D``
    enters the residuals and the block structure cannot create a false
    pass.  The candidate is kept when its state-equation residual is at
    most ``TOL`` (1e-9) relative to ``max(1, ||H||_1)`` and
    ``H > delta ||H||_1 I``: a stable ``A`` has exactly one solution of the
    state equation, so a kept candidate is that solution, and a failed
    cross or input identity is the realization's own.  Otherwise (as for a
    cascade-layout file whose cores are not in the bidiagonal normal form)
    and for every other layout, ``H`` is summed from the series
    ``sum_k (A*)**k C*C A**k`` with doubling acceleration, which converges
    quadratically when the spectral radius of ``A`` is below one, and the
    same routine certifies it as a single block.

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
        If the series fails to settle within the iteration cap (state
        matrix not asymptotically stable).
    """
    if _cascade_edges(r) is not None:
        blocks = _block_solution(r)
        if blocks is not None:
            cert = _block_certificate(r, *blocks)
            if cert.residual_state <= TOL * cert.scale and cert.positive_definite:
                return cert
    return _block_certificate(r, np.zeros((0, 0, 0)), _series_solution(r), "dense")


def _cascade_edges(r: Realization) -> list[int] | None:
    """Block edges of the cascade layout, ``k`` cores of ``n`` states top first
    and then the elementary block, or None when ``A`` is not upper triangular
    with ``n*(n-1)/2 + k*n`` states for ``n`` outputs."""
    k, n, p = cascade_index(r), r.outputs, r.state_dim
    if k is None or not r.upper_triangular:
        return None
    return list(range(0, k * n + 1, n)) + ([p] if k * n < p else [])


def _block_solution(r: Realization) -> tuple[np.ndarray, np.ndarray] | None:
    """The closed-form diagonal blocks of the cascade's Stein solution, or None.

    Returns the ``k`` core blocks stacked as ``(k, n, n)``, top first, and
    the identity for the elementary block, whose system matrix is a
    permutation times the DFT.  A core in the bidiagonal normal form of
    :func:`realize_allpass_core` is similar to the lattice all-pass section
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


def _add_block_rows(residual: np.ndarray, system: np.ndarray, lo: int, weights) -> None:
    """Add ``S_b* W_b S_b - W_b`` into ``R`` for the block rows ``S_b`` of ``S``
    from row ``lo`` on, one per stacked weight ``W_b``.

    The product is taken over the nonzero columns ``J`` of ``S_b`` into
    ``R[J, J]``; each ``J`` is padded to the longest with columns that are
    zero in its block row, which add nothing.
    """
    count, rows, _ = weights.shape
    size = system.shape[1]
    block = system[lo : lo + count * rows].reshape(count, rows, size)
    mask = (block != 0).any(axis=1)
    cols = np.argsort(~mask, axis=1, kind="stable")[:, : mask.sum(axis=1).max(initial=0)]
    block = np.take_along_axis(block, cols[:, None, :], axis=2)
    own = lo + np.arange(count * rows).reshape(count, rows)
    flat = residual.reshape(-1)
    product = _stack_adjoint(block) @ (weights @ block)
    np.add.at(flat, (cols[:, :, None] * size + cols[:, None, :]).ravel(), product.ravel())
    flat[(own[:, :, None] * size + own[:, None, :]).ravel()] -= weights.ravel()


def _row_energy(x: np.ndarray) -> np.ndarray:
    """The squared 2-norm of each row of a complex ``x`` with a contiguous last axis."""
    return np.einsum("ij,ij->i", x.view(float), x.view(float))


def _block_certificate(
    r: Realization, cores: np.ndarray, last: np.ndarray, method: str = "block"
) -> SteinCertificate:
    """The certificate of ``H = diag(cores[0], ..., cores[k-1], last)``.

    ``last`` is the elementary block, or all of ``H`` with no cores on the
    dense path, where ``worst_block`` stays None.  With ``S = [A B; C D]``,
    ``R = S* diag(H, I) S - diag(H, I)`` holds the state equation in
    ``R[:p, :p]``, the cross identity in ``R[:p, p:]`` and the input
    identity in ``R[p:, p:]``; :func:`_add_block_rows` sums it over the
    block rows of ``S`` (the cores, the last block, ``[C D]``), so every
    nonzero of ``S`` enters the residuals.  The norms, the inverse, the
    Hermiticity and the Cholesky test of ``H`` are taken per block: for a
    block-diagonal ``H`` each is the dense one.
    """
    k, n, _ = cores.shape
    kn, p = k * n, r.state_dim
    system = system_matrix(r)
    residual = np.zeros(system.shape, dtype=complex)
    for lo, weights in ((0, cores), (kn, last[None]), (p, _eye(r.inputs)[None])):
        _add_block_rows(residual, system, lo, weights)
    h = np.zeros((p, p), dtype=complex)
    for j in range(k):
        h[j * n : (j + 1) * n, j * n : (j + 1) * n] = cores[j]
    h[kn:, kn:] = last
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
