"""Apply filters to sampled signals: subband analysis and synthesis.

FIR subband analysis runs as the polyphase lattice of the factorization
``W(z) = V_m(z**n) ... V_1(z**n) diag(1, 1/z, ..., z**-(n-1)) Q``: the
polyphase components of the signal pass through the factors in
``w = z**n``, and each factor ``I + (1/w - 1) v v*`` costs one inner
product and one unit delay (Vaidyanathan, Nguyen, Doganata & Saramaki,
IEEE Trans. ASSP 37(7), 1989).  The work is O(L*m) for a signal of length
L, whatever the tap length.  Synthesis, the adjoint lattice, is the same
lattice with the factors in reverse order, run on time-reversed rows.

The factors are applied a block of ``_BLOCK`` at a time, over column
panels of the polyphase rows: one matrix product gives the block's inner
products and one its rank-one updates (the WY form of a product of
rank-one updates; Bischof & Van Loan, SIAM J. Sci. Stat. Comput. 8, 1987;
Schreiber & Van Loan, ibid. 10, 1989).  Each factor's algebra is that of
the one-factor lattice, so the bands equal its bands up to rounding.  The
two work arrays together hold at most two polyphase rows' worth of
samples, about ``2L/n``.

The subband path is circular (periodic) by design: with a signal length
divisible by the band count the round trip is an exact circular delay, so
perfect reconstruction is an equality rather than an edge-effect estimate.
Analysis carries a ``sqrt(n)`` gain, which compensates the factor ``1/n``
lost by keeping only every n-th sample and makes it an isometry.  Band
``k`` equals ``sqrt(n)`` times every n-th sample of the circular
convolution of the signal with the ``k``-th response, which the tests
compute by direct filtering as the reference.

Time-domain processing is offered for FIR filters only; filters with poles
are checked in the frequency domain, where the synthesis filter is the
conjugate transpose of the analysis filter on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvariantError
from .filters import SubbandFilterSet

# Factors per block of _block_lattice, chosen by measurement: a round trip
# of a 2**17-sample signal (subband_filters, analyze, synthesize) took
# 5.6 / 6.0 / 5.9 ms at (n, m) = (8, 16) and 9.6 / 9.4 / 9.1 ms at
# (16, 32) with 8 / 12 / 16 factors a block, median of 35, one BLAS thread,
# 2-CPU Xeon.  Larger blocks mean fewer passes over the rows but a longer
# sequential recurrence.
_BLOCK = 16
# Widest panel, in columns, so that neither work array nears the size of a
# signal-length array.  2048-column panels: 2.7 ms, but 4x the workspace.
_MAX_PANEL = 4096
# Samples per block of _polyphase's copy (512 KiB), so that every row takes
# its part of a block while the block is in cache; at 2**17 samples,
# n = 2 / 16: 0.14 / 0.24 ms against 0.18 / 0.41 ms unblocked.
_COPY_CELLS = 1 << 15


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex).reshape(-1)
    if not np.isfinite(x).all():
        raise InvariantError("signal samples must be finite")
    return x


@dataclass(frozen=True)
class SubbandSet:
    """N equal-length subband signals produced by analysis."""

    n: int
    bands: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.bands) != self.n:
            raise InvariantError(f"expected {self.n} bands, got {len(self.bands)}")
        bands = tuple(_as_signal(b) for b in self.bands)
        lengths = {b.size for b in bands}
        if len(lengths) > 1:
            raise InvariantError(f"bands must have equal lengths, got {sorted(lengths)}")
        for b in bands:
            b.flags.writeable = False
        object.__setattr__(self, "bands", bands)

    @property
    def band_length(self) -> int:
        return self.bands[0].size


def _polyphase(x: np.ndarray, n: int) -> np.ndarray:
    """Rows ``y_i[j] = x[n*j - i]`` (indices mod ``x.size``), ``i < n``.

    A transpose of ``x`` seen as ``L/n`` rows of ``n``, copied a block of
    about ``_COPY_CELLS`` samples at a time: every row takes its part of a
    block while the block is in cache, so each cache line of ``x`` is
    fetched once, not once per row that reads it.  A copy moves no bits.
    """
    cols = x.reshape(-1, n).T  # cols[r, j] = x[n*j + r]
    c = cols.shape[1]
    y = np.empty(cols.shape, dtype=complex)
    if c:
        y[1:, 0] = cols[:0:-1, -1]
    step = max(_COPY_CELLS // n, 1)
    for a in range(0, c, step):
        b = min(a + step, c)
        y[0, a:b] = cols[0, a:b]
        lo = max(a, 1)
        y[1:, lo:b] = cols[:0:-1, lo - 1 : b - 1]
    return y


def _interleave(y: np.ndarray, delay: int) -> np.ndarray:
    """Inverse of :func:`_polyphase`, delayed circularly by ``delay`` samples.

    With ``delay = q*n + r0`` (``0 <= r0 < n``) output phase ``r`` is one
    row circularly delayed by whole columns: row ``r0 - r`` by ``q`` for
    ``r <= r0`` and row ``n - r + r0`` by ``q - 1`` for ``r > r0``.  So
    each of the two classes of phases is one block of rows under one
    rotation, written as two transposed 2-D copies, one on each side of
    the rotation's cut.  The delay, also one at or beyond the signal
    length, costs no pass of its own, and the result is the only array
    written.
    """
    n, cols = y.shape
    x = np.empty(y.size, dtype=complex)
    if not cols:
        return x
    out = x.reshape(-1, n)  # out[j, r] = x[n*j + r]
    q, r0 = divmod(delay, n)
    # out[j, r] = y[(r0 - r) % n, (j + k) % cols]
    for rows, phases, k in (
        (y[r0::-1], slice(r0 + 1), -q % cols),
        (y[:r0:-1], slice(r0 + 1, n), (1 - q) % cols),
    ):
        out[: cols - k, phases] = rows[:, k:].T
        out[cols - k :, phases] = rows[:, :k].T
    return x


def _block_lattice(y: np.ndarray, vectors: np.ndarray, width: int | None = None) -> None:
    """Apply ``I + (S - I) v v*`` for each row ``v`` of ``vectors`` in turn to
    the rows of ``y``, ``_BLOCK`` factors at a time.

    ``S`` rolls a row circularly by one column, the unit delay ``1/w`` of a
    factor.  For a block ``V`` of rows ``v_1 .. v_k``, with
    ``G = conj(V) V^T`` (so ``G[j, i] = v_j* v_i``) and ``P = conj(V) y``::

        s_j = P_j + sum_{i<j} G[j, i] d_i,   d_j = S s_j - s_j,   y += V^T D

    ``s_j`` is ``v_j* y`` after the factors before ``j``, so this is the
    one-factor lattice exactly.  Columns couple only through ``S``, so the
    panels run left to right, each carrying every ``s_j`` at its last column
    into the next.  The wrap needs ``s_j`` at the last column before the
    first panel: it depends on the ``j`` columns that end there, so the last
    ``k`` columns, run without the wrap, give it exactly.  A block therefore
    holds at most as many factors as ``y`` has columns.

    Works in place on two work arrays that together hold at most two rows'
    worth of samples (plus a few columns when a row is short): ``d`` holds
    a panel's ``P`` and then its ``D``; ``work`` holds the ``s_j``, each
    with a spare column for the carried value, and then ``V^T D``.  Panels
    are ``width`` columns wide when it is given, else the widest multiple
    of 8 that keeps that bound, at most ``_MAX_PANEL``.  With one BLAS
    thread any multiple of 8, or a width of at least the row, gives the
    same bits: every panel then starts at a multiple of 8, and the products
    round a column alike wherever such a panel puts it.  With more threads
    OpenBLAS splits a large enough product at columns that depend on its
    width, and the bits may move by rounding there, as those of the
    one-factor lattice's inner products may.
    """
    n, cols = y.shape
    k = min(_BLOCK, vectors.shape[0], cols)
    if not k:
        return
    if width is None:
        width = (2 * cols // (k + max(k, n)) - 8) // 8 * 8
        width = min(max(width, 8), _MAX_PANEL)
    # a remainder under 8 columns joins the last panel: a one-column panel
    # would turn the products into matrix-vector products, with other bits
    starts = range(0, max(cols - 7, 1), width)
    panels = [y[:, a:b] for a, b in zip(starts, [*starts[1:], cols])]
    span = max(max(p.shape[1] for p in panels), k)
    d = np.empty((k, span), dtype=complex)
    work = np.empty(max(k * (span + 1), n * span), dtype=complex)
    for lo in range(0, vectors.shape[0], k):
        v = vectors[lo : lo + k]
        vc = v.conj()
        # G with its diagonal set to 1, so that one product with
        # [d_1 .. d_(j-1), P_j] gives s_j
        g = np.tril(vc @ v.T, -1)
        np.fill_diagonal(g, 1.0)
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


def analyze(x, filters: SubbandFilterSet) -> SubbandSet:
    """Split ``x`` into subbands: filter, decimate, and scale by ``sqrt(n)``.

    Runs as the polyphase lattice of the factorization: the rows
    ``y_i[j] = x[n*j - i]`` (circularly) pass through ``V_1 .. V_m`` in
    ``w = z**n``, one inner product and one unit delay per factor, so the
    work is O(L*m) whatever the tap length, ``_BLOCK`` factors at a time by
    :func:`_block_lattice`; the bands equal the one-factor lattice's up to
    rounding.  The ``sqrt(n)`` gain cancels the ``1/sqrt(n)`` of the first
    column of ``Q``, so the rows are the bands.  Band ``k`` is
    ``y[j] = sqrt(n) * sum_s h_k[s] x[(n*j - s) mod L]`` for the response
    ``h_k``.  The signal length must be divisible by the band count so the
    circular lattice is well defined.  Raises :class:`InvariantError` on
    overflow.
    """
    x = _as_signal(x)
    n = filters.n
    if x.size % n != 0:
        raise DimensionError(f"signal length {x.size} not divisible by {n}")
    y = _polyphase(x, n)
    with np.errstate(over="ignore", invalid="ignore"):
        _block_lattice(y, filters.vectors)
    try:
        return SubbandSet(n=n, bands=tuple(y))
    except InvariantError:  # x was finite, so a band that is not overflowed
        raise InvariantError("analysis overflowed: a band left the float range") from None


def synthesis_delay(filters: SubbandFilterSet) -> int:
    """Shared circular delay of the analysis/synthesis round trip."""
    return filters.max_length - 1


def synthesize(bands: SubbandSet, filters: SubbandFilterSet) -> np.ndarray:
    """Rebuild a signal from subbands; the result is the input delayed by
    ``synthesis_delay(filters)`` samples (circularly).

    Applies the adjoint of :func:`analyze`.  A factor's adjoint
    ``I + (w - 1) v v*`` is the factor conjugated by the time reversal ``J``
    of a row, so the adjoint lattice is ``J L' J``, ``L'`` the lattice of
    the factors in reverse order (Vaidyanathan, Multirate Systems and Filter
    Banks, 1993, ch. 14): a reversed copy of the bands runs through
    :func:`_block_lattice` with the reversed factors, contiguous for the
    block products, and the interleave reads it reversed, applies the delay
    and writes the output once.  A round trip holds three signal-length
    arrays (the bands, the working rows, the output) and the lattice's two
    rows of work.  Equals the sum over bands of each band expanded by ``n``
    and filtered with the conjugate time-reversal of its response, all
    responses padded to one shared delay, times ``sqrt(n)``.  Raises
    :class:`InvariantError` on overflow.
    """
    if bands.n != filters.n:
        raise DimensionError(f"band count {bands.n} != filter count {filters.n}")
    y = np.array([b[::-1] for b in bands.bands])
    with np.errstate(over="ignore", invalid="ignore"):
        _block_lattice(y, filters.vectors[::-1].copy())
        # a finite sum proves every sample finite, at half a full pass's cost
        finite = np.isfinite(y.sum()) or np.isfinite(y).all()
    if not finite:
        raise InvariantError("synthesis overflowed: a sample left the float range")
    return _interleave(y[:, ::-1], synthesis_delay(filters))
