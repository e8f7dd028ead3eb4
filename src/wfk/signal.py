"""Apply filters to sampled signals: subband analysis and synthesis.

At ``n = 2`` analysis and synthesis are one tap-matrix product per panel
of columns: the ``(2, S)`` taps ``sqrt(2) h_k[s]`` of the cached
:attr:`wfk.filters.FilterParameters.responses` times a window of strided
signal samples, or, for synthesis, of shifted band samples (Vaidyanathan,
Multirate Systems and Filter Banks, 1993, ch. 5).

From ``n = 3`` on, FIR subband analysis runs as the polyphase lattice of
the factorization ``W(z) = V_m(z**n) ... V_1(z**n) diag(1, 1/z, ..., z**-(n-1)) Q``: the
polyphase components of the signal pass through the factors in
``w = z**n``, and each factor ``I + (1/w - 1) v v*`` costs one inner
product and one unit delay (Vaidyanathan, Nguyen, Doganata & Saramaki,
IEEE Trans. ASSP 37(7), 1989).  The work is O(L*m) for a signal of length
L, whatever the tap length.  Synthesis, the adjoint lattice, is the same
lattice with the factors in reverse order, run on time-reversed rows.

The lattice is :func:`wfk.filters._block_lattice`, the one kernel that
also builds the impulse responses of
:attr:`wfk.filters.FilterParameters.responses`.
It applies the factors a block of ``_BLOCK`` at a time, over column panels
of the polyphase rows: one matrix product gives the block's inner products
and one its rank-one updates (the WY form of a product of rank-one
updates; Bischof & Van Loan, SIAM J. Sci. Stat. Comput. 8, 1987;
Schreiber & Van Loan, ibid. 10, 1989).  Each factor's algebra is that of
the one-factor lattice, so the bands equal its bands up to rounding.
Every blocked loop here reads the package's one working-set budget,
``filters._WORK_ENTRIES``, when it runs: the polyphase split and two-band
windows in the panels of :func:`_panels`, the lattice's two work arrays
within it or, for rows that do not fit, two rows' worth.

The subband path is circular (periodic) by design: with a signal length
divisible by the band count the round trip is an exact circular delay, so
perfect reconstruction is an equality rather than an edge-effect estimate.
Analysis carries a ``sqrt(n)`` gain, which compensates the factor ``1/n``
lost by keeping only every n-th sample and makes it an isometry.  Band
``k`` equals ``sqrt(n)`` times every n-th sample of the circular
convolution of the signal with the ``k``-th response, which the tests
compute by direct filtering as the reference.

:func:`analyze`, :func:`synthesize` and :func:`synthesis_delay` take the
filter's parameters and pass :func:`wfk.filters.subband_filters`, the one FIR
gate, which raises ``FirRequiredError`` unless every ``alpha`` is 0.  Filters
with poles are checked in the frequency domain, where the synthesis filter
is the conjugate transpose of the analysis filter on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import filters
from .errors import DimensionError, InvariantError
from .filters import FilterParameters, _block_lattice, _count, _frozen, subband_filters


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise DimensionError(f"a signal must be one-dimensional, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvariantError("signal samples must be finite")
    return x


@dataclass(frozen=True, eq=False)
class SubbandSet:
    """N equal-length subband signals produced by analysis."""

    n: int
    bands: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n))
        if len(self.bands) != self.n:
            raise InvariantError(f"expected {self.n} bands, got {len(self.bands)}")
        bands = tuple(_as_signal(_frozen(b, complex)) for b in self.bands)
        lengths = {b.size for b in bands}
        if len(lengths) > 1:
            raise InvariantError(f"bands must have equal lengths, got {sorted(lengths)}")
        object.__setattr__(self, "bands", bands)

    @property
    def band_length(self) -> int:
        return self.bands[0].size


def _panels(columns: int, rows: int) -> list[tuple[int, int]]:
    """Column ranges of ``w`` columns of ``rows`` rows, ``rows * w`` within
    ``filters._WORK_ENTRIES`` entries, ``w`` a multiple of 8 and at least 8.

    With one BLAS thread every such width gives a two-band product the same
    bits: a panel starts at a multiple of 8, a product rounds a column by
    its place modulo 4 in the panel, and the last panel ends at the last
    column whatever its width (measured from 8 columns to the whole row).
    """
    return filters._panel_bounds(columns, max(filters._WORK_ENTRIES // rows // 8 * 8, 8))


def _polyphase(x: np.ndarray, n: int) -> np.ndarray:
    """Rows ``y_i[j] = x[n*j - i]`` (indices mod ``x.size``), ``i < n``.

    A transpose of ``x`` seen as ``L/n`` rows of ``n``, copied a panel of
    :func:`_panels` at a time: every row takes its part of a panel while
    the panel is in cache, so each cache line of ``x`` is fetched once, not
    once per row that reads it.  A copy moves no bits.
    """
    cols = x.reshape(-1, n).T  # cols[r, j] = x[n*j + r]
    y = np.empty(cols.shape, dtype=complex)
    y[1:, :1] = cols[:0:-1, -1:]
    for a, b in _panels(cols.shape[1], n):
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


# The two-band path.  A tap-matrix product costs n*(m + 1) multiplies per
# sample against the lattice's 2*m, within one tap of each other only at
# n = 2, where the product also replaces the lattice's narrow passes
# (inner dimension 2 or 3, the per-factor recurrences) and the polyphase,
# reversed-copy and interleave passes around them.  Analysis of a
# 2**17-sample signal, lattice against the same product at any n, one
# BLAS thread, 2-CPU Xeon, median of 40 alternating: (2, 3) 4.4 -> 3.4 ms,
# (3, 6) 6.8 -> 7.1 ms, (4, 8) 7.3 -> 9.0 ms, (8, 16) 9.2 -> 14.5 ms; so
# n >= 3 keeps the lattice.  The benchmark runs both sides of the rule:
# `subband` at n = 2 beside 8 and 16, `cli` at n = 4.


def _two_band_taps(params: FilterParameters) -> np.ndarray:
    """The ``(2, S)`` tap matrix ``A[k, s] = sqrt(2) h_k[s]`` of the two
    responses ``h_k``, zero past each, over the even span ``S >= max_length``."""
    taps = np.zeros((2, -(-params.max_length // 2) * 2), dtype=complex)
    for row, h in zip(taps, params.responses):
        np.multiply(h, np.sqrt(2), out=row[: h.size])
    return taps


def _window(signal: np.ndarray, start: int, step: int, out: np.ndarray) -> None:
    """``out[r, c] = signal[(start - r + step*c) mod signal.size]``: a copy
    of one strided view where no index wraps, else a gather."""
    rows, cols = out.shape
    if start - rows + 1 >= 0 and start + step * (cols - 1) < signal.size:
        stride = signal.strides[0]
        view = as_strided(signal[start:], out.shape, (-stride, step * stride), writeable=False)
        np.copyto(out, view)
    else:
        index = start - np.arange(rows)[:, None] + step * np.arange(cols)
        np.take(signal, index, mode="wrap", out=out)


def _two_band_analysis(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The bands ``y[k, j] = sum_s A[k, s] x[(2j - s) mod L]`` as one
    product ``A @ window`` per panel of columns ``j``, where
    ``window[s, j] = x[(2j - s) mod L]``."""
    half, span = x.size // 2, taps.shape[1]
    bands = np.empty((2, half), dtype=complex)
    panels = _panels(half, span)
    window = np.empty((span, max(b - a for a, b in panels)), dtype=complex)
    for a, b in panels:
        panel = window[:, : b - a]
        _window(x, 2 * a, 2, panel)
        np.matmul(taps, panel, out=bands[:, a:b])
    return bands


def _two_band_synthesis(bands, taps: np.ndarray, delay: int) -> np.ndarray:
    """The adjoint of :func:`_two_band_analysis` delayed by ``delay``:
    ``x[2p + r] = sum_{k, t} conj(A[k, delay - r - 2t]) b_k[(p - t) mod L/2]``.

    Each panel of output pairs ``p`` gathers the shifted band samples
    ``b_k[p - t]``, ``t < S/2``, into the rows of one window and takes one
    ``(2, S) @ (S, w)`` product, as its transpose, so that it writes the
    output pairs in place and every output sample is written once.
    ``delay`` is ``max_length - 1``, so ``delay - r - 2t`` runs from
    ``S - 1`` down to no less than -1, where the tap is 0.
    """
    half, span = bands[0].size, taps.shape[1]
    reach = span // 2
    out = np.empty(2 * half, dtype=complex)
    conj_taps = np.zeros((2, span + 1), dtype=complex)  # the last column, index -1, is 0
    np.conjugate(taps, out=conj_taps[:, :span])
    index = delay - np.arange(2)[:, None] - 2 * np.arange(reach)
    # product[r, k*reach + t] = conj(A[k, delay - r - 2t])
    product = conj_taps[:, index].transpose(1, 0, 2).reshape(2, span)
    panels = _panels(half, span)
    window = np.empty((span, max(b - a for a, b in panels)), dtype=complex)
    pairs = out.reshape(half, 2)
    for a, b in panels:
        panel = window[:, : b - a]
        for k, band in enumerate(bands):
            _window(band, a, 1, panel[k * reach : (k + 1) * reach])
        np.matmul(panel.T, product.T, out=pairs[a:b])
    return out


def analyze(x, params: FilterParameters) -> SubbandSet:
    """Split ``x`` into subbands: filter, decimate, and scale by ``sqrt(n)``.

    Band ``k`` is ``y[j] = sqrt(n) * sum_s h_k[s] x[(n*j - s) mod L]`` for
    the response ``h_k``.  At ``n = 2`` that is one tap-matrix product per
    panel of the bands (:func:`_two_band_analysis`).  From ``n = 3`` on it
    runs as the polyphase lattice of the factorization: the rows
    ``y_i[j] = x[n*j - i]`` (circularly) pass through ``V_1 .. V_m`` in
    ``w = z**n``, one inner product and one unit delay per factor, so the
    work is O(L*m) whatever the tap length, ``_BLOCK`` factors at a time by
    :func:`_block_lattice`; the bands equal the one-factor lattice's up to
    rounding.  The ``sqrt(n)`` gain cancels the ``1/sqrt(n)`` of the first
    column of ``Q``, so the rows are the bands.  The signal length must be
    divisible by the band count so the circular bands are well defined.
    Raises :class:`InvariantError` on overflow.
    """
    n = subband_filters(params).n
    x = _as_signal(x)
    if x.size % n != 0:
        raise DimensionError(f"signal length {x.size} not divisible by {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:
            y = _two_band_analysis(x, _two_band_taps(params))
        else:
            y = _polyphase(x, n)
            _block_lattice(y, params._factor_stack[0])
    y.flags.writeable = False  # so the set keeps the rows, not a copy
    try:
        return SubbandSet(n=n, bands=tuple(y))
    except InvariantError:  # x was finite, so a band that is not overflowed
        raise InvariantError("analysis overflowed: a band left the float range") from None


def synthesis_delay(params: FilterParameters) -> int:
    """Shared circular delay of the analysis/synthesis round trip."""
    return subband_filters(params).max_length - 1


def synthesize(bands: SubbandSet, params: FilterParameters) -> np.ndarray:
    """Rebuild a signal from subbands; the result is the input delayed by
    ``synthesis_delay(params)`` samples (circularly).

    Applies the adjoint of :func:`analyze`: the sum over bands of each band
    expanded by ``n`` and filtered with the conjugate time-reversal of its
    response, all responses padded to one shared delay, times ``sqrt(n)``.
    At ``n = 2`` that is one tap-matrix product per panel of output pairs
    (:func:`_two_band_synthesis`), which holds the output and one panel's
    window.  From ``n = 3`` on, a factor's adjoint ``I + (w - 1) v v*`` is
    the factor conjugated by the time reversal ``J`` of a row, so the
    adjoint lattice is ``J L' J``, ``L'`` the lattice of the factors in
    reverse order (Vaidyanathan, Multirate Systems and Filter Banks, 1993,
    ch. 14): a reversed copy of the bands runs through
    :func:`_block_lattice` with the reversed factors, contiguous for the
    block products, and the interleave reads it reversed, applies the delay
    and writes the output once.  There a round trip holds three
    signal-length arrays (the bands, the working rows, the output) and the
    lattice's work: one panel within ``filters._WORK_ENTRIES`` entries, or
    at most two rows' worth for rows that do not fit.  Raises
    :class:`InvariantError` on overflow.
    """
    delay = synthesis_delay(params)  # the FIR gate first
    if bands.n != params.n:
        raise DimensionError(f"band count {bands.n} != filter count {params.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        if params.n == 2:
            y = _two_band_synthesis(bands.bands, _two_band_taps(params), delay)
        else:
            y = np.array([b[::-1] for b in bands.bands])
            _block_lattice(y, params._factor_stack[0][::-1].copy())
        # a finite sum proves every sample finite, at half a full pass's cost
        finite = np.isfinite(y.sum()) or np.isfinite(y).all()
    if not finite:
        raise InvariantError("synthesis overflowed: a sample left the float range")
    return y if params.n == 2 else _interleave(y[:, ::-1], delay)
