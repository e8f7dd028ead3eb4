"""Apply filters to sampled signals: subband analysis and synthesis.

FIR subband analysis runs as the polyphase lattice of the factorization
``W(z) = V_m(z**n) ... V_1(z**n) diag(1, 1/z, ..., z**-(n-1)) Q``: the
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
the one-factor lattice, so the bands equal its bands up to rounding.  The
two work arrays hold a whole row when that fits in ``_WORK_ENTRIES``
entries, else at most two rows' worth, about ``2L/n``.

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

from .errors import DimensionError, InvariantError
from .filters import (
    _WORK_ENTRIES,
    FilterParameters,
    _block_lattice,
    _count,
    _frozen,
    subband_filters,
)


def _as_signal(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise DimensionError(f"a signal must be one-dimensional, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InvariantError("signal samples must be finite")
    return x


@dataclass(frozen=True)
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


def _polyphase(x: np.ndarray, n: int) -> np.ndarray:
    """Rows ``y_i[j] = x[n*j - i]`` (indices mod ``x.size``), ``i < n``.

    A transpose of ``x`` seen as ``L/n`` rows of ``n``, copied a block of
    about ``_WORK_ENTRIES`` samples at a time: every row takes its part of a
    block while the block is in cache, so each cache line of ``x`` is
    fetched once, not once per row that reads it.  A copy moves no bits.
    """
    cols = x.reshape(-1, n).T  # cols[r, j] = x[n*j + r]
    c = cols.shape[1]
    y = np.empty(cols.shape, dtype=complex)
    if c:
        y[1:, 0] = cols[:0:-1, -1]
    step = max(_WORK_ENTRIES // n, 1)
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


def analyze(x, params: FilterParameters) -> SubbandSet:
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
    vectors = subband_filters(params)._factor_stack[0]
    x = _as_signal(x)
    n = params.n
    if x.size % n != 0:
        raise DimensionError(f"signal length {x.size} not divisible by {n}")
    y = _polyphase(x, n)
    with np.errstate(over="ignore", invalid="ignore"):
        _block_lattice(y, vectors)
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

    Applies the adjoint of :func:`analyze`.  A factor's adjoint
    ``I + (w - 1) v v*`` is the factor conjugated by the time reversal ``J``
    of a row, so the adjoint lattice is ``J L' J``, ``L'`` the lattice of
    the factors in reverse order (Vaidyanathan, Multirate Systems and Filter
    Banks, 1993, ch. 14): a reversed copy of the bands runs through
    :func:`_block_lattice` with the reversed factors, contiguous for the
    block products, and the interleave reads it reversed, applies the delay
    and writes the output once.  A round trip holds three signal-length
    arrays (the bands, the working rows, the output) and the lattice's
    work: one panel within ``_WORK_ENTRIES`` entries, or at most two rows'
    worth for rows that do not fit.  Equals the sum over bands of each band
    expanded by ``n`` and filtered with the conjugate time-reversal of its
    response, all responses padded to one shared delay, times ``sqrt(n)``.
    Raises :class:`InvariantError` on overflow.
    """
    delay = synthesis_delay(params)  # the FIR gate first
    if bands.n != params.n:
        raise DimensionError(f"band count {bands.n} != filter count {params.n}")
    y = np.array([b[::-1] for b in bands.bands])
    with np.errstate(over="ignore", invalid="ignore"):
        _block_lattice(y, params._factor_stack[0][::-1].copy())
        # a finite sum proves every sample finite, at half a full pass's cost
        finite = np.isfinite(y.sum()) or np.isfinite(y).all()
    if not finite:
        raise InvariantError("synthesis overflowed: a sample left the float range")
    return _interleave(y[:, ::-1], delay)
