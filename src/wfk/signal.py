"""Apply filters to sampled signals: subband analysis and synthesis.

FIR subband analysis runs as the polyphase lattice of the factorization
``W(z) = V_m(z**n) ... V_1(z**n) diag(1, 1/z, ..., z**-(n-1)) Q``: the
polyphase components of the signal pass through the factors in
``w = z**n``, and each factor ``I + (1/w - 1) v v*`` costs one inner
product and one unit delay (Vaidyanathan, Nguyen, Doganata & Saramaki,
IEEE Trans. ASSP 37(7), 1989).  The work is O(L*m) for a signal of length
L, whatever the tap length.  Synthesis applies the adjoint lattice.

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
from .filters import SubbandFilterSet, _lattice


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
    """Rows ``y_i[j] = x[n*j - i]`` (indices mod ``x.size``), ``i < n``."""
    cols = x.reshape(-1, n).T  # cols[r, j] = x[n*j + r]
    y = np.empty(cols.shape, dtype=complex)
    y[0] = cols[0]
    y[1:, 1:] = cols[:0:-1, :-1]
    y[1:, :1] = cols[:0:-1, -1:]
    return y


def _interleave(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_polyphase`."""
    n = y.shape[0]
    x = np.empty(y.size, dtype=complex)
    cols = x.reshape(-1, n)  # cols[j, r] = x[n*j + r]
    cols[:, 0] = y[0]
    cols[:-1, :0:-1] = y[1:, 1:].T
    cols[-1:, :0:-1] = y[1:, :1].T
    return x


def analyze(x, filters: SubbandFilterSet) -> SubbandSet:
    """Split ``x`` into subbands: filter, decimate, and scale by ``sqrt(n)``.

    Runs as the polyphase lattice of the factorization: the rows
    ``y_i[j] = x[n*j - i]`` (circularly) pass through ``V_1 .. V_m`` in
    ``w = z**n``, one inner product and one unit delay per factor, so the
    work is O(L*m) whatever the tap length.  The ``sqrt(n)`` gain cancels
    the ``1/sqrt(n)`` of the first column of ``Q``, so the rows are the
    bands.  Band ``k`` is ``y[j] = sqrt(n) * sum_s h_k[s] x[(n*j - s) mod L]``
    for the response ``h_k``.  The signal length must be divisible by the
    band count so the circular lattice is well defined.
    """
    x = _as_signal(x)
    n = filters.n
    if x.size % n != 0:
        raise DimensionError(f"signal length {x.size} not divisible by {n}")
    y = _polyphase(x, n)
    _lattice(y, filters.vectors, 1)
    return SubbandSet(n=n, bands=tuple(y))


def synthesis_delay(filters: SubbandFilterSet) -> int:
    """Shared circular delay of the analysis/synthesis round trip."""
    return filters.max_length - 1


def synthesize(bands: SubbandSet, filters: SubbandFilterSet) -> np.ndarray:
    """Rebuild a signal from subbands; the result is the input delayed by
    ``synthesis_delay(filters)`` samples (circularly).

    Applies the adjoint of :func:`analyze`: the adjoint factors in reverse
    order, then the rows interleaved back onto the sample lattice.  Equals
    the sum over bands of each band expanded by ``n`` and filtered with the
    conjugate time-reversal of its response, all responses padded to one
    shared delay, times ``sqrt(n)``.
    """
    if bands.n != filters.n:
        raise DimensionError(f"band count {bands.n} != filter count {filters.n}")
    y = np.array(bands.bands)
    _lattice(y, filters.vectors[::-1], -1)
    return np.roll(_interleave(y), synthesis_delay(filters))
