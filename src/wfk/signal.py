"""Apply filters to sampled signals: subband analysis/synthesis and LTI runs.

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
lost by keeping only every n-th sample and makes it an isometry.
:func:`circular_convolve`, :func:`decimate` and :func:`expand` give the
same bands by direct filtering; they are kept as the reference.

Time-domain processing is offered for FIR filters only; filters with poles
are checked in the frequency domain, where the synthesis filter is the
conjugate transpose of the analysis filter on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvariantError
from .filters import (
    TOL,
    CheckReport,
    FilterParameters,
    SubbandFilterSet,
    _lattice,
    check_paraunitary,
    wavelet_eval,
)
from .realization import Realization


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


def decimate(x, n: int) -> np.ndarray:
    """Keep every n-th sample: ``y[k] = x[n*k]``."""
    if n < 1:
        raise InvariantError(f"decimation factor must be >= 1, got {n!r}")
    return _as_signal(x)[::n].copy()


def expand(x, n: int) -> np.ndarray:
    """Insert ``n - 1`` zeros after each sample: ``y[n*k] = x[k]``, else 0."""
    if n < 1:
        raise InvariantError(f"expansion factor must be >= 1, got {n!r}")
    x = _as_signal(x)
    out = np.zeros(n * x.size, dtype=complex)
    out[::n] = x
    return out


def circular_convolve(x, h) -> np.ndarray:
    """Periodic convolution ``y[t] = sum_s h[s] x[(t - s) mod L]``."""
    x = _as_signal(x)
    h = _as_signal(h)
    if h.size > x.size:
        raise DimensionError(
            f"filter length {h.size} exceeds signal length {x.size}"
        )
    full = np.convolve(h, x)
    y = full[: x.size].copy()
    tail = full[x.size :]
    y[: tail.size] += tail
    return y


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
    bands.  Equals ``sqrt(n) * decimate(circular_convolve(x, h), n)`` for
    each response ``h``.  The signal length must be divisible by the band
    count so the circular lattice is well defined.
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


def frequency_pr_check(
    params: FilterParameters,
    sample_points: int = 256,
    tol: float = TOL,
    seed: int = 0,
) -> CheckReport:
    """Perfect-reconstruction check on the circle: ``W(z)* W(z) = I``.

    On the unit circle the synthesis filter is the conjugate transpose of
    the analysis filter, so reconstruction is exact precisely when the
    filter is unitary there.  Works for FIR and IIR parameters alike.
    """
    report = check_paraunitary(
        lambda z: wavelet_eval(params, z), params.n, sample_points, tol, seed
    )
    return replace(report, name="frequency_pr")


def simulate(r: Realization, inputs, x0=None) -> tuple[np.ndarray, np.ndarray]:
    """Run the state recursion over an input sequence.

    Parameters
    ----------
    r : Realization
    inputs : array_like, shape (steps, inputs)
        One input vector per time step.
    x0 : array_like, shape (state_dim,), optional
        Initial state; zero when omitted.

    Returns
    -------
    (outputs, final_state)
        ``outputs`` has shape ``(steps, outputs)``.
    """
    u = np.asarray(inputs, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != r.inputs:
        raise DimensionError(
            f"inputs must have shape (steps, {r.inputs}), got {u.shape}"
        )
    if x0 is None:
        x = np.zeros(r.state_dim, dtype=complex)
    else:
        x = np.asarray(x0, dtype=complex).reshape(-1)
        if x.size != r.state_dim:
            raise DimensionError(
                f"initial state must have length {r.state_dim}, got {x.size}"
            )
        x = x.copy()
    outputs = np.empty((u.shape[0], r.outputs), dtype=complex)
    for t in range(u.shape[0]):
        outputs[t] = r.c @ x + r.d @ u[t]
        x = r.a @ x + r.b @ u[t]
    return outputs, x
