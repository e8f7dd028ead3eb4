"""Matrix coercion and the package-wide tolerances.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries,
treated as immutable after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Default tolerance for all verification operations.
TOL = 1e-9
# Tolerance for entry-wise comparisons against golden fixtures.
FIXTURE_TOL = 1e-12


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


def adjoint(a) -> np.ndarray:
    """Complex conjugate transpose."""
    return as_matrix(a).conj().T
