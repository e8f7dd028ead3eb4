"""Minimal dense complex linear algebra used by every other module.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries,
treated as immutable after construction.  All functions here are pure and
carry no filter semantics.  Every linear solve in the package is LAPACK's
partial-pivot LU (``numpy.linalg.solve``): single systems go through
:func:`solve_linear`, while the evaluations over many circle points
(``realization.eval_realization`` and ``filters.quotient_decimation_check``)
call it on stacks of small systems directly.  Nothing in the package uses
an eigensolver or an SVD.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularMatrixError

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


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with an explicit dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Complex conjugate transpose."""
    return as_matrix(a).conj().T


def frobenius_distance(a, b) -> float:
    """Frobenius norm of ``a - b``; the operands must have equal shapes."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _pivot_spread(a: np.ndarray) -> float:
    """Ratio of largest to smallest |pivot| from complete-pivot elimination.

    Used only as a cheap condition indicator when a solve fails; returns
    ``inf`` for rank-deficient input.
    """
    work = np.array(a, dtype=complex)
    n = min(work.shape)
    pivots = []
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(np.abs(work)), work.shape)
        piv = work[i, j]
        if abs(piv) == 0.0:
            return float("inf")
        pivots.append(abs(piv))
        work = work - np.outer(work[:, j] / piv, work[i, :])
    if len(pivots) < n:
        return float("inf")
    return max(pivots) / min(pivots)


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square, numerically nonsingular ``a``.

    Parameters
    ----------
    a : array_like, shape (n, n)
    b : array_like, shape (n, k)

    Returns
    -------
    numpy.ndarray
        ``x`` with machine-level residual.

    Raises
    ------
    SingularMatrixError
        If ``a`` is singular to working precision; the message carries a
        condition estimate from the elimination pivots.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"coefficient matrix must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"incompatible right-hand side: {a.shape} vs {b.shape}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"singular system (pivot condition estimate {_pivot_spread(a):.3e})"
        ) from exc
    if not np.isfinite(x).all():
        raise SingularMatrixError(
            f"solve overflowed (pivot condition estimate {_pivot_spread(a):.3e})"
        )
    return x
