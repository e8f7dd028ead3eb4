"""Reference operations the tests compare the package against.

Direct-form signal operations (decimation, expansion, circular
convolution), the LTI state recursion, pointwise values of single factors,
the quotient decimation check and the conjugate transpose.  None of these
runs in a ``wfk`` command; each is a plain restatement of a definition
that a faster or more structured path in the package must agree with.
``check_symmetry``, ``check_paraunitary`` and ``frequency_pr_check`` read
one report off :func:`wfk.filters.circle_checks`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from wfk import (
    TOL,
    CheckReport,
    DimensionError,
    InvariantError,
    PoleError,
    Realization,
    circle_checks,
    wavelet_eval,
)
from wfk.filters import _circle_reports, _values, blaschke
from wfk.realization import as_matrix
from wfk.signal import _as_signal


def check_symmetry(eval_fn, n, sample_points=64, tol=TOL, seed=0) -> CheckReport:
    return circle_checks(eval_fn, n, sample_points, tol, seed)[0]


def check_paraunitary(eval_fn, n, sample_points=64, tol=TOL, seed=0) -> CheckReport:
    return circle_checks(eval_fn, n, sample_points, tol, seed)[1]


def frequency_pr_check(params, sample_points=256, tol=TOL, seed=0) -> CheckReport:
    fn = lambda z: wavelet_eval(params, z)  # noqa: E731
    return replace(check_paraunitary(fn, params.n, sample_points, tol, seed), name="frequency_pr")


def adjoint(a) -> np.ndarray:
    """Complex conjugate transpose."""
    return as_matrix(a).conj().T


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


def elementary_unitary_eval(v, alpha: complex, z) -> np.ndarray:
    """Value of the rank-one perturbation ``I + (phi_alpha(z) - 1) v v*``.

    ``z`` may be a point or an array of points; the result has shape
    ``z.shape + (n, n)``.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    scale = blaschke(complex(alpha), np.asarray(z, dtype=complex)) - 1.0
    return np.eye(v.size) + scale[..., None, None] * np.outer(v, v.conj())


def decimated_unitary_eval(v, alpha: complex, n: int, z) -> np.ndarray:
    """Same factor with ``z**n`` substituted; depends on ``z`` only through ``z**n``."""
    return elementary_unitary_eval(v, alpha, np.asarray(z, dtype=complex) ** n)


def quotient_decimation_check(
    fa, fb, n: int, sample_points: int = 64, tol: float = TOL, seed: int = 0
) -> CheckReport:
    """Check that the quotient ``F_b F_a**-1`` is invariant under ``z -> eps z``.

    For filters sharing the column-rotation symmetry the quotient is a
    function of ``z**n`` alone, so its value must agree at ``z`` and
    ``eps z``.  ``fa`` and ``fb`` follow the ``eval_fn`` contract of
    :func:`wfk.filters.circle_checks`; the points where ``F_a`` is singular,
    a pole of the quotient, raise ``PoleError`` and are redrawn.
    """
    root = np.exp(2j * np.pi / n)

    def quotient(zs):
        a = np.swapaxes(_values(fa, zs, n), 1, 2)
        b = np.swapaxes(_values(fb, zs, n), 1, 2)
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            raise PoleError("F_a is singular at a sampled point") from None
        if not np.isfinite(x).all():
            raise PoleError("F_a is numerically singular at a sampled point")
        return np.swapaxes(x, 1, 2)

    def residual(zs):
        rotated, plain = np.split(quotient(np.concatenate([root * zs, zs])), 2)
        return np.linalg.norm(rotated - plain, axis=(1, 2))

    return _circle_reports(["quotient_decimation"], residual, sample_points, tol, seed)[0]
