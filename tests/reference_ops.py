"""Reference operations the tests compare the package against.

Direct-form signal operations (decimation, expansion, circular
convolution), the LTI state recursion, the series cascade of two
realizations as one block matrix, pointwise values of single factors,
the quotient decimation check, the conjugate transpose, the box map of
one row, the coordinate check of a box point, row by row, the
one-factor lattice as it was before its work rows were reused, in both
directions (``_lattice``), which the blocked lattice of the signal path
must agree with, the responses it gives in their first layout (``_responses``), which
the package's must equal byte for byte, the interleave as it was before
the synthesis delay moved into it (``_interleave``, followed by
``np.roll``), the per-factor updates of ``wavelet_eval``'s array path
(``_factor_updates``), which its blocked kernel must agree with, and the
two circle residuals written with ``np.roll`` and ``np.eye``, whose bits
the package's must keep.  None of these runs in a ``wfk`` command; each
is a plain restatement of a definition that a faster or more structured
path in the package must agree with.
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
    Factor,
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


def block_cascade(delta: Realization, inner: Realization) -> Realization:
    """The realization of ``F_delta(z) F_inner(z)``, ``delta``'s states on top:
    ``A = [[A_d, B_d C_i], [0, A_i]]``, ``B = [B_d D_i; B_i]``,
    ``C = [C_d, D_d C_i]`` and ``D = D_d D_i``."""
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


def _lattice(y: np.ndarray, vectors: np.ndarray, shift: int) -> None:
    """Apply ``I + (S - I) v v*`` for each ``v`` in turn to the rows of ``y``.

    ``S`` rolls a row circularly by ``shift`` samples: ``1`` is the unit
    delay ``1/w`` of a factor, ``-1`` its adjoint.  Works in place.
    """
    for v in vectors:
        s = v.conj() @ y
        d = np.empty_like(s)
        d[shift:] = s[:-shift]
        d[:shift] = s[-shift:]
        d -= s
        for row, vi in zip(y, v):
            row += vi * d


def _factor_updates(w: np.ndarray, vectors: np.ndarray, scales: np.ndarray) -> None:
    """Apply ``I + s_j v_j v_j*`` for each row ``v_j`` of ``vectors`` in turn to
    the rows of ``w``, one rank-one update ``w += s_j v_j (v_j* w)`` per
    factor, as ``wavelet_eval``'s array path did before its factors were
    blocked.  ``scales`` is ``(m, K)``, and point ``k`` owns the
    ``w.shape[1] // K`` adjacent columns from ``k * w.shape[1] // K`` on.
    Works in place."""
    points = scales.shape[1]
    if not points:
        return
    for v, s in zip(vectors, scales):
        t = (v.conj() @ w).reshape(points, -1)
        t *= s[:, None]
        w += v[:, None] * t.reshape(1, -1)


def symmetry_residual(values: np.ndarray) -> np.ndarray:
    """``||F(eps z) - F(z) P||_F`` per point from the stack ``[F(eps z); F(z)]``,
    with ``F(z) P`` as a roll of the columns."""
    rotated, plain = np.split(values, 2)
    return np.linalg.norm(rotated - np.roll(plain, -1, axis=-1), axis=(1, 2))


def unitarity_residual(values: np.ndarray) -> np.ndarray:
    """``||F(z)* F(z) - I||_F`` per point of the stack ``F(z)``."""
    eye = np.eye(values.shape[-1])
    return np.linalg.norm(np.swapaxes(values.conj(), 1, 2) @ values - eye, axis=(1, 2))


def _responses(filters) -> tuple[np.ndarray, ...]:
    """First-column taps of a filter set, each trimmed after its last
    nonzero tap, from :func:`_lattice` on the layout ``y[i, r, j]`` = tap
    ``n*j + r`` of band ``i``, the whole row at every factor."""
    n, vectors = filters.n, filters.vectors
    y = np.zeros((n, n, vectors.shape[0] + 1), dtype=complex)
    y[np.arange(n), np.arange(n), 0] = 1.0 / np.sqrt(n)
    _lattice(y.reshape(n, -1), vectors, 1)
    out = []
    for coeffs in y.transpose(0, 2, 1).reshape(n, -1):
        last = np.nonzero(np.abs(coeffs) > 0.0)[0]
        out.append(coeffs[: last[-1] + 1 if last.size else 1])
    return tuple(out)


def _interleave(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_polyphase`."""
    n = y.shape[0]
    x = np.empty(y.size, dtype=complex)
    cols = x.reshape(-1, n)  # cols[j, r] = x[n*j + r]
    cols[:, 0] = y[0]
    cols[:-1, :0:-1] = y[1:, 1:].T
    cols[-1:, :0:-1] = y[1:, :1].T
    return x


def _coords_to_factor(n: int, row: np.ndarray) -> Factor:
    """Build one factor from a row of box coordinates."""
    deltas = np.concatenate(([row[0]], row[1 : n - 1]))
    phases = np.concatenate(([0.0], row[n - 1 : 2 * n - 2]))
    mods = np.empty(n)
    prefix = 1.0
    for k in range(n - 1):
        mods[k] = prefix * np.cos(deltas[k])
        prefix *= np.sin(deltas[k])
    mods[n - 1] = prefix
    v = mods * np.exp(1j * phases)
    alpha = row[2 * n - 1] * np.exp(1j * row[2 * n - 2])
    return Factor(v=v, alpha=alpha)


def box_coordinate_error(n: int, rho: float, coords: np.ndarray) -> str | None:
    """The message of the first coordinate outside the box, row by row, or None."""
    for row in coords:
        if not 0.0 <= row[0] < np.pi:
            return f"delta_1 = {row[0]!r} outside [0, pi)"
        for ang in row[1 : 2 * n - 1]:
            if not 0.0 <= ang < 2 * np.pi:
                return f"angle {ang!r} outside [0, 2*pi)"
        r = row[2 * n - 1]
        if rho == 0.0:
            if r != 0.0:
                return "rho = 0 pins the radius coordinate to 0"
        elif not 0.0 <= r < rho:
            return f"radius {r!r} outside [0, {rho!r})"
    return None


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
