"""Realizations at the edges of the certificates, shared by the library and CLI tests.

Each one reaches a branch that no valid filter does: a non-square
feedthrough, a closed-form Stein candidate that is not finite, a series
that neither settles nor overflows, and values that overflow at every
circle point.
"""

import numpy as np

from wfk import Realization, realize_wavelet, sample_parameters


def allpass_over_zero(transpose: bool) -> Realization:
    """The all-pass ``(1 - 0.5 z) / (z - 0.5)`` over a zero output row (2 x 1),
    or its transpose (1 x 2); the tall one is lossless."""
    s = np.sqrt(0.75)
    b, c, d = [[s]], [[s], [0.0]], [[-0.5], [0.0]]
    if transpose:
        b, c, d = np.transpose(c), np.transpose(b), np.transpose(d)
    return Realization(a=[[0.5]], b=b, c=c, d=d)


def huge_superdiagonal() -> Realization:
    """A (3, 2, 0.5) cascade with two superdiagonal entries at 1e200: the
    closed-form candidate is not finite and the dense series diverges."""
    r = realize_wavelet(sample_parameters(1, 3, 2, 0.5))
    a = np.array(r.a)
    a[0, 1] = a[1, 2] = 1e200
    return Realization(a=a, b=r.b, c=r.c, d=r.d)


def rotation_on_the_circle() -> Realization:
    """``A`` with eigenvalues ``+-i``: the Stein series never settles."""
    return Realization(a=[[0.0, 1.0], [-1.0, 0.0]], b=np.eye(2), c=np.eye(2), d=np.eye(2))


def overflowing_values() -> Realization:
    """Values that overflow at every point, so no circle point can be drawn."""
    return Realization(a=np.diag([0.5, -0.5]), b=1e300 * np.eye(2), c=1e300 * np.eye(2), d=np.eye(2))
