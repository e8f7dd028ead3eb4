"""Tests for the matrix coercion layer."""

import numpy as np
import pytest

from reference_ops import adjoint

from wfk import DimensionError
from wfk.realization import as_matrix

Q4 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, -1j, -1, 1j],
        [1, -1, 1, -1],
        [1, 1j, -1, -1j],
    ],
    dtype=complex,
)


class TestAdjoint:
    def test_scalar(self):
        assert adjoint(np.array([[1j]]))[0, 0] == -1j

    def test_involution(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-1, 1, (3, 5))
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_dft4_unitary(self):
        assert np.linalg.norm(Q4 @ adjoint(Q4) - np.eye(4)) <= 1e-12

    def test_dft4_left_inverse(self):
        assert np.linalg.norm(adjoint(Q4) @ Q4 - np.eye(4)) <= 1e-12

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            b = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            assert np.linalg.norm(adjoint(a @ b) - adjoint(b) @ adjoint(a)) <= 1e-13

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            for fn in (as_matrix, adjoint):
                with pytest.raises(DimensionError, match="finite"):
                    fn(np.array([[bad, 0], [0, 1]]))
