"""Tests for the dense complex matrix layer."""

import numpy as np
import pytest

from wfk import (
    DimensionError,
    SingularMatrixError,
    adjoint,
    frobenius_distance,
    mat_mul,
    solve_linear,
)

Q4 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, -1j, -1, 1j],
        [1, -1, 1, -1],
        [1, 1j, -1, -1j],
    ],
    dtype=complex,
)


class TestMatMul:
    def test_identity(self):
        m = np.array([[1 + 2j, 3], [0, -1j]])
        assert np.array_equal(mat_mul(np.eye(2), m), m)

    def test_swap_involution(self):
        p = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(mat_mul(p, p), np.eye(2))

    def test_dft4_unitary(self):
        assert frobenius_distance(mat_mul(Q4, adjoint(Q4)), np.eye(4)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_mul(np.eye(2), np.eye(3))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a, b, c = (
                rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
                for _ in range(3)
            )
            left = mat_mul(mat_mul(a, b), c)
            right = mat_mul(a, mat_mul(b, c))
            assert frobenius_distance(left, right) <= 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            mat_mul(np.array([[np.nan, 0], [0, 1]]), np.eye(2))


class TestAdjoint:
    def test_scalar(self):
        assert adjoint(np.array([[1j]]))[0, 0] == -1j

    def test_involution(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-1, 1, (3, 5)) + 1j * rng.uniform(-1, 1, (3, 5))
        assert np.array_equal(adjoint(adjoint(m)), m)

    def test_dft4_left_inverse(self):
        assert frobenius_distance(mat_mul(adjoint(Q4), Q4), np.eye(4)) <= 1e-12

    def test_product_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            b = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
            assert (
                frobenius_distance(adjoint(mat_mul(a, b)), mat_mul(adjoint(b), adjoint(a)))
                <= 1e-13
            )


class TestSolve:
    def test_identity(self):
        b = np.array([[1 + 1j], [2]], dtype=complex)
        assert np.allclose(solve_linear(np.eye(2), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(x, np.diag([0.5, 0.25]), atol=1e-14)

    def test_resolvent_row(self):
        # (zI - A) with A = [[0]] at z = 2 against the two-band input row.
        b = np.array([[1 / np.sqrt(2), -1 / np.sqrt(2)]])
        x = solve_linear(np.array([[2.0]]), b)
        expected = np.array([[1 / (2 * np.sqrt(2)), -1 / (2 * np.sqrt(2))]])
        assert np.allclose(x, expected, atol=1e-15)

    def test_recovers_solution(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5))
            if np.linalg.cond(a) > 1e6:
                continue
            x = rng.uniform(-1, 1, (5, 2)) + 1j * rng.uniform(-1, 1, (5, 2))
            rec = solve_linear(a, mat_mul(a, x))
            assert frobenius_distance(rec, x) <= 1e-9 * np.linalg.norm(x)

    def test_singular_raises_with_condition(self):
        with pytest.raises(SingularMatrixError, match="condition"):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_not_square(self):
        with pytest.raises(DimensionError):
            solve_linear(np.ones((2, 3)), np.ones((2, 1)))

    def test_rhs_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(np.eye(2), np.ones((3, 1)))


class TestFrobenius:
    def test_zero_on_equal(self):
        m = np.array([[1j, 2], [3, 4]])
        assert frobenius_distance(m, m) == 0.0

    def test_unit(self):
        assert frobenius_distance(np.array([[1.0]]), np.array([[0.0]])) == 1.0

    def test_pythagorean(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_distance(a, np.zeros((2, 2))) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance(np.eye(2), np.eye(3))
