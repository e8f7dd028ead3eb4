"""Tests for the parameter space, filter evaluation and circle checks."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from reference_matrices import closed_form_wa, closed_form_wb
import reference_ops
from reference_ops import (
    adjoint,
    box_coordinate_error,
    check_paraunitary,
    check_symmetry,
    decimated_unitary_eval,
    elementary_unitary_eval,
    quotient_decimation_check,
    _coords_to_factor,
)

from wfk import (
    BoxPoint,
    CheckReport,
    DimensionError,
    Factor,
    FilterParameters,
    FirRequiredError,
    InvariantError,
    PoleError,
    SamplingError,
    box_to_params,
    circle_checks,
    dft_matrix,
    elementary_wavelet_eval,
    eval_realization,
    params_to_box,
    realize_wavelet,
    sample_box,
    sample_parameters,
    subband_filters,
    unit_circle_points,
    wavelet_eval,
)
from wfk import filters
from wfk.filters import _max_circle_residual

R2 = 1 / np.sqrt(2)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def circle(count, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, count))


def wa_params(alpha, rho=0.9):
    return FilterParameters(n=2, rho=rho, factors=(Factor(E2, alpha),))


def wb_params(alpha, beta, rho=0.9):
    s = complex(beta) ** 0.5
    return FilterParameters(
        n=2, rho=rho, factors=(Factor(E2, alpha), Factor(E1, s), Factor(E1, -s))
    )


class TestDftMatrix:
    def test_printed_four_band(self):
        expected = 0.5 * np.array(
            [[1, 1, 1, 1], [1, -1j, -1, 1j], [1, -1, 1, -1], [1, 1j, -1, -1j]]
        )
        assert np.abs(dft_matrix(4) - expected).max() <= 1e-12

    def test_two_band(self):
        assert np.abs(dft_matrix(2) - R2 * np.array([[1, 1], [1, -1]])).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unitary(self, n):
        q = dft_matrix(n)
        assert np.linalg.norm(adjoint(q) @ q - np.eye(n)) <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(InvariantError):
            dft_matrix(1)


def shift_matrix(n):
    """The cyclic shift ``P e_j = e_{j+1}``: ``P[j+1, j] = 1``."""
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return p


class TestCyclicShift:
    """The symmetry residual of :func:`circle_checks` is ``||F(eps z) - F(z) P||_F``."""

    @staticmethod
    def assert_residual_uses(p):
        n = p.shape[0]
        filt = sample_parameters(n, n, 2, 0.9)
        rng = np.random.default_rng(n)
        l0, l1 = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        zs = unit_circle_points(32, 4)
        eps = np.exp(2j * np.pi / n)
        fns = (lambda z: wavelet_eval(filt, z), lambda z: l0 + z[:, None, None] * l1)
        reports = [circle_checks(fn, n, 32, 1e-9, 4)[0] for fn in fns]
        for fn, report in zip(fns, reports):
            expected = np.linalg.norm(fn(eps * zs) - fn(zs) @ p, axis=(1, 2)).max()
            assert report.max_residual == expected
        # the filter passes and the non-symmetric function fails
        assert reports[0].passed and not reports[1].passed

    def test_two_band_swap(self):
        self.assert_residual_uses(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_three_band(self):
        self.assert_residual_uses(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_sixteen_band(self):
        self.assert_residual_uses(shift_matrix(16))


class TestElementaryWavelet:
    def test_at_one_is_dft(self):
        assert np.abs(elementary_wavelet_eval(2, 1.0) - dft_matrix(2)).max() <= 1e-15

    def test_two_band_closed_form(self):
        for z in circle(16):
            expected = R2 * np.array([[1, 1], [1 / z, -1 / z]])
            assert np.abs(elementary_wavelet_eval(2, z) - expected).max() <= 1e-14

    def test_three_band_product(self):
        # independent oracle: recompute the DFT entries and multiply by hand
        eps = np.exp(2j * np.pi / 3)
        q3 = np.array(
            [[eps ** (-(j * k)) for k in range(3)] for j in range(3)]
        ) / np.sqrt(3)
        expected = np.diag([1, 0.5, 0.25]) @ q3
        assert np.abs(elementary_wavelet_eval(3, 2.0) - expected).max() <= 1e-14

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            elementary_wavelet_eval(2, 0.0)

    def test_band_count_below_two_raises(self):
        # the index-0 case of wavelet_eval checks n as FilterParameters does
        with pytest.raises(InvariantError, match="band count"):
            elementary_wavelet_eval(1, 1.0)


class TestElementaryUnitary:
    def test_alpha_zero_is_delay(self):
        for z in circle(8, seed=1):
            val = elementary_unitary_eval(E1, 0.0, z)
            assert np.abs(val - np.diag([1 / z, 1])).max() <= 1e-14

    def test_unitary_on_circle(self):
        rng = np.random.default_rng(2)
        for z in circle(16, seed=3):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            alpha = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
            val = elementary_unitary_eval(v, alpha, z)
            assert np.linalg.norm(adjoint(val) @ val - np.eye(3)) <= 1e-13

    def test_vanishing_scalar_factor(self):
        v = np.array([R2, R2])
        val = elementary_unitary_eval(v, 0.5, 2.0)
        assert np.abs(val - (np.eye(2) - np.outer(v, v))).max() <= 1e-14

    def test_pole(self):
        with pytest.raises(PoleError):
            elementary_unitary_eval(E1, 0.5, 0.5)


class TestDecimatedUnitary:
    def test_two_band_closed_form(self):
        alpha = 0.3 - 0.2j
        for z in circle(8, seed=4):
            phi = (1 - np.conj(alpha) * z ** 2) / (z ** 2 - alpha)
            val = decimated_unitary_eval(E2, alpha, 2, z)
            assert np.abs(val - np.diag([1, phi])).max() <= 1e-13

    def test_alpha_zero_three_band(self):
        val = decimated_unitary_eval(np.array([1, 0, 0]), 0.0, 3, 2.0)
        assert np.abs(val - np.diag([1 / 8, 1, 1])).max() <= 1e-14

    def test_rotation_invariance(self):
        eps = np.exp(2j * np.pi / 3)
        v = np.array([0.6, 0.8j, 0.0])
        for z in circle(16, seed=5):
            a = decimated_unitary_eval(v, 0.4j, 3, z)
            b = decimated_unitary_eval(v, 0.4j, 3, eps * z)
            assert np.abs(a - b).max() <= 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            decimated_unitary_eval(E2, 0.25, 2, np.sqrt(0.25))


class TestFactorProducts:
    def test_paired_square_root_poles_merge_to_decimated_factor(self):
        # V(z, v, s) V(z, v, -s) == V(z**2, v, s**2) for a shared vector
        beta = 0.3 + 0.1j
        s = complex(beta) ** 0.5
        v = np.array([0.6, 0.8j])
        for z in circle(16, seed=30):
            prod = elementary_unitary_eval(v, s, z) @ elementary_unitary_eval(v, -s, z)
            merged = decimated_unitary_eval(v, beta, 2, z)
            assert np.abs(prod - merged).max() <= 1e-13

    def test_orthogonal_vectors_same_pole_give_scalar_allpass(self):
        # with v1 perpendicular to v2 and a shared pole the product is
        # phi(z) * I on two bands
        alpha = 0.4 - 0.1j
        for z in circle(16, seed=31):
            prod = elementary_unitary_eval(E1, alpha, z) @ elementary_unitary_eval(
                E2, alpha, z
            )
            phi = (1 - np.conj(alpha) * z) / (z - alpha)
            assert np.abs(prod - phi * np.eye(2)).max() <= 1e-13


class TestWaveletEval:
    def test_empty_product_is_elementary(self):
        p = FilterParameters(n=3, rho=0.0, factors=())
        for z in circle(8, seed=6):
            assert np.array_equal(wavelet_eval(p, z), elementary_wavelet_eval(3, z))

    def test_wa_closed_form(self):
        alpha = 0.5
        p = wa_params(alpha)
        for z in circle(32, seed=7):
            assert np.abs(wavelet_eval(p, z) - closed_form_wa(z, alpha)).max() <= 1e-13

    def test_wa_at_two(self):
        val = wavelet_eval(wa_params(0.5), 2.0)
        expected = R2 * np.array([[1, 1], [-1 / 7, 1 / 7]])
        assert np.abs(val - expected).max() <= 1e-14

    def test_wb_closed_form(self):
        alpha, beta = 0.5, 0.3 + 0.1j
        p = wb_params(alpha, beta)
        for z in circle(32, seed=8):
            assert np.abs(wavelet_eval(p, z) - closed_form_wb(z, alpha, beta)).max() <= 1e-13


class TestBatchedEvaluation:
    @pytest.mark.parametrize(
        "n,m,rho",
        [(2, 3, 0.9), (3, 2, 0.0), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999), (16, 32, 0.999)],
    )
    def test_array_matches_points(self, n, m, rho):
        p = sample_parameters(50 + n + m, n, m, rho)
        pts = circle(40, seed=n)
        stacked = np.array([wavelet_eval(p, z) for z in pts])
        assert np.abs(wavelet_eval(p, pts) - stacked).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_elementary_array_matches_points(self, n):
        pts = circle(24, seed=40 + n)
        stacked = np.array([elementary_wavelet_eval(n, z) for z in pts])
        assert np.abs(elementary_wavelet_eval(n, pts) - stacked).max() <= 1e-14

    def test_shapes(self):
        p = sample_parameters(3, 3, 2, 0.9)
        assert wavelet_eval(p, 0.3 + 0.9j).shape == (3, 3)
        assert elementary_wavelet_eval(3, 1j).shape == (3, 3)
        grid = circle(6, seed=1).reshape(2, 3)
        values = wavelet_eval(p, grid)
        assert values.shape == (2, 3, 3, 3)
        assert np.abs(values[1, 2] - wavelet_eval(p, grid[1, 2])).max() <= 1e-14

    def test_pole_anywhere_raises(self):
        p = wa_params(0.25)
        with pytest.raises(PoleError):
            wavelet_eval(p, np.array([1.0, 0.5, 1j]))
        with pytest.raises(PoleError):
            wavelet_eval(p, np.array([1.0, 0.0]))


class TestFactorBlocks:
    """The array path applies its factors ``_FACTOR_BLOCK`` (8) at a time;
    run with one rank-one update per factor instead, it gives the same
    values within 1e-14 of their largest modulus."""

    @staticmethod
    def params(n, m, radius, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        alphas = radius * np.exp(2j * np.pi * rng.uniform(size=m))
        factors = tuple(Factor(u, a) for u, a in zip(v, alphas))
        return FilterParameters(n=n, rho=1.0 if radius else 0.0, factors=factors)

    @staticmethod
    def points(seed):
        # circle points, with off-circle points and points whose z**n
        # overflows mixed in among them
        turns = np.exp(1j * np.array([0.3, 2.0, 4.1]))
        pts = circle(24, seed=seed)
        for at, z in ((3, 1e200), (4, 1.5), (10, 1e300), (11, 1e200), (17, 2.5)):
            pts = np.insert(pts, at, z * turns)
        return pts

    @pytest.mark.parametrize("radius", [0.0, 0.999])
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 16, 17, 33])
    def test_matches_the_per_factor_loop(self, monkeypatch, m, n, radius):
        p = self.params(n, m, radius, seed=100 * n + m)
        pts = self.points(n + m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocked = wavelet_eval(p, pts)
            monkeypatch.setattr(filters, "_factor_updates", reference_ops._factor_updates)
            looped = wavelet_eval(p, pts)
        assert np.isfinite(looped).all()
        assert np.abs(blocked - looped).max() <= 1e-14 * np.abs(looped).max()

    @pytest.mark.parametrize("n", [2, 8])
    def test_pole_point_is_named(self, n):
        # the pole of factor 9, the first of the second block, among
        # ordinary and overflowing points
        p = self.params(n, 17, 0.999, seed=n)
        root = complex(p.factors[8].alpha) ** (1.0 / n) * np.exp(2j * np.pi / n)
        pts = np.insert(self.points(n), 12, root)
        with np.errstate(over="ignore", invalid="ignore"):
            w = complex((pts**n)[12])
        with pytest.raises(PoleError, match=re.escape(f"(w = {w!r})")):
            wavelet_eval(p, pts)


RUNGS = [(2, 3, 0.9), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999), (16, 32, 0.999)]


def point_forms(z):
    """One point as each input form, with the result shape it must keep."""
    return [
        (complex(z), ()),
        (np.array(z), ()),
        (np.complex128(z), ()),
        (np.array([z]), (1,)),
        (np.array([[z]]), (1, 1)),
    ]


# Real points as Python int, bool and float and as numpy float64 and int64
REAL_POINT_FORMS = [2, True, -0.5, np.float64(-0.5), np.int64(2)]


def assert_one_point_forms(evaluate, target, points, shape):
    """Every one-point form of each point keeps its result shape, and each
    form and each array of the first 1 to K points matches the scalar calls
    within 1e-14 relative; each of ``REAL_POINT_FORMS`` gives one value
    that matches a one-element array of its point within 1e-14 relative."""
    single = np.array([evaluate(target, complex(z)) for z in points])
    scale = np.abs(single).max()
    for k, z in enumerate(points):
        for form, lead in point_forms(z):
            value = evaluate(target, form)
            assert value.shape == lead + shape
            assert np.abs(value.reshape(shape) - single[k]).max() <= 1e-14 * scale
    for count in range(1, points.size + 1):
        assert np.abs(evaluate(target, points[:count]) - single[:count]).max() <= 1e-14 * scale
    for form in REAL_POINT_FORMS:
        value = evaluate(target, form)
        expected = evaluate(target, np.array([complex(form)]))[0]
        assert value.shape == shape
        assert np.abs(value - expected).max() <= 1e-14 * np.abs(expected).max()


class TestOnePointKernel:
    @pytest.mark.parametrize("n,m,rho", RUNGS)
    def test_point_forms_match_the_array_path(self, n, m, rho):
        p = sample_parameters(80 + n, n, m, rho)
        assert_one_point_forms(wavelet_eval, p, circle(7, seed=n), (n, n))

    def test_index_zero_point_forms(self):
        p = FilterParameters(n=4, rho=0.0, factors=())
        assert_one_point_forms(wavelet_eval, p, circle(7, seed=1), (4, 4))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_point_value_is_a_fresh_writable_array(self, m):
        # the one-point kernels read arrays cached on the filter and the
        # realization; writing into a value must not reach them
        p = sample_parameters(6, 4, m, 0.9)
        for evaluate, target in ((wavelet_eval, p), (eval_realization, realize_wavelet(p))):
            value = evaluate(target, 0.3 + 0.4j)
            kept = value.copy()
            assert value.flags.writeable and value.flags.owndata
            value[...] = np.nan
            assert np.array_equal(evaluate(target, 0.3 + 0.4j), kept)

    def test_empty_array(self):
        p = sample_parameters(4, 3, 2, 0.9)
        assert wavelet_eval(p, np.zeros(0, dtype=complex)).shape == (0, 3, 3)

    @pytest.mark.parametrize("n", [2, 4])
    def test_poles_raise_without_warnings(self, n):
        p = sample_parameters(5, n, 3, 0.9)
        alpha = p.factors[1].alpha
        root = complex(alpha) ** (1.0 / n) * np.exp(2j * np.pi / n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (0.0, 0j, np.array(0j), np.zeros(3, dtype=complex)):
                with pytest.raises(PoleError, match="z = 0"):
                    wavelet_eval(p, z)
            for z in (root, np.array([1j, root])):
                with pytest.raises(PoleError, match="all-pass factor evaluated at its pole"):
                    wavelet_eval(p, z)

    @pytest.mark.parametrize("turn", [1.0, -1.0, 1j])
    def test_pole_guard_matches_the_array_kernel(self, turn):
        # w at 0.5 to 4 guards (1e-14) from the pole of largest modulus,
        # outward, inward and along its circle: the one-point kernel skips
        # the minimum over the factors beyond twice the guard outward only
        p = sample_parameters(5, 4, 3, 0.9)
        alpha = max((f.alpha for f in p.factors), key=abs)
        for d in (0.5, 0.9, 1.1, 1.5, 1.9, 2.1, 2.5, 4.0):
            z = (alpha + turn * alpha / abs(alpha) * d * 1e-14) ** 0.25
            for form in (z, np.array([z])):
                if d < 1:
                    with pytest.raises(PoleError, match="all-pass factor evaluated at its pole"):
                        wavelet_eval(p, form)
                else:
                    assert np.isfinite(wavelet_eval(p, form)).all()

    @pytest.mark.parametrize("m", [0, 4])
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_huge_points_match_the_realization(self, n, m):
        # z**n leaves the float range at each of these moduli but 1e20 for
        # n < 16; there the filter is its value at infinity plus O(1/z).
        # Circle points share the array call and keep the bits they get at
        # the same positions among ordinary off-circle points: the
        # vector-matrix product of the array kernel rounds a point by its
        # position in the array.  At the top of the float range 1/z overflows
        # inside numpy's division, and |z| inside Python's abs at
        # 1.5e308 * (1 + 1j); those points go in calls of their own
        p = sample_parameters(90 + n, n, m, 0.9)
        r = realize_wavelet(p)
        turns = np.exp(1j * np.array([0.0, 0.7, np.pi / 2, 2.9]))
        huge = np.concatenate([size * turns for size in (1e20, 1e160, 1e200, 1e300)])
        top = np.array([1e308 + 1e308j, -1e308 - 1e308j, 1.5e308 + 1.5e308j])
        near = circle(3, seed=n)
        pts = np.concatenate([near[:1], huge, near[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = wavelet_eval(p, pts)
            single = np.array([wavelet_eval(p, complex(z)) for z in pts])
            realized = eval_realization(r, pts)
            realized_single = np.array([eval_realization(r, complex(z)) for z in pts])
            top_realized = eval_realization(r, top)
            top_values = [
                wavelet_eval(p, top),
                np.array([wavelet_eval(p, complex(z)) for z in top]),
                np.array([eval_realization(r, complex(z)) for z in top]),
            ]
        scale = np.abs(realized).max()
        for got in (values, single, realized_single):
            assert np.abs(got - realized).max() <= 1e-12 * scale
        for got in top_values:
            assert np.abs(got - top_realized).max() <= 1e-12 * scale
        ordinary = np.concatenate([size * turns for size in (1.5, 2.0, 3.0, 5.0)])
        ordinary = wavelet_eval(p, np.concatenate([near[:1], ordinary, near[1:]]))
        assert np.array_equal(values[[0, -2, -1]], ordinary[[0, -2, -1]])


class TestBoxMap:
    def test_two_band_formula(self):
        delta, phase, theta, r = 0.7, 1.1, 2.0, 0.3
        box = BoxPoint(n=2, rho=0.9, coords=np.array([[delta, phase, theta, r]]))
        f = box_to_params(box).factors[0]
        expected = np.array([np.cos(delta), np.sin(delta) * np.exp(1j * phase)])
        assert np.abs(f.v - expected).max() <= 1e-14
        assert abs(f.alpha - r * np.exp(1j * theta)) <= 1e-14

    def test_all_zero_box(self):
        box = BoxPoint(n=3, rho=0.5, coords=np.zeros((1, 6)))
        f = box_to_params(box).factors[0]
        assert np.abs(f.v - np.array([1, 0, 0])).max() <= 1e-14
        assert f.alpha == 0

    def test_roundtrip_two_band_full_interior(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            coords = np.array(
                [
                    [
                        rng.uniform(1e-6, np.pi - 1e-6),
                        rng.uniform(1e-6, 2 * np.pi - 1e-6),
                        rng.uniform(1e-6, 2 * np.pi - 1e-6),
                        rng.uniform(1e-6, 0.9 - 1e-6),
                    ]
                ]
            )
            box = BoxPoint(n=2, rho=0.9, coords=coords)
            back = params_to_box(box_to_params(box))
            assert np.abs(back.coords - coords).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 4])
    def test_roundtrip_canonical_section(self, n):
        # The modulus-chain angles of the inverse always land in [0, pi/2];
        # the box map restricted to that section is invertible.
        rng = np.random.default_rng(10 + n)
        for _ in range(100):
            row = np.concatenate(
                [
                    [rng.uniform(1e-6, np.pi - 1e-6)],
                    rng.uniform(1e-6, np.pi / 2 - 1e-6, n - 2),
                    rng.uniform(1e-6, 2 * np.pi - 1e-6, n - 1),
                    [rng.uniform(1e-6, 2 * np.pi - 1e-6)],
                    [rng.uniform(1e-6, 0.9 - 1e-6)],
                ]
            )
            box = BoxPoint(n=n, rho=0.9, coords=row[None, :])
            back = params_to_box(box_to_params(box))
            assert np.abs(back.coords - box.coords).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vector_reconstruction_from_full_box(self, n):
        # Even outside the canonical section the inverse reproduces the
        # exact same factors after one forward pass.
        for seed in range(40):
            p = sample_parameters(seed, n, 2, 0.9)
            q = box_to_params(params_to_box(p))
            for f, g in zip(p.factors, q.factors):
                assert np.abs(f.v - g.v).max() <= 1e-13
                assert abs(f.alpha - g.alpha) <= 1e-13

    def test_inverse_of_basis_vector(self):
        p = FilterParameters(n=2, rho=0.5, factors=(Factor(E1, 0.0),))
        assert np.abs(params_to_box(p).coords).max() == 0.0

    def test_inverse_of_second_basis_vector(self):
        p = FilterParameters(n=2, rho=0.5, factors=(Factor(E2, 0.0),))
        coords = params_to_box(p).coords[0]
        assert coords[0] == pytest.approx(np.pi / 2)
        assert coords[1] == pytest.approx(0.0)

    def test_boundary_vectors_invert(self):
        # a negated basis vector and a pole whose angle rounds up to a
        # full turn both land inside the half-open box ranges
        p = FilterParameters(n=2, rho=0.5, factors=(Factor(np.array([-1.0, 0.0]), 0.0),))
        box = params_to_box(p)
        assert np.abs(box.coords).max() == 0.0
        q = FilterParameters(
            n=2, rho=0.5, factors=(Factor(E1, 0.3 - 1e-19j),)
        )
        coords = params_to_box(q).coords[0]
        assert 0.0 <= coords[2] < 2 * np.pi
        back = box_to_params(params_to_box(q)).factors[0]
        assert abs(back.alpha - (0.3 - 1e-19j)) <= 1e-12

    def test_global_phase_is_removed(self):
        v = np.exp(0.8j) * np.array([0.6, 0.8j])
        p = FilterParameters(n=2, rho=0.5, factors=(Factor(v, 0.1),))
        q = box_to_params(params_to_box(p))
        vv_in = np.outer(v, v.conj())
        vv_out = np.outer(q.factors[0].v, q.factors[0].v.conj())
        assert np.abs(vv_in - vv_out).max() <= 1e-12

    @pytest.mark.parametrize("n,m,rho", RUNGS + [(3, 0, 0.5)])
    def test_equals_the_per_row_map_bitwise(self, n, m, rho):
        for seed in range(5):
            box = sample_box(seed, n, m, rho)
            factors = box_to_params(box).factors
            assert len(factors) == m
            for f, row in zip(factors, box.coords):
                g = _coords_to_factor(n, row)
                assert np.array_equal(f.v, g.v) and f.alpha == g.alpha

    @pytest.mark.parametrize(
        "n,m,rho,seed",
        [(4, 8, 0.9, 11026), (4, 8, 0.9, 11970), (4, 8, 0.9, 14253), (2, 3, 0.9, 1600)],
    )
    def test_round_trip_keeps_the_filter(self, n, m, rho, seed):
        # draws with a first component near +-1, where an arccos of it moved W by up to 6e-11
        p = sample_parameters(seed, n, m, rho)
        q = box_to_params(params_to_box(p))
        z = unit_circle_points(64)
        assert np.abs(wavelet_eval(q, z) - wavelet_eval(p, z)).max() <= 1e-13

    @pytest.mark.parametrize(
        "v", [(1.0, 1e-9), (-1.0, 1e-7), (-1.0, 1e-17), (1e-13j, 1.0), (0.6 + 1e-13j, 0.8)]
    )
    def test_small_parts_survive_the_round_trip(self, v):
        # delta_1 next to 0 or pi, where (-1, 1e-17) rounds to pi unless
        # negated, and first components with a tiny modulus or phase
        v = np.array(v, dtype=complex) / np.linalg.norm(v)
        box = params_to_box(FilterParameters(n=2, rho=0.5, factors=(Factor(v, 0.0),)))
        assert box.coords[0, 0] < np.pi
        w = box_to_params(box).factors[0].v
        assert np.abs(np.outer(w, w.conj()) - np.outer(v, v.conj())).max() <= 1e-15


class TestSampling:
    def test_fir_draw(self):
        p = sample_parameters(7, 2, 1, 0.0)
        assert p.factors[0].alpha == 0

    def test_determinism(self):
        a = sample_parameters(42, 2, 3, 0.9)
        b = sample_parameters(42, 2, 3, 0.9)
        for f, g in zip(a.factors, b.factors):
            assert np.array_equal(f.v, g.v)
            assert f.alpha == g.alpha

    def test_invariants_over_seed_sweep(self):
        for seed in range(100):
            p = sample_parameters(seed, 3, 3, 0.9)
            for f in p.factors:
                assert abs(np.linalg.norm(f.v) - 1.0) <= 1e-12
                assert abs(f.alpha) < 0.9

    def test_circle_points_layout(self):
        pts = unit_circle_points(8, seed=0)
        assert pts.size == 8
        assert np.abs(np.abs(pts) - 1.0).max() <= 1e-15
        # first half is the deterministic grid
        assert np.abs(pts[:4] - np.exp(2j * np.pi * np.arange(4) / 4)).max() <= 1e-15


class TestInvariants:
    def test_factor_norm(self):
        with pytest.raises(InvariantError):
            Factor(np.array([1.0, 1.0]), 0.0)

    def test_factor_alpha(self):
        with pytest.raises(InvariantError):
            Factor(E1, 1.0)

    def test_fir_forces_zero_alpha(self):
        with pytest.raises(InvariantError):
            FilterParameters(n=2, rho=0.0, factors=(Factor(E2, 0.1),))

    def test_alpha_strictly_below_rho(self):
        with pytest.raises(InvariantError):
            FilterParameters(n=2, rho=0.5, factors=(Factor(E2, 0.5),))

    def test_box_range(self):
        with pytest.raises(InvariantError):
            BoxPoint(n=2, rho=0.5, coords=np.array([[4.0, 0, 0, 0]]))

    def test_box_radius_range(self):
        with pytest.raises(InvariantError):
            BoxPoint(n=2, rho=0.5, coords=np.array([[0.0, 0, 0, 0.6]]))

    @pytest.mark.parametrize("n,rho", [(2, 0.5), (3, 0.0), (4, 0.9)])
    def test_first_bad_coordinate_is_named(self, n, rho):
        # several bad coordinates across rows and within one row: the
        # message names the first in row-major order, as the row-by-row
        # check does
        rng = np.random.default_rng(n)
        upper = np.full(2 * n, 2 * np.pi)
        upper[0], upper[-1] = np.pi, rho
        for _ in range(200):
            coords = rng.uniform(0.0, 0.999, (4, 2 * n)) * upper
            bad = rng.uniform(size=coords.shape) < 0.15
            shift = rng.choice([-1.0, 1.0], size=coords.shape) * (upper + 0.5)
            coords[bad] += shift[bad]
            expected = box_coordinate_error(n, rho, coords)
            if expected is None:
                BoxPoint(n=n, rho=rho, coords=coords)
                continue
            with pytest.raises(InvariantError) as caught:
                BoxPoint(n=n, rho=rho, coords=coords)
            assert str(caught.value) == expected

    def test_bad_coordinates_in_one_row_and_across_rows(self):
        # row 1 holds a bad angle, phase and radius, row 2 a bad delta_1;
        # mending one at a time names the next
        coords = np.zeros((3, 4))
        coords[1] = [0.5, 7.0, -1.0, 0.7]
        coords[2, 0] = 4.0
        for col, fix, message in [
            (1, 1.0, r"^angle .*7\.0"),
            (2, 1.0, r"^angle .*-1\.0"),
            (3, 0.0, r"^radius .*0\.7"),
            (None, None, r"^delta_1 = .*4\.0"),
        ]:
            with pytest.raises(InvariantError, match=message):
                BoxPoint(n=2, rho=0.5, coords=coords)
            if col is not None:
                coords[1, col] = fix

    def test_vector_dimension(self):
        with pytest.raises(InvariantError):
            FilterParameters(n=3, rho=0.5, factors=(Factor(E2, 0.0),))


class TestChecks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_elementary_symmetry(self, n):
        report = check_symmetry(lambda z: elementary_wavelet_eval(n, z), n, 64, 1e-9, 0)
        assert report.passed

    def test_identity_fails_symmetry(self):
        report = check_symmetry(lambda z: np.eye(2), 2, 16, 1e-9, 0)
        assert not report.passed

    def test_left_polynomial_family_stays_symmetric(self):
        rng = np.random.default_rng(11)
        l0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        l1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def fn(z):
            w = z[:, None, None] ** 3
            return (l0 + w * l1) @ elementary_wavelet_eval(3, z)

        assert check_symmetry(fn, 3, 32, 1e-9, 0).passed

    def test_commuting_right_factor_stays_symmetric(self):
        # right multiplication stays in the family only when the factor
        # commutes with the cyclic shift; polynomials in the shift do.
        p = shift_matrix(3)

        def fn(z):
            w = z[:, None, None] ** 3
            r = np.eye(3) + 0.5 * w * p + (0.1 + 0.2j) * p @ p
            return elementary_wavelet_eval(3, z) @ r

        assert check_symmetry(fn, 3, 32, 1e-9, 0).passed

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 3), (3, 2), (4, 1)])
    def test_sampled_filters_paraunitary(self, n, m):
        p = sample_parameters(13 * n + m, n, m, 0.9)
        report = check_paraunitary(lambda z: wavelet_eval(p, z), n, 64, 1e-9, 1)
        assert report.passed

    def test_scaled_filter_fails(self):
        report = check_paraunitary(lambda z: 2 * np.eye(2), 2, 16, 1e-9, 0)
        assert not report.passed
        # ||4I - I||_F on a 2x2 identity
        assert report.max_residual == pytest.approx(3.0 * np.sqrt(2.0))

    def test_right_unitarity_too(self):
        p = sample_parameters(5, 3, 2, 0.9)

        def residual(z):
            w = wavelet_eval(p, z)
            return np.linalg.norm(w @ adjoint(w) - np.eye(3))

        assert max(residual(z) for z in circle(32, seed=12)) <= 1e-9

    def test_report_fields(self):
        reports = circle_checks(lambda z: np.eye(2), 2, 17, 1e-9, 99)
        assert [r.name for r in reports] == ["symmetry", "paraunitary"]
        for report in reports:
            assert report.sample_count == 17
            assert report.seed == 99
            assert report.tolerance == 1e-9
            assert report.passed == (report.max_residual <= report.tolerance)

    def test_redraws_only_the_failing_points(self):
        p = sample_parameters(14, 3, 2, 0.9)
        points = unit_circle_points(64, seed=5)
        bad = points[[3, 40, 61]]
        evaluated = []

        def fn(z):
            # circle_checks passes [eps * zs, zs]; the sampled points are zs
            if np.isin(z, bad).any():
                raise PoleError("chosen point")
            evaluated.append(z[z.size // 2 :])
            return wavelet_eval(p, z)

        for report in circle_checks(fn, 3, 64, 1e-9, 5):
            assert report.passed and report.resampled == 3
        seen = np.concatenate(evaluated)
        redrawn = seen[~np.isin(seen, points)]
        assert np.isin(np.setdiff1d(points, bad), seen).all()
        assert not np.isin(bad, seen).any()
        assert redrawn.size == 3 and np.abs(np.abs(redrawn) - 1.0).max() <= 1e-15

    def test_singular_quotient_points_are_redrawn(self):
        points = unit_circle_points(32, seed=0)
        bad = points[[1, 20]]

        def fa(z):
            mask = np.where(np.isin(z, bad), 0.0, 1.0)[:, None, None]
            return mask * elementary_wavelet_eval(2, z)

        report = quotient_decimation_check(
            fa, lambda z: elementary_wavelet_eval(2, z), 2, 32, 1e-9, 0
        )
        assert report.passed and report.resampled == 2

    def test_clean_check_redraws_nothing(self):
        p = sample_parameters(15, 2, 2, 0.9)
        fn = lambda z: wavelet_eval(p, z)  # noqa: E731
        assert [r.resampled for r in circle_checks(fn, 2, 32, 1e-9, 0)] == [0, 0]

    def test_exhausted_retries_raise(self):
        def fn(z):
            raise PoleError("every point")

        with pytest.raises(SamplingError):
            circle_checks(fn, 2, 8, 1e-9, 0)

    def test_quotient_trivial(self):
        fn = lambda z: elementary_wavelet_eval(2, z)  # noqa: E731
        assert quotient_decimation_check(fn, fn, 2, 32, 1e-9, 0).passed

    def test_quotient_wa_over_elementary(self):
        p = wa_params(0.5)
        report = quotient_decimation_check(
            lambda z: elementary_wavelet_eval(2, z),
            lambda z: wavelet_eval(p, z),
            2,
            32,
            1e-9,
            0,
        )
        assert report.passed

    def test_quotient_wb_over_wa_is_beta_factor(self):
        alpha, beta = 0.5, 0.3 + 0.1j
        pa, pb = wa_params(alpha), wb_params(alpha, beta)
        report = quotient_decimation_check(
            lambda z: wavelet_eval(pa, z), lambda z: wavelet_eval(pb, z), 2, 32, 1e-9, 0
        )
        assert report.passed
        for z in circle(16, seed=13):
            quotient = wavelet_eval(pb, z) @ np.linalg.inv(wavelet_eval(pa, z))
            phi = (1 - np.conj(beta) * z ** 4) / (z ** 4 - beta)
            assert np.abs(quotient - np.diag([phi, 1])).max() <= 1e-12

    def test_group_closure(self):
        # products W1 * W2^{-1} * W3 stay in the family (inverse = adjoint
        # on the circle)
        w1 = sample_parameters(20, 2, 2, 0.9)
        w2 = sample_parameters(21, 2, 1, 0.9)
        w3 = sample_parameters(22, 2, 3, 0.9)

        def fn(z):
            inverse = wavelet_eval(w2, z).conj().swapaxes(-1, -2)
            return wavelet_eval(w1, z) @ inverse @ wavelet_eval(w3, z)

        assert check_symmetry(fn, 2, 48, 1e-9, 2).passed
        assert check_paraunitary(fn, 2, 48, 1e-9, 2).passed

    def test_adjoint_product_depends_on_zn_only(self):
        # W_b(z) W_a(z)^* sampled on the circle is invariant under the
        # band rotation z -> eps z.
        eps = np.exp(2j * np.pi / 2)
        for sa, sb in [(30, 31), (32, 33), (34, 35)]:
            pa = sample_parameters(sa, 2, 2, 0.9)
            pb = sample_parameters(sb, 2, 3, 0.9)
            for z in circle(24, seed=sa):
                g1 = wavelet_eval(pb, z) @ adjoint(wavelet_eval(pa, z))
                g2 = wavelet_eval(pb, eps * z) @ adjoint(wavelet_eval(pa, eps * z))
                assert np.abs(g1 - g2).max() <= 1e-9


class TestSharedCirclePass:
    @pytest.mark.parametrize("n, m, rho", [(2, 3, 0.0), (3, 2, 0.9), (4, 8, 0.9)])
    def test_equals_separate_checks(self, n, m, rho):
        # each report equals its residual computed alone, point by point
        p = sample_parameters(7 * n + m, n, m, rho)
        r = realize_wavelet(p)
        zs = unit_circle_points(64, 3)
        eps = np.exp(2j * np.pi / n)
        for fn in (lambda z: wavelet_eval(p, z), lambda z: eval_realization(r, z)):
            symmetry = [np.linalg.norm(fn(eps * z) - fn(z) @ shift_matrix(n)) for z in zs]
            unitarity = [np.linalg.norm(adjoint(fn(z)) @ fn(z) - np.eye(n)) for z in zs]
            shared = circle_checks(fn, n, 64, 1e-9, 3)
            for one, name, alone in zip(shared, ("symmetry", "paraunitary"), (symmetry, unitarity)):
                assert one.name == name and one.passed
                assert abs(one.max_residual - max(alone)) <= 1e-14
                assert one.resampled == 0
                assert (one.sample_count, one.seed, one.tolerance) == (64, 3, 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_residuals_keep_the_bits_of_their_definitions(self, n):
        # ordinary, huge (the Gram and the norm overflow) and tiny values,
        # signed zeros, and the layouts of wavelet_eval's array path and of
        # a constant function's broadcast stack, since the layout sets the
        # order in which the norm sums
        rng = np.random.default_rng(n)
        stacks = []
        for scale in (1.0, 1e160, 1e-170):
            v = scale * (rng.standard_normal((20, n, n)) + 1j * rng.standard_normal((20, n, n)))
            v.real[rng.random(v.shape) < 0.3] = -0.0
            v.imag[rng.random(v.shape) < 0.3] = -0.0
            planes = np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2)
            stacks += [v, planes, np.broadcast_to(v[0], v.shape)]
        with np.errstate(over="ignore", invalid="ignore"):
            for v in stacks:
                for got, want in (
                    (filters._symmetry_residual(v), reference_ops.symmetry_residual(v)),
                    (filters._unitarity_residual(v), reference_ops.unitarity_residual(v)),
                ):
                    assert got.tobytes() == want.tobytes()

    def test_pole_on_the_grid_is_redrawn_for_both(self):
        p = sample_parameters(14, 3, 2, 0.9)
        pole = unit_circle_points(64, seed=5)[7]

        def fn(z):
            if np.isclose(z, pole, rtol=0.0, atol=1e-12).any():
                raise PoleError("chosen point")
            return wavelet_eval(p, z)

        symmetry, unitarity = circle_checks(fn, 3, 64, 1e-9, 5)
        assert symmetry.passed and unitarity.passed
        assert symmetry.resampled == unitarity.resampled >= 1

    def test_argmax_z_names_a_planted_defect(self):
        p = sample_parameters(16, 3, 2, 0.9)
        points = unit_circle_points(64, seed=2)
        defect = points[11]

        def fn(z):
            values = wavelet_eval(p, z)
            return np.where(np.isin(z, defect)[:, None, None], 1.1 * values, values)

        symmetry, unitarity = circle_checks(fn, 3, 64, 1e-9, 2)
        assert not unitarity.passed
        assert unitarity.argmax_z == defect
        # the symmetry residual sees the defect at z and at z / eps
        eps = np.exp(2j * np.pi / 3)
        assert min(abs(symmetry.argmax_z - z) for z in (defect, defect / eps)) <= 1e-15

    @pytest.mark.parametrize("step", [-2, -1, 1, 2])
    def test_tied_residuals_name_the_first_point(self, step):
        # a pair tied up to rounding names its first point whichever way
        # the last bit falls; a real gap still names the larger
        points = unit_circle_points(16, seed=1)
        base = np.linspace(0.1, 0.2, 16)
        tied = 0.3
        for first, second in ((3, 9), (9, 3)):
            for moved in (first, second):
                values = base.copy()
                values[[first, second]] = tied
                values[moved] = tied + step * np.spacing(tied)
                worst, at, _ = _max_circle_residual(lambda zs: values[np.isin(points, zs)], points, 0)
                assert worst[0] == values.max()
                assert at[0] == points[min(first, second)]
        values = base.copy()
        values[[3, 9]] = tied, tied * (1.0 + 1e-9)
        _, at, _ = _max_circle_residual(lambda zs: values[np.isin(points, zs)], points, 0)
        assert at[0] == points[9]

    def test_pole_batches_are_halved_first_half_first(self):
        # every batch holding points[5] raises: each call is one batch, a
        # failing batch is split and its first half tried next, and the
        # isolated point is redrawn once from the rng of seed ^ 0x5EED
        points = unit_circle_points(8, seed=1)
        batches = []

        def residual(zs):
            batches.append(zs)
            if (zs == points[5]).any():
                raise PoleError("planted")
            return np.abs(zs)

        _, _, resampled = _max_circle_residual(residual, points, 3)
        spans = [(0, 8), (0, 4), (4, 8), (4, 6), (4, 5), (5, 6), (6, 8)]
        assert len(batches) == len(spans) + 1
        for got, (lo, hi) in zip(batches, spans):
            assert np.array_equal(got, points[lo:hi])
        redraw = np.random.default_rng(3 ^ 0x5EED).uniform(0.0, 2 * np.pi, size=1)
        assert np.array_equal(batches[-1], np.exp(1j * redraw))
        assert resampled == 1

    def test_infinite_maximum_names_an_infinite_point(self):
        points = unit_circle_points(16, seed=1)
        values = np.stack([np.linspace(0.1, 0.2, 16)] * 2, axis=1)
        values[5, 0] = values[11, 1] = np.inf
        worst, at, _ = _max_circle_residual(lambda zs: values[np.isin(points, zs)], points, 0)
        assert list(worst) == [np.inf, np.inf]
        assert list(at) == [points[5], points[11]]

    def test_argmax_z_defaults_to_none(self):
        assert CheckReport("degree", 0.0, 0.0, sample_count=8, seed=0).argmax_z is None


class TestVerdictRule:
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    @pytest.mark.parametrize("kind", ["zero", "negative-zero", "tol", "above-tol", "inf", "nan"])
    def test_passed_is_residual_at_most_tolerance(self, kind, tol):
        residual = {
            "zero": 0.0, "negative-zero": -0.0, "tol": tol,
            "above-tol": np.nextafter(tol, np.inf), "inf": np.inf, "nan": np.nan,
        }[kind]
        report = CheckReport("demo", residual, tol, sample_count=8, seed=0)
        assert type(report.passed) is bool
        assert report.passed == (residual <= tol)
        assert report.passed == (kind in ("zero", "negative-zero", "tol"))

    def test_replace_recomputes_the_verdict(self):
        report = CheckReport("demo", 0.0, 1e-9, sample_count=8, seed=0)
        failed = dataclasses.replace(report, max_residual=1.0)
        assert report.passed and not failed.passed
        assert dataclasses.replace(failed, tolerance=1.0).passed
        assert not dataclasses.replace(report, max_residual=np.nan).passed

    def test_verdict_is_not_an_argument(self):
        # an old positional call with a flag in fourth place
        with pytest.raises(TypeError):
            CheckReport("degree", 1.0, 0.0, True, 8, 0)
        with pytest.raises(TypeError):
            CheckReport("degree", 1.0, 0.0, passed=True, sample_count=8, seed=0)


class TestSubbandFilters:
    def test_elementary_two_band(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        assert np.abs(fs.responses[0] - np.array([R2])).max() <= 1e-14
        assert np.abs(fs.responses[1] - np.array([0, R2])).max() <= 1e-14

    def test_index_one_delay(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=(Factor(E2, 0.0),)))
        assert np.abs(fs.responses[0] - np.array([R2])).max() <= 1e-14
        assert np.abs(fs.responses[1] - np.array([0, 0, 0, R2])).max() <= 1e-14

    def test_rejects_iir(self):
        with pytest.raises(FirRequiredError):
            subband_filters(wa_params(0.5))

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (4, 2)])
    def test_unit_total_energy(self, n, m):
        p = sample_parameters(40 + n + m, n, m, 0.0)
        fs = subband_filters(p)
        total = sum(np.sum(np.abs(h) ** 2) for h in fs.responses)
        # independent oracle: average squared norm of the first column of
        # the filter over a dense circle grid
        grid = np.exp(2j * np.pi * np.arange(512) / 512)
        mean = np.mean(
            [np.sum(np.abs(wavelet_eval(p, z)[:, 0]) ** 2) for z in grid]
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: BoxPoint(n=1, rho=0.0, coords=np.zeros((0, 2))), InvariantError,
         "band count must be >= 2, got 1"),
        (lambda: BoxPoint(n=2, rho=1.5, coords=np.zeros((0, 4))), InvariantError,
         "rho must lie in [0, 1], got 1.5"),
        (lambda: BoxPoint(n=2, rho=-0.5, coords=np.zeros((0, 4))), InvariantError,
         "rho must lie in [0, 1], got -0.5"),
        (lambda: BoxPoint(n=2, rho=0.5, coords=np.zeros((1, 3))), InvariantError,
         "coords must have shape (m, 4), got (1, 3)"),
        (lambda: BoxPoint(n=2, rho=0.5, coords=np.zeros(4)), InvariantError,
         "coords must have shape (m, 4), got (4,)"),
        (lambda: unit_circle_points(0), InvariantError, "sample count must be >= 1, got 0"),
        (lambda: circle_checks(lambda zs: np.zeros((zs.size, 3, 3)), 2, 4), DimensionError,
         "expected 8 values of shape (2, 2), got (8, 3, 3)"),
        (lambda: circle_checks(lambda zs: np.full((zs.size, 2, 2), np.nan), 2, 4),
         DimensionError, "matrix entries must be finite"),
    ],
    ids=["box-n", "box-rho-high", "box-rho-low", "box-columns", "box-ndim",
         "circle-count", "eval-shape", "eval-nan"],
)
def test_library_validation(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
