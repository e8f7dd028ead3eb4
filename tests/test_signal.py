"""Tests for decimation, convolution, subband round trips and simulation."""

import numpy as np
import pytest

from reference_ops import (
    check_paraunitary,
    circular_convolve,
    decimate,
    expand,
    frequency_pr_check,
    simulate,
)

from wfk import (
    DimensionError,
    Factor,
    FilterParameters,
    Realization,
    SubbandSet,
    analyze,
    impulse_response,
    realize_wavelet,
    sample_parameters,
    subband_filters,
    synthesis_delay,
    synthesize,
    wavelet_eval,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_signal(length, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


class TestLattice:
    def test_decimate_definition(self):
        assert np.array_equal(decimate([0, 1, 2, 3, 4, 5], 2).real, [0, 2, 4])

    def test_decimate_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(decimate(x, 1), x)

    def test_decimate_ceiling_length(self):
        assert decimate(np.arange(7), 3).size == 3

    def test_expand_definition(self):
        assert np.array_equal(expand([1, 2], 3).real, [1, 0, 0, 2, 0, 0])

    def test_expand_identity(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(expand(x, 1), x)

    def test_expand_then_decimate_is_identity(self):
        x = random_signal(10, 0)
        assert np.array_equal(decimate(expand(x, 3), 3), x)

    def test_decimate_then_expand_zeroes_off_lattice(self):
        x = random_signal(12, 1)
        y = expand(decimate(x, 3), 3)
        assert np.array_equal(y[::3], x[::3])
        mask = np.ones(12, dtype=bool)
        mask[::3] = False
        assert np.abs(y[mask]).max() == 0.0


class TestCircularConvolve:
    def test_identity_kernel(self):
        x = random_signal(8, 2)
        assert np.allclose(circular_convolve(x, [1.0]), x)

    def test_shift_kernel(self):
        y = circular_convolve([1, 2, 3, 4], [0, 1])
        assert np.array_equal(y.real, [4, 1, 2, 3])

    def test_linearity(self):
        x = random_signal(16, 3)
        y = random_signal(16, 4)
        h = random_signal(5, 5)
        lhs = circular_convolve(x + y, h)
        rhs = circular_convolve(x, h) + circular_convolve(y, h)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_filter_longer_than_signal(self):
        with pytest.raises(DimensionError):
            circular_convolve([1.0, 2.0], [1.0, 2.0, 3.0])


class TestAnalyze:
    def test_constant_input_two_band(self):
        # filter taps are 1/sqrt(2); with the sqrt(2) analysis gain each
        # band of the all-ones signal is all ones
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        bands = analyze([1, 1, 1, 1], fs)
        assert np.abs(bands.bands[0] - np.ones(2)).max() <= 1e-14
        assert np.abs(bands.bands[1] - np.ones(2)).max() <= 1e-14

    def test_zero_signal(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        bands = analyze(np.zeros(8), fs)
        for b in bands.bands:
            assert np.abs(b).max() == 0.0

    def test_length_not_divisible(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        with pytest.raises(DimensionError):
            analyze(np.ones(7), fs)

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 2), (3, 1), (4, 2)])
    def test_energy_preserved(self, n, m):
        p = sample_parameters(60 + 10 * n + m, n, m, 0.0)
        fs = subband_filters(p)
        x = random_signal(24 * n, 6)
        bands = analyze(x, fs)
        band_energy = sum(float(np.vdot(b, b).real) for b in bands.bands)
        assert band_energy == pytest.approx(float(np.vdot(x, x).real), rel=1e-12)


class TestSynthesize:
    def test_roundtrip_elementary(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        x = random_signal(64, 7)
        rec = synthesize(analyze(x, fs), fs)
        assert np.linalg.norm(rec - np.roll(x, synthesis_delay(fs))) <= 1e-12

    def test_roundtrip_index_three(self):
        factors = (Factor(E2, 0.0), Factor(E1, 0.0), Factor(E1, 0.0))
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=factors))
        x = random_signal(64, 8)
        rec = synthesize(analyze(x, fs), fs)
        err = np.linalg.norm(rec - np.roll(x, synthesis_delay(fs)))
        assert err <= 1e-9 * np.linalg.norm(x)

    def test_zero_bands(self):
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        bands = SubbandSet(n=2, bands=(np.zeros(4), np.zeros(4)))
        assert np.abs(synthesize(bands, fs)).max() == 0.0

    def test_band_length_mismatch(self):
        with pytest.raises(Exception):
            SubbandSet(n=2, bands=(np.zeros(4), np.zeros(5)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip_sampled_fir(self, n):
        for seed in range(4):
            p = sample_parameters(200 + 10 * n + seed, n, seed, 0.0)
            fs = subband_filters(p)
            x = random_signal(48 * n, 300 + seed)
            rec = synthesize(analyze(x, fs), fs)
            err = np.linalg.norm(rec - np.roll(x, synthesis_delay(fs)))
            assert err <= 1e-9 * np.linalg.norm(x)


def _unit(n, k):
    e = np.zeros(n)
    e[k] = 1.0
    return e


# FIR draws up to n = 8 plus factors along basis vectors, whose taps have
# exact interior zeros and so test the trimming.
LATTICE_CASES = [
    (n, m, seed) for n in (2, 3, 4, 5, 8) for m in (0, 1, 3, 6) for seed in (0, 1)
]
UNIT_FACTORS = [
    (2, (E2,)),
    (2, (E1,)),
    (2, (E2, E1, E1)),
    (3, (_unit(3, 2), _unit(3, 0), _unit(3, 1))),
    (4, (_unit(4, 1), _unit(4, 1), _unit(4, 3))),
]


def lattice_params():
    for n, m, seed in LATTICE_CASES:
        yield sample_parameters(700 + 10 * n + m + 100 * seed, n, m, 0.0)
    for n, vs in UNIT_FACTORS:
        yield FilterParameters(n=n, rho=0.0, factors=tuple(Factor(v, 0.0) for v in vs))


def realized_taps(p):
    """First-column taps from the state-space impulse response, trimmed."""
    r = realize_wavelet(p)
    columns = np.array([h[:, 0] for h in impulse_response(r, r.state_dim + 1)]).T
    out = []
    for coeffs in columns:
        last = np.nonzero(np.abs(coeffs) > 0.0)[0]
        out.append(coeffs[: last[-1] + 1 if last.size else 1])
    return out


class TestLatticeReference:
    """The lattice against the realization and the convolution reference."""

    def test_taps_match_realization(self):
        for p in lattice_params():
            fs = subband_filters(p)
            ref = realized_taps(p)
            assert [h.size for h in fs.responses] == [h.size for h in ref]
            for h, g in zip(fs.responses, ref):
                assert np.abs(h - g).max() <= 1e-14

    def test_analyze_matches_convolution(self):
        for k, p in enumerate(lattice_params()):
            fs = subband_filters(p)
            x = random_signal(p.n * (p.m + 3), 400 + k)
            got = np.array(analyze(x, fs).bands)
            ref = np.array(
                [np.sqrt(p.n) * decimate(circular_convolve(x, h), p.n) for h in fs.responses]
            )
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_synthesize_matches_convolution(self):
        for k, p in enumerate(lattice_params()):
            fs = subband_filters(p)
            bands = SubbandSet(
                n=p.n, bands=tuple(random_signal(p.m + 3, 500 + 10 * k + i) for i in range(p.n))
            )
            delay = synthesis_delay(fs)
            ref = np.zeros(p.n * bands.band_length, dtype=complex)
            for band, h in zip(bands.bands, fs.responses):
                g = np.zeros(delay + 1, dtype=complex)
                g[delay - (h.size - 1) :] = np.conj(h[::-1])
                ref += np.sqrt(p.n) * circular_convolve(expand(band, p.n), g)
            got = synthesize(bands, fs)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestFrequencyPr:
    def test_sampled_iir_filters_pass(self):
        for seed in (1, 2, 3):
            p = sample_parameters(seed, 2 + seed % 3, 1 + seed % 3, 0.9)
            report = frequency_pr_check(p, 128, 1e-9, seed)
            assert report.passed
            assert report.name == "frequency_pr"

    def test_elementary_passes(self):
        p = FilterParameters(n=3, rho=0.0, factors=())
        assert frequency_pr_check(p, 64, 1e-9, 0).passed

    def test_scaled_filter_fails(self):
        p = sample_parameters(4, 2, 1, 0.9)
        report = check_paraunitary(
            lambda z: 1.1 * wavelet_eval(p, z), 2, 64, 1e-9, 0
        )
        assert not report.passed


class TestSimulate:
    def test_impulse_matches_impulse_response(self):
        p = sample_parameters(9, 2, 2, 0.5)
        r = realize_wavelet(p)
        steps = 12
        u = np.zeros((steps, 2), dtype=complex)
        u[0, 1] = 1.0
        outputs, _ = simulate(r, u)
        taps = impulse_response(r, steps)
        for k in range(steps):
            assert np.abs(outputs[k] - taps[k][:, 1]).max() <= 1e-12

    def test_static_passthrough(self):
        r = Realization(
            a=np.zeros((1, 1)),
            b=np.zeros((1, 2)),
            c=np.zeros((2, 1)),
            d=np.eye(2),
        )
        u = random_signal(10, 10).reshape(5, 2)
        outputs, final = simulate(r, u)
        assert np.array_equal(outputs, u)
        assert np.abs(final).max() == 0.0

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_free_response_decay_bound(self, rho):
        p = sample_parameters(11, 2, 2, rho)
        r = realize_wavelet(p)
        # the declared radius bound dominates every eigenvalue modulus
        rate = rho ** (1.0 / p.n)
        assert np.abs(np.linalg.eigvals(r.a)).max() < rate
        x0 = random_signal(r.state_dim, 12)
        u = np.zeros((10 * p.n + 1, 2))
        norms = []
        x = x0.copy()
        for _ in range(u.shape[0]):
            norms.append(np.linalg.norm(x))
            x = r.a @ x
        # calibrate the constant on the first 3n steps, check at 10n
        beta = max(
            norms[k] / (np.linalg.norm(x0) * rate ** k) for k in range(1, 3 * p.n + 1)
        )
        bound = beta * np.linalg.norm(x0) * rate ** (10 * p.n)
        assert norms[10 * p.n] <= bound * (1 + 1e-9)

    def test_input_shape_mismatch(self):
        r = realize_wavelet(sample_parameters(13, 2, 1, 0.5))
        with pytest.raises(DimensionError):
            simulate(r, np.zeros((4, 3)))

    def test_state_shape_mismatch(self):
        r = realize_wavelet(sample_parameters(14, 2, 1, 0.5))
        with pytest.raises(DimensionError):
            simulate(r, np.zeros((4, 2)), x0=np.zeros(5))
