"""Tests for decimation, convolution, subband round trips and simulation."""

import re
import tracemalloc

import numpy as np
import pytest

import wfk.filters
import wfk.signal
from one_thread import one_thread_json
from reference_ops import (
    _interleave as reference_interleave,
    _lattice as reference_lattice,
    _responses as reference_responses,
    check_paraunitary,
    circular_convolve,
    decimate,
    expand,
    frequency_pr_check,
    simulate,
)
from work_budget import work_entries

from wfk import (
    DimensionError,
    Factor,
    FilterParameters,
    FirRequiredError,
    InvariantError,
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
from wfk.signal import _interleave, _polyphase

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

    def test_overflow_raises(self):
        # a finite signal whose bands leave the float range: the error names
        # the overflow, and no RuntimeWarning (an error under pytest) escapes
        fs = subband_filters(sample_parameters(1, 2, 3, 0.0))
        with pytest.raises(InvariantError, match="analysis overflowed"):
            analyze(np.tile([1.7e308, -1.7e308], 8), fs)

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

    def test_overflow_raises(self):
        fs = subband_filters(sample_parameters(1, 2, 3, 0.0))
        bands = SubbandSet(n=2, bands=(np.full(8, 1.7e308), np.full(8, -1.7e308)))
        with pytest.raises(InvariantError, match="synthesis overflowed"):
            synthesize(bands, fs)

    def test_sum_overflow_does_not_raise(self):
        # every sample is finite, but their sum overflows: the full pass decides
        fs = subband_filters(FilterParameters(n=2, rho=0.0, factors=()))
        bands = SubbandSet(n=2, bands=(np.full(8, 1e308), np.full(8, 1e308)))
        assert np.array_equal(synthesize(bands, fs), np.full(16, 1e308 + 0j))

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_bands_do_not_change_with_the_callers_arrays(self, read_only_view):
        # a read-only view of a writable array is no more frozen than the array
        a, b = np.zeros(4, dtype=complex), np.ones(4, dtype=complex)
        band = a[:] if read_only_view else a
        band.flags.writeable = not read_only_view
        bands = SubbandSet(n=2, bands=(band, b))
        a[0] = 99
        assert bands.bands[0][0] == 0 and not bands.bands[0].flags.writeable

    @pytest.mark.parametrize("kind", ["real", "list", "complex"])
    def test_bands_are_copied_once(self, kind):
        # a band the caller could write is copied into complex once, also
        # when it had to be converted; a second copy would add 1 MiB a band
        rng = np.random.default_rng(5)
        raw = [rng.standard_normal(1 << 16) for _ in range(2)]
        given = {"real": raw, "list": [a.tolist() for a in raw], "complex": [a + 0j for a in raw]}[kind]
        tracemalloc.start()
        try:
            bands = SubbandSet(n=2, bands=tuple(given))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(b.nbytes for b in bands.bands) + (128 << 10)
        assert all(np.array_equal(b, a) for b, a in zip(bands.bands, raw))

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
        # also past LATTICE_CASES' indices, at band counts that are not
        # powers of two, and at the benchmark's (8, 16)
        deep = [sample_parameters(n + m, n, m, 0.0) for n, m in [*DEEP_RUNGS, (8, 16)]]
        for p in [*lattice_params(), *deep]:
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


# the benchmark's signal length and FIR rungs
LONG = 1 << 17
LONG_RUNGS = [(2, 3), (8, 16), (16, 32)]


def long_round_trip(n, m):
    return sample_parameters(n + m, n, m, 0.0), random_signal(LONG, n)


# Indices past LATTICE_CASES' 6, at band counts that are not powers of two,
# for the comparison of the responses with the one-factor lattice's and the
# realization's.
DEEP_RUNGS = [(3, 33), (5, 17)]


# Largest deviation of the blocked lattice's taps, bands and output from the
# one-factor lattice's, relative to the largest input sample (the impulse's
# 1/sqrt(n) for the taps); the largest seen is about 3e-15.
BLOCK_BOUND = 1e-13


def _use_reference_kernels(mp):
    """Route the package's responses (in their first layout) and analysis
    through the one-factor reference lattice; at n = 2 analysis multiplies
    by those taps (:class:`TestTwoBand` checks it against the lattice)."""
    mp.setattr(wfk.filters.FilterParameters, "responses", property(reference_responses))
    mp.setattr(wfk.signal, "_block_lattice", lambda y, vectors: reference_lattice(y, vectors, 1))


def reference_synthesize(bands, fs):
    """The adjoint lattice as the reference runs it, the adjoint factors in
    reverse order with the roll of -1, then interleave-then-roll."""
    y = np.array(bands.bands)
    reference_lattice(y, fs._factor_stack[0][::-1], -1)
    return np.roll(reference_interleave(y), synthesis_delay(fs))


def _run_all(p, x, synth=synthesize):
    """Responses, their delay, and the bands and output of FIR parameters ``p``."""
    fs = subband_filters(p)
    bands = analyze(x, fs)
    delays = fs.max_length, synthesis_delay(fs)
    return fs.responses, *delays, np.array(bands.bands), synth(bands, fs)


class TestInPlaceKernels:
    """The interleave with its delay, bit for bit, and the blocked lattice
    against the kernels that allocate per step."""

    @pytest.mark.parametrize("band_length", [0, 1, 2, 10])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16])
    def test_interleave_equals_roll_of_reference(self, n, band_length):
        # every delay in [0, 3L) (at L = 0 they still run to 3n), and the
        # benchmark's n*(m + 1) - 1, phase n - 1, at m = 3, 16 and 32; on
        # the rows and on the negative-stride view that synthesis passes
        x = random_signal(n * band_length, n + band_length)
        y = _polyphase(x, n)
        reversed_view = y[:, ::-1].copy()[:, ::-1]
        delays = [*range(3 * n * max(band_length, 1)), *(n * (m + 1) - 1 for m in (3, 16, 32))]
        for delay in delays:
            want = np.roll(reference_interleave(y), delay).tobytes()
            assert _interleave(y, delay).tobytes() == want
            assert _interleave(reversed_view, delay).tobytes() == want

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_polyphase_is_its_definition(self, n):
        # y_i[j] = x[(n*j - i) mod L] at lengths 0, n and 7n, and at about
        # 2**17 samples, where the last panel is a partial one; the same at
        # panels of 8 columns (the least), of 24 and of the default budget
        for budget in (1, 24 * n, None):
            with work_entries(budget):
                for length in (0, n, 7 * n, n * (LONG // n + 1)):
                    x = random_signal(length, n + length)
                    j = np.arange(length // n)
                    want = x[(n * j - np.arange(n)[:, None]) % max(length, 1)]
                    got = _polyphase(x, n)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_outputs_match_reference(self, monkeypatch):
        # the tap lengths and the delay exactly; the taps, the bands and
        # the output within BLOCK_BOUND, since the blocked lattice sums in
        # another order
        cases = [(p, random_signal(p.n * (p.m + 3), k)) for k, p in enumerate(lattice_params())]
        cases += [long_round_trip(n, m) for n, m in LONG_RUNGS]
        cases += [
            (sample_parameters(n + m, n, m, 0.0), random_signal(n * (m + 3), m)) for n, m in DEEP_RUNGS
        ]
        got = [_run_all(p, x) for p, x in cases]
        with monkeypatch.context() as mp:
            _use_reference_kernels(mp)
            want = [_run_all(p, x, reference_synthesize) for p, x in cases]
        for (p, x), mine, ref in zip(cases, got, want):
            assert [h.size for h in mine[0]] == [h.size for h in ref[0]]
            assert mine[1:3] == ref[1:3]
            for h, g in zip(mine[0], ref[0]):
                assert np.abs(h - g).max() <= BLOCK_BOUND / np.sqrt(p.n)
            for a, b in zip(mine[3:], ref[3:]):
                assert np.abs(a - b).max() <= BLOCK_BOUND * np.abs(x).max()

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 3), (3, 2), (8, 4)])
    def test_empty_signal_round_trip(self, n, m):
        fs = subband_filters(sample_parameters(n + m, n, m, 0.0))
        bands = analyze(np.array([]), fs)
        assert bands.band_length == 0
        rebuilt = synthesize(bands, fs)
        assert rebuilt.shape == (0,) and rebuilt.dtype == complex

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 5)])
    def test_one_sample_per_band_with_delay_beyond_length(self, n, m):
        fs = subband_filters(sample_parameters(10 * n + m, n, m, 0.0))
        assert synthesis_delay(fs) > n
        x = random_signal(n, m)
        rec = synthesize(analyze(x, fs), fs)
        assert np.linalg.norm(rec - np.roll(x, synthesis_delay(fs))) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n,m", LONG_RUNGS)
    def test_round_trip_holds_three_signal_lengths(self, n, m):
        # analysis adds its two work rows of L/n samples to the bands;
        # synthesis holds its working rows and then the output, never more
        p, x = long_round_trip(n, m)
        fs = subband_filters(p)
        bands = analyze(x, fs)
        synthesis_delay(fs)  # builds the cached responses before tracing

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        slack = 64 << 10
        assert peak(lambda: analyze(x, fs)) <= (1 + 2 / n) * x.nbytes + slack
        assert peak(lambda: synthesize(bands, fs)) <= 2 * x.nbytes + slack


def unit_rows(m, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def block_lattice(y, vectors, shift):
    """The lattice of :func:`reference_lattice` with the roll ``shift`` run
    through ``_block_lattice``, whose roll is 1.  The roll -1 is the roll 1
    conjugated by the time reversal, so it runs the kernel on a copy of the
    rows reversed in time, as synthesis does."""
    z = y[:, ::shift].copy()
    wfk.filters._block_lattice(z, vectors)
    y[:] = z[:, ::shift]


K = wfk.filters._BLOCK
PANEL_BANDS = (2, 3, 16)
PANEL_SHIFTS = (1, -1)


def panel_width_outputs(n, shift):
    """``_block_lattice`` at the budgets that cap the panels at 8 and 128
    columns, at the least budget that makes the row one panel, and at the
    default, which cuts the long rows into panels of two rows' worth, for
    three block and remainder cases: one list of outputs per case.  The
    short row is one panel at every budget but the first."""
    cases = []
    for m, cols in ((K + 1, 3000), (2 * K + 1, 3001), (3, 17)):
        k = min(K, m)
        per_column = k + max(k, n)  # entries of the two work arrays
        vectors = unit_rows(m, n, m)
        y = random_signal(n * cols, n + m).reshape(n, cols)
        outs = []
        for budget in (8 * 8, 8 * 128, cols * per_column, None):
            z = y.copy()
            with work_entries(budget):
                block_lattice(z, vectors, shift)
            outs.append(z)
        cases.append(outs)
    return cases


def distinct_panel_width_outputs():
    """Distinct outputs per case of :func:`panel_width_outputs`, keyed by
    ``"n,shift"``."""
    return {
        f"{n},{shift}": [len({z.tobytes() for z in outs}) for outs in panel_width_outputs(n, shift)]
        for n in PANEL_BANDS
        for shift in PANEL_SHIFTS
    }


class TestBlockLattice:
    """The blocked lattice of the taps and the signal path against the
    one-factor lattice."""

    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_matches_one_factor_lattice(self, n, shift):
        # block edges (m around K), the wrap and one-column bands (cols
        # around K), one panel each, and several panels with a remainder
        # folded into the last (43) or in a panel of its own (1000), under
        # a budget of two rows, which no row fits whole and which caps the
        # panels at a quarter row where two rows' worth is wider
        for m in (0, 1, K - 1, K, K + 1, 2 * K + 1):
            vectors = unit_rows(m, n, 10 * n + m)
            for cols in (1, 2, K - 1, K, K + 1, 43, 1000):
                y = random_signal(n * cols, m + cols).reshape(n, cols)
                want = y.copy()
                reference_lattice(want, vectors, shift)
                with work_entries(2 * cols if cols > K + 1 else None):
                    block_lattice(y, vectors, shift)
                assert np.abs(y - want).max() <= BLOCK_BOUND * np.abs(want).max()

    @pytest.fixture(scope="class")
    def one_thread_distinct(self):
        return one_thread_json("test_signal", "distinct_panel_width_outputs", timeout=60)

    @pytest.mark.parametrize("shift", PANEL_SHIFTS)
    @pytest.mark.parametrize("n", PANEL_BANDS)
    def test_bits_independent_of_panel_width(self, n, shift, one_thread_distinct):
        # one BLAS thread: the same bytes at every width; the threads of
        # this process: the same up to rounding
        assert one_thread_distinct[f"{n},{shift}"] == [1, 1, 1]
        for outs in panel_width_outputs(n, shift):
            for z in outs[1:]:
                assert np.abs(z - outs[0]).max() <= BLOCK_BOUND * np.abs(outs[0]).max()

    def test_taps_run_one_panel_a_block(self, monkeypatch):
        # the tap rows at (16, 32) fit the budget whole: each block of
        # factors makes the wrap pass and one panel's
        calls = []
        differences = wfk.filters._block_differences
        monkeypatch.setattr(
            wfk.filters, "_block_differences", lambda *a: calls.append(1) or differences(*a)
        )
        subband_filters(sample_parameters(3, 16, 32, 0.0)).responses
        assert len(calls) == 2 * -(-32 // K)

    def test_reversed_stack_is_contiguous(self, monkeypatch):
        # synthesis's reversed factors and time-reversed rows reach the
        # products as contiguous arrays; a negative-stride view makes them
        # far slower
        seen = []
        monkeypatch.setattr(wfk.signal, "_block_lattice", lambda *args: seen.append(args))
        fs = subband_filters(sample_parameters(1, 4, 5, 0.0))
        bands = analyze(random_signal(40, 1), fs)
        synthesize(bands, fs)
        assert [(y.flags.c_contiguous, v.flags.c_contiguous) for y, v in seen] == [(True, True)] * 2
        assert np.array_equal(seen[1][0], np.array(bands.bands)[:, ::-1])
        assert np.array_equal(seen[1][1], fs._factor_stack[0][::-1])

    @pytest.mark.parametrize("n,m", LONG_RUNGS)
    def test_long_round_trip_error(self, n, m):
        p, x = long_round_trip(n, m)
        fs = subband_filters(p)
        rec = synthesize(analyze(x, fs), fs)
        err = np.linalg.norm(rec - np.roll(x, synthesis_delay(fs)))
        assert err <= 1e-14 * np.linalg.norm(x)


def two_band_reference(x, fs):
    """The bands and output of two-band FIR parameters ``fs`` by direct
    circular filtering, ``np.roll(x, s)[2j] = x[(2j - s) mod L]``, and by
    the one-factor lattice on the polyphase rows ``x[(2j - i) mod L]``."""
    delay = synthesis_delay(fs)
    taps = [np.sqrt(2) * h for h in fs.responses]
    bands = np.array([sum(a * np.roll(x, s)[::2] for s, a in enumerate(t)) for t in taps])
    # x[c] = sum_{k, s} conj(A[k, s]) expand(b_k)[(c - delay + s) mod L]
    output = sum(
        np.conj(a) * np.roll(expand(b, 2), delay - s) for b, t in zip(bands, taps) for s, a in enumerate(t)
    )
    y = x[(2 * np.arange(x.size // 2) - np.arange(2)[:, None]) % x.size]
    reference_lattice(y, fs._factor_stack[0], 1)
    lattice_output = reference_synthesize(SubbandSet(n=2, bands=tuple(y)), fs)
    return (bands, output), (y, lattice_output)


TWO_BAND_INDICES = (0, 1, 2, 3, 8, 16, 17, 33)
# Short rows that every window wraps, more than once where the taps are
# longer than the signal; 40005 columns end in a partial panel at every
# index, and 2**16 + 1 in a panel that takes a one-column remainder.
TWO_BAND_LENGTHS = (2, 4, 6, 14, 80010, LONG + 2)


def two_band_width_outputs():
    """The bytes of the two-band bands and output at the budgets that cap
    the panels at 8 and 128 columns, at the least budget that makes the
    row one panel, and at the default, for rows that end in a partial panel
    or take a one-column remainder: one list of outputs per case."""
    cases = []
    for m, half in ((3, 3003), (17, 3001), (33, 2 * 4096 + 1)):
        fs = subband_filters(sample_parameters(m, 2, m, 0.0))
        span = -(-fs.max_length // 2) * 2
        x = random_signal(2 * half, m)
        outs = []
        for budget in (8 * span, 128 * span, half * span, None):
            with work_entries(budget):
                bands = analyze(x, fs)
                outs.append(np.concatenate([*bands.bands, synthesize(bands, fs)]))
        cases.append(outs)
    return cases


def distinct_two_band_outputs():
    """Distinct outputs per case of :func:`two_band_width_outputs`."""
    return [len({z.tobytes() for z in outs}) for outs in two_band_width_outputs()]


class TestTwoBand:
    """The tap-matrix path of n = 2 against direct filtering and the
    one-factor lattice."""

    @pytest.mark.parametrize("m", TWO_BAND_INDICES)
    def test_matches_direct_filtering_and_one_factor_lattice(self, m):
        fs = subband_filters(sample_parameters(m, 2, m, 0.0))
        for length in TWO_BAND_LENGTHS:
            x = random_signal(length, m + length)
            bands = analyze(x, fs)
            got = np.array(bands.bands), synthesize(bands, fs)
            for want in two_band_reference(x, fs):
                for a, b in zip(got, want):
                    assert np.abs(a - b).max() <= BLOCK_BOUND * np.abs(x).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflow_messages(self, n):
        # both paths name an overflow in the same words
        fs = subband_filters(sample_parameters(1, n, 3, 0.0))
        big = np.tile([1.7e308, -1.7e308], 4 * n)
        with pytest.raises(InvariantError, match="^analysis overflowed: a band left the float range$"):
            analyze(big, fs)
        bands = SubbandSet(n=n, bands=tuple(np.full(8, (-1) ** k * 1.7e308) for k in range(n)))
        with pytest.raises(InvariantError, match="^synthesis overflowed: a sample left the float range$"):
            synthesize(bands, fs)

    @pytest.mark.parametrize("n", [2, 3])
    def test_only_n_from_three_runs_the_lattice(self, n, monkeypatch):
        calls = []
        for name in ("_polyphase", "_block_lattice", "_interleave"):
            kernel = getattr(wfk.signal, name)
            monkeypatch.setattr(
                wfk.signal, name, lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a)
            )
        fs = subband_filters(sample_parameters(n, n, 4, 0.0))
        x = random_signal(12 * n, n)
        rec = synthesize(analyze(x, fs), fs)
        assert np.linalg.norm(rec - np.roll(x, synthesis_delay(fs))) <= 1e-12 * np.linalg.norm(x)
        assert calls == ([] if n == 2 else ["_polyphase", "_block_lattice", "_block_lattice", "_interleave"])

    @pytest.fixture(scope="class")
    def one_thread_distinct(self):
        return one_thread_json("test_signal", "distinct_two_band_outputs", timeout=60)

    def test_bits_independent_of_panel_width(self, one_thread_distinct):
        # one BLAS thread: the same bytes at every width; the threads of
        # this process: the same up to rounding
        assert one_thread_distinct == [1, 1, 1]
        for outs in two_band_width_outputs():
            for z in outs[1:]:
                assert np.abs(z - outs[0]).max() <= BLOCK_BOUND * np.abs(outs[0]).max()


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


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: SubbandSet(n=3, bands=(np.zeros(4), np.zeros(4))), InvariantError,
         "expected 3 bands, got 2"),
        (lambda: synthesize(SubbandSet(n=3, bands=(np.zeros(4),) * 3),
                            subband_filters(sample_parameters(0, 2, 1, 0.0))),
         DimensionError, "band count 3 != filter count 2"),
        # a 2 x 2 band and a 4 x 1 band hold four samples each, but are not signals
        (lambda: SubbandSet(n=2, bands=(np.zeros((2, 2)), np.ones((4, 1)))), DimensionError,
         "a signal must be one-dimensional, got shape (2, 2)"),
        (lambda: SubbandSet(n=2, bands=(np.zeros(4), np.ones((4, 1)))), DimensionError,
         "a signal must be one-dimensional, got shape (4, 1)"),
        (lambda: analyze(np.arange(8.0).reshape(2, 4), sample_parameters(0, 2, 1, 0.0)),
         DimensionError, "a signal must be one-dimensional, got shape (2, 4)"),
        (lambda: analyze(1.0, sample_parameters(0, 2, 1, 0.0)), DimensionError,
         "a signal must be one-dimensional, got shape ()"),
    ],
    ids=["band-count", "synthesize-filters", "band-2d", "band-column", "signal-2d", "signal-0d"],
)
def test_library_validation(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda p: analyze(np.ones(8), p),
        lambda p: synthesize(SubbandSet(n=2, bands=(np.ones(4),) * 2), p),
        synthesis_delay,
        lambda p: p.responses,
    ],
    ids=["analyze", "synthesize", "synthesis-delay", "responses"],
)
def test_subband_path_requires_fir_parameters(call):
    # IIR parameters given straight to the subband path meet its one FIR gate
    with pytest.raises(FirRequiredError, match="^subband impulse responses require all alpha = 0$"):
        call(sample_parameters(12, 2, 1, 0.9))
