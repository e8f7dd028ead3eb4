"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 2 carries one strict expected failure: the transcribed
9x9 reference table for the index-3 example is internally inconsistent
(see ``reference_matrices.reference_mb``), so its transfer cannot match
the closed form it claims to realize; the companion test pins the exact
deviation so the defect stays documented rather than silent.
"""

import numpy as np
import pytest

from reference_matrices import (
    blocks,
    closed_form_wa,
    closed_form_wb,
    reference_core2,
    reference_core4,
    reference_m_alpha,
    reference_m_beta4,
    reference_ma,
    reference_mb,
    reference_mb_row2_defect,
    reference_mhat2,
    reference_mhat4,
)
from reference_ops import (
    check_paraunitary,
    check_symmetry,
    frequency_pr_check,
    quotient_decimation_check,
    simulate,
)

from wfk import (
    Factor,
    FilterParameters,
    Realization,
    analyze,
    cascade,
    eval_realization,
    mcmillan_degree,
    realize_allpass_core,
    realize_decimated_unitary,
    realize_elementary_wavelet,
    realize_wavelet,
    sample_parameters,
    subband_filters,
    synthesis_delay,
    synthesize,
    system_matrix,
    stein_certificate,
    wavelet_eval,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ALPHA, BETA = 0.5, 0.3 + 0.1j


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def circle64(seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, 64))


def wa_parameters(alpha=ALPHA):
    return FilterParameters(n=2, rho=0.9, factors=(Factor(E2, alpha),))


def wb_parameters(alpha=ALPHA, beta=BETA):
    s = complex(beta) ** 0.5
    return FilterParameters(
        n=2, rho=0.9, factors=(Factor(E2, alpha), Factor(E1, s), Factor(E1, -s))
    )


def test_criterion_1_golden_fixtures():
    """Constructed system matrices match the reference tables entry-wise."""
    pairs = [
        ("elementary 2-band", system_matrix(realize_elementary_wavelet(2)), reference_mhat2()),
        ("elementary 4-band", system_matrix(realize_elementary_wavelet(4)), reference_mhat4()),
        ("scalar core n=2", system_matrix(realize_allpass_core(0.25, 2)), reference_core2(0.25)),
        ("scalar core n=4", system_matrix(realize_allpass_core(0.0625, 4)), reference_core4(0.0625)),
        ("factor v=e2 n=2", system_matrix(realize_decimated_unitary(E2, 0.25, 2)), reference_m_alpha(0.25)),
        ("factor v=e1 n=4", system_matrix(realize_decimated_unitary(E1, 0.0625, 4)), reference_m_beta4(0.0625)),
    ]
    worst = max(np.abs(got - want).max() for _, got, want in pairs)
    report("1 (golden fixtures)", worst <= 1e-12, f"max entry deviation {worst:.3e} <= 1e-12")
    for name, got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12, name


def test_criterion_2_closed_form_values():
    """Evaluated filters reproduce the closed forms to 1e-12."""
    pa, pb = wa_parameters(), wb_parameters()
    dev_a = max(
        np.abs(wavelet_eval(pa, z) - closed_form_wa(z, ALPHA)).max() for z in circle64(1)
    )
    dev_b = max(
        np.abs(wavelet_eval(pb, z) - closed_form_wb(z, ALPHA, BETA)).max()
        for z in circle64(2)
    )
    worst = max(dev_a, dev_b)
    report(
        "2 (closed-form values)",
        worst <= 1e-12,
        f"index-1 dev {dev_a:.3e}, index-3 dev {dev_b:.3e} <= 1e-12",
    )
    assert worst <= 1e-12


def test_criterion_2_realized_transfers():
    """Cascade realizations match the closed forms and the 5x5 reference."""
    pa, pb = wa_parameters(), wb_parameters()
    ra, rb = realize_wavelet(pa), realize_wavelet(pb)
    dev_a = max(
        np.abs(eval_realization(ra, z) - closed_form_wa(z, ALPHA)).max()
        for z in circle64(3)
    )
    dev_b = max(
        np.abs(eval_realization(rb, z) - closed_form_wb(z, ALPHA, BETA)).max()
        for z in circle64(4)
    )
    # the reference 5x5 table uses a rescaled state basis; its transfer is
    # the same function
    ref_a = Realization(*blocks(reference_ma(ALPHA), 3))
    dev_ref = max(
        np.abs(eval_realization(ref_a, z) - eval_realization(ra, z)).max()
        for z in circle64(5)
    )
    # the staged 9x9 construction through the four-state factor core also
    # realizes the index-3 filter
    staged = cascade(realize_decimated_unitary(E1, BETA, 4), ra)
    dev_staged = max(
        np.abs(eval_realization(staged, z) - closed_form_wb(z, ALPHA, BETA)).max()
        for z in circle64(6)
    )
    worst = max(dev_a, dev_b, dev_ref, dev_staged)
    report(
        "2 (realized transfers)",
        worst <= 1e-9,
        f"cascade devs {dev_a:.3e}/{dev_b:.3e}, 5x5 reference {dev_ref:.3e}, "
        f"staged 9x9 {dev_staged:.3e} <= 1e-9",
    )
    assert worst <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the transcribed 9x9 reference table is internally inconsistent: its "
        "row-2 state path realizes numerator (1-|a|^2)^(3/2) + |a|^2 - conj(a) z^2 "
        "instead of 1 - conj(a) z^2, so its transfer cannot match the index-3 "
        "closed form; the deviation is pinned exactly in "
        "test_reference_mb_defect_is_the_predicted_one"
    ),
)
def test_criterion_2_reference_mb_transfer():
    """Verbatim 9x9 reference table against the closed form (known defect)."""
    ref_b = Realization(*blocks(reference_mb(ALPHA, BETA), 7))
    dev = max(
        np.abs(eval_realization(ref_b, z) - closed_form_wb(z, ALPHA, BETA)).max()
        for z in circle64(7)
    )
    report(
        "2 (verbatim 9x9 table)",
        dev <= 1e-9,
        f"transfer deviation {dev:.3e} (known transcription-source defect)",
    )
    assert dev <= 1e-9


def test_reference_mb_defect_is_the_predicted_one():
    """The 9x9 table's deviation is exactly the analyzed inconsistency.

    Row 1 matches the closed form; row 2 matches the defective numerator
    formula to machine precision.  This pins the defect to the table, not
    to the cascade construction.
    """
    ref_b = Realization(*blocks(reference_mb(ALPHA, BETA), 7))
    worst_row1 = 0.0
    worst_row2 = 0.0
    for z in circle64(8):
        got = eval_realization(ref_b, z)
        want = closed_form_wb(z, ALPHA, BETA)
        worst_row1 = max(worst_row1, np.abs(got[0] - want[0]).max())
        defect = reference_mb_row2_defect(z, ALPHA)
        worst_row2 = max(
            worst_row2, np.abs(got[1] - np.array([defect, -defect])).max()
        )
    assert worst_row1 <= 1e-12
    assert worst_row2 <= 1e-12


def test_criterion_3_degree_law():
    """State dimension is exactly n*((n-1)/2 + m) and always minimal."""
    failures = []
    for n in (2, 3, 4):
        for m in range(5):
            p = sample_parameters(1000 + 10 * n + m, n, m, 0.5)
            r = realize_wavelet(p)
            expected = n * (n - 1) // 2 + n * m
            if r.state_dim != expected or r.state_dim != mcmillan_degree(p):
                failures.append((n, m, "degree"))
            if not stein_certificate(r).positive_definite:
                failures.append((n, m, "minimality"))
    report(
        "3 (degree law)",
        not failures,
        f"15 (n, m) combinations, exact integer degree and minimality"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert not failures


def test_criterion_4_membership_invariants(corpus):
    """Symmetry and unitarity residuals <= 1e-9 over the seeded corpus."""
    assert len(corpus) >= 200
    worst_sym = worst_para = 0.0
    for seed, p in corpus:
        fn = lambda z: wavelet_eval(p, z)  # noqa: E731
        sym = check_symmetry(fn, p.n, 256, 1e-9, seed)
        para = check_paraunitary(fn, p.n, 256, 1e-9, seed)
        worst_sym = max(worst_sym, sym.max_residual)
        worst_para = max(worst_para, para.max_residual)
    # quotient invariance on 20 random pairs drawn within matching band counts
    rng = np.random.default_rng(99)
    worst_quot = worst_adj = 0.0
    for _ in range(20):
        n = int(rng.choice([2, 3, 4]))
        pa = sample_parameters(int(rng.integers(1 << 30)), n, int(rng.integers(5)), 0.9)
        pb = sample_parameters(int(rng.integers(1 << 30)), n, int(rng.integers(5)), 0.9)
        quot = quotient_decimation_check(
            lambda z: wavelet_eval(pa, z), lambda z: wavelet_eval(pb, z), n, 64, 1e-9, 7
        )
        worst_quot = max(worst_quot, quot.max_residual)
        # adjoint-product form: W_b(z) W_a(z)^* is invariant under z -> eps z
        eps = np.exp(2j * np.pi / n)
        for z in np.exp(1j * rng.uniform(0, 2 * np.pi, 16)):
            g1 = wavelet_eval(pb, z) @ wavelet_eval(pa, z).conj().T
            g2 = wavelet_eval(pb, eps * z) @ wavelet_eval(pa, eps * z).conj().T
            worst_adj = max(worst_adj, float(np.abs(g1 - g2).max()))
    ok = max(worst_sym, worst_para, worst_quot, worst_adj) <= 1e-9
    report(
        "4 (membership invariants)",
        ok,
        f"{len(corpus)} draws at 256 points: symmetry {worst_sym:.3e}, "
        f"unitarity {worst_para:.3e}; 20 pairs: quotient {worst_quot:.3e}, "
        f"adjoint product {worst_adj:.3e} <= 1e-9",
    )
    assert ok


def test_criterion_5_stein_certificates(corpus):
    """Stein residuals <= 1e-9 and Hermiticity <= 1e-10 across the corpus."""
    worst_block = worst_herm = 0.0
    indefinite = 0
    for _, p in corpus:
        cert = stein_certificate(realize_wavelet(p))
        worst_block = max(worst_block, cert.max_block_residual)
        worst_herm = max(worst_herm, cert.hermiticity)
        if not cert.positive_definite:
            indefinite += 1
    ok = worst_block <= 1e-9 and worst_herm <= 1e-10 and indefinite == 0
    report(
        "5 (Stein certificates)",
        ok,
        f"{len(corpus)} realizations: block residual {worst_block:.3e} <= 1e-9, "
        f"Hermiticity {worst_herm:.3e} <= 1e-10, indefinite: {indefinite}",
    )
    assert ok


def test_criterion_6_perfect_reconstruction():
    """Time-domain round trip and energy for FIR; circle check for rho=0.9."""
    rng = np.random.default_rng(123)
    worst_pr = worst_energy = 0.0
    count = 0
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        m = i % 5
        p = sample_parameters(5000 + i, n, m, 0.0)
        fs = subband_filters(p)
        x = rng.standard_normal(48 * n) + 1j * rng.standard_normal(48 * n)
        bands = analyze(x, fs)
        rec = synthesize(bands, fs)
        x_norm = float(np.linalg.norm(x))
        pr_err = float(np.linalg.norm(rec - np.roll(x, synthesis_delay(fs)))) / x_norm
        band_energy = sum(float(np.vdot(b, b).real) for b in bands.bands)
        energy_err = abs(band_energy - x_norm ** 2) / x_norm ** 2
        worst_pr = max(worst_pr, pr_err)
        worst_energy = max(worst_energy, energy_err)
        count += 1
    worst_freq = 0.0
    for i in range(15):
        p = sample_parameters(6000 + i, (2, 3, 4)[i % 3], 1 + i % 4, 0.9)
        worst_freq = max(worst_freq, frequency_pr_check(p, 256, 1e-9, i).max_residual)
    ok = max(worst_pr, worst_energy, worst_freq) <= 1e-9
    report(
        "6 (perfect reconstruction)",
        ok,
        f"{count} FIR filters: round trip {worst_pr:.3e}, energy {worst_energy:.3e}; "
        f"rho=0.9 circle residual {worst_freq:.3e} <= 1e-9",
    )
    assert ok


def test_criterion_7_spectral_decay():
    """Free-response log-slope matches the dominant eigenvalue modulus.

    A two-band index-2 filter with dominant |alpha| = 0.499 (the radius
    bound 0.5 is open, so the modulus cannot reach it exactly) must decay
    at rate |alpha|**(1/2); the fitted slope over steps 10..40 has to land
    within 5% of log(0.5**0.5).
    """
    rng = np.random.default_rng(21)
    v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v2 /= np.linalg.norm(v2)
    p = FilterParameters(
        n=2,
        rho=0.5,
        factors=(Factor(v1, 0.499), Factor(v2, 0.3 * np.exp(1.2j))),
    )
    r = realize_wavelet(p)
    x0 = rng.standard_normal(r.state_dim) + 1j * rng.standard_normal(r.state_dim)
    steps = 41
    norms = np.empty(steps)
    x = x0.copy()
    for k in range(steps):
        norms[k] = np.linalg.norm(x)
        x = r.a @ x
    ks = np.arange(10, 41)
    slope = np.polyfit(ks, np.log(norms[10:41]), 1)[0]
    target = 0.5 * np.log(0.5)
    rel = abs(slope - target) / abs(target)
    ok = rel <= 0.05
    report(
        "7 (spectral decay)",
        ok,
        f"fitted log-slope {slope:.5f} vs target {target:.5f} "
        f"(relative gap {rel:.2%} <= 5%)",
    )
    assert ok


def test_free_response_through_simulate():
    """The recursion driven with zero input reproduces the decay run."""
    p = sample_parameters(31, 2, 2, 0.5)
    r = realize_wavelet(p)
    rng = np.random.default_rng(32)
    x0 = rng.standard_normal(r.state_dim) + 1j * rng.standard_normal(r.state_dim)
    outputs, final = simulate(r, np.zeros((12, 2)), x0=x0)
    x = x0.copy()
    for k in range(12):
        assert np.abs(outputs[k] - r.c @ x).max() <= 1e-12
        x = r.a @ x
    assert np.abs(final - x).max() <= 1e-12
