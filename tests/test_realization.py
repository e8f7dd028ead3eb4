"""Tests for state-space construction, cascades and certificates."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from edge_realizations import allpass_over_zero, huge_superdiagonal, rotation_on_the_circle
from one_thread import one_thread_json
from reference_matrices import (
    blocks,
    closed_form_wa,
    closed_form_wb,
    reference_core2,
    reference_core4,
    reference_m_alpha,
    reference_m_beta4,
    reference_ma,
    reference_mhat2,
    reference_mhat4,
)
from reference_ops import adjoint, block_cascade, decimated_unitary_eval

from wfk import (
    ConvergenceError,
    DimensionError,
    Factor,
    FilterParameters,
    InvariantError,
    PoleError,
    Realization,
    cascade,
    dft_matrix,
    elementary_wavelet_eval,
    eval_realization,
    impulse_response,
    mcmillan_degree,
    realize_allpass_core,
    realize_decimated_unitary,
    realize_elementary_wavelet,
    realize_wavelet,
    sample_parameters,
    stein_certificate,
    system_matrix,
    unit_circle_points,
    wavelet_eval,
)
from wfk import realization
from wfk.io import load_realization, save_realization
from wfk.realization import (
    _block_certificate,
    _block_solution,
    _series_solution,
    _top_values,
    as_matrix,
    cascade_index,
)

R2 = 1 / np.sqrt(2)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def circle(count, seed=0):
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, count))


def spectral_radius(p):
    """Largest eigenvalue modulus of the realized state matrix."""
    return np.abs(np.linalg.eigvals(realize_wavelet(p).a)).max()


def transfer_distance(r, fn, points):
    """Max entry distance between the realization and ``fn``, both evaluated
    on all ``points`` in one call."""
    return np.abs(eval_realization(r, points) - fn(points)).max()


def rotate(r, seed):
    """The same system in a random unitary state basis (a dense ``A``)."""
    rng = np.random.default_rng(seed)
    p = r.state_dim
    q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    return Realization(a=adjoint(q) @ r.a @ q, b=adjoint(q) @ r.b, c=r.c @ q, d=r.d)


def chunk_sizes(monkeypatch, solver, budget=None):
    """The point count of every chunk that :func:`eval_realization` hands
    ``solver`` (``"_sweep"`` or ``"_lu"``), filled in as it runs; the entry
    budget of a chunk becomes ``budget`` when one is given."""
    sizes = []
    solve = getattr(realization, solver)
    monkeypatch.setattr(
        realization, solver, lambda r, pts, out: sizes.append(pts.size) or solve(r, pts, out)
    )
    if budget is not None:
        monkeypatch.setattr(realization, "_CHUNK_ENTRIES", budget)
    return sizes


def in_cascade_layout(r):
    """Whether ``stein_certificate`` tries the closed-form block solution on ``r``."""
    return cascade_index(r) is not None and r.upper_triangular


def cascade_edges(r):
    """Block edges of a cascade-layout ``r`` with ``n >= 2`` outputs: ``k``
    cores of ``n`` states top first, then the elementary block."""
    n, k = r.outputs, cascade_index(r)
    return list(range(0, k * n + 1, n)) + [r.state_dim]


def gapped_triangular(seed, p=12):
    """A 2x3 system whose triangular ``A`` has a gapped, dense strictly-upper part."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a = 0.3 * np.triu(cplx(p, p), 1) * (rng.uniform(size=(p, p)) < 0.6)
    a[np.diag_indices(p)] = 0.6 * rng.uniform(size=p) * np.exp(2j * np.pi * rng.uniform(size=p))
    return Realization(a=a, b=cplx(p, 3), c=cplx(2, p), d=cplx(2, 3))


def linked_triangular(seed, p=12):
    """:func:`gapped_triangular` with link rows (one coupling ``A[i, i+1]``,
    a zero row of ``B``) and states that neither ``C`` nor ``A`` past its
    superdiagonal reads, both drawn by ``seed``."""
    rng = np.random.default_rng(seed + 100)
    r = gapped_triangular(seed, p)
    a, b, c = np.array(r.a), np.array(r.b), np.array(r.c)
    for i in np.flatnonzero(rng.uniform(size=p - 1) < 0.7):
        a[i, i + 1 :] = 0.0
        a[i, i + 1] = 0.5 - 0.25j
        b[i] = 0.0
    unread = rng.uniform(size=p) < 0.6
    c[:, unread] = 0.0
    a[:, unread] = np.tril(a, 1)[:, unread]
    return Realization(a=a, b=b, c=c, d=r.d)


def unread_and_c_read_runs():
    """Rows 3, 4 link to head 5, and nothing else reads states 3 to 5; rows
    8, 9 are link-shaped too, but ``C`` reads every state from 8 to 10."""
    r = gapped_triangular(seed=11)
    a, b, c = np.array(r.a), np.array(r.b), np.array(r.c)
    for i in (3, 4, 8, 9):
        a[i, i + 1 :] = 0.0
        a[i, i + 1] = 0.5 - 0.25j
        b[i] = 0.0
    a[:3, 3:6] = 0.0
    c[:, 3:6] = 0.0
    return Realization(a=a, b=b, c=c, d=r.d)


def e2_cascade(alpha):
    """One ``v = e_2`` factor on the 2-band elementary filter: its runs merge
    into one run of all three states at ``alpha = 0``."""
    return realize_wavelet(FilterParameters(n=2, rho=0.9, factors=(Factor(E2, alpha),)))


PLAN_FILES = {
    **{f"linked-{seed}": (lambda seed=seed: linked_triangular(seed)) for seed in range(6)},
    "e2-alpha-0.5": lambda: e2_cascade(0.5),
    "e2-alpha-0": lambda: e2_cascade(0.0),
}


def _perturbed(r, seed):
    """``r`` with every nonzero moved by about 1e-6 relative and one zero of
    the strictly upper ``A`` and of ``C`` set to 1e-6, so ``A`` stays
    triangular."""
    rng = np.random.default_rng(seed)

    def moved(m):
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        return m * (1.0 + 1e-6 * noise)

    a, c = moved(r.a), moved(r.c)
    i, j = np.argwhere(np.triu(a == 0, 1))[0]
    a[i, j] = 1e-6
    c[tuple(np.argwhere(c == 0)[-1])] = 1e-6
    return Realization(a=a, b=moved(r.b), c=c, d=moved(r.d))


def same_bits(x, y):
    """Whether two realizations hold the same blocks, bit for bit (signed zeros too)."""
    return all(
        getattr(x, k).shape == getattr(y, k).shape
        and getattr(x, k).tobytes() == getattr(y, k).tobytes()
        for k in "abcd"
    )


CASCADE_RUNGS = [
    (2, 3, 0.0), (3, 2, 0.5), (4, 0, 0.0), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999),
    (16, 32, 0.999),
]


def pointwise(fn):
    """Array closure of a one-point function."""
    return lambda points: np.array([fn(z) for z in points])


class TestElementaryRealization:
    def test_two_band_fixture(self):
        m = system_matrix(realize_elementary_wavelet(2))
        assert np.abs(m - reference_mhat2()).max() <= 1e-12

    def test_four_band_fixture(self):
        m = system_matrix(realize_elementary_wavelet(4))
        assert np.abs(m - reference_mhat4()).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pre_dft_stage_is_permutation(self, n):
        r = realize_elementary_wavelet(n)
        q = dft_matrix(n)
        pre = np.block([[r.a, r.b @ adjoint(q)], [r.c, r.d @ adjoint(q)]])
        assert np.abs(pre.imag).max() <= 1e-12
        rounded = np.round(pre.real)
        assert np.abs(pre.real - rounded).max() <= 1e-12
        assert set(np.unique(rounded)) <= {0.0, 1.0}
        assert np.array_equal(rounded.sum(axis=0), np.ones(pre.shape[0]))
        assert np.array_equal(rounded.sum(axis=1), np.ones(pre.shape[0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transfer_matches_evaluation(self, n):
        r = realize_elementary_wavelet(n)
        assert r.state_dim == n * (n - 1) // 2
        pts = circle(32, seed=n)
        assert transfer_distance(r, lambda z: elementary_wavelet_eval(n, z), pts) <= 1e-12


class TestAllpassCore:
    def test_two_state_fixture(self):
        m = system_matrix(realize_allpass_core(0.25, 2))
        assert np.abs(m - reference_core2(0.25)).max() <= 1e-12

    def test_four_state_fixture(self):
        m = system_matrix(realize_allpass_core(0.0625, 4))
        assert np.abs(m - reference_core4(0.0625)).max() <= 1e-12

    def test_scalar_value(self):
        r = realize_allpass_core(0.25, 2)
        val = eval_realization(r, 2.0)[0, 0]
        assert val == pytest.approx(0.9375 / 3.75)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, -0.5, 0.2 + 0.4j])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transfer_formula(self, alpha, n):
        r = realize_allpass_core(alpha, n)
        # phi_alpha(w) = -conj(alpha) + (1 - |alpha|**2) / (w - alpha): the core
        # is the one-input section with D = 0, its A, B and C byte for byte
        section = realize_decimated_unitary([1.0], alpha, n)
        for x, y in zip((r.a, r.b, r.c), (section.a, section.b, section.c)):
            assert x.tobytes() == y.tobytes()
        for z in circle(8, seed=n):
            expected = (1 - abs(alpha) ** 2) / (z ** n - alpha)
            value = eval_realization(r, z)[0, 0]
            assert abs(value - expected) <= 1e-12
            assert abs(eval_realization(section, z)[0, 0] - (-np.conj(alpha) + value)) <= 1e-12

    def test_zero_alpha_is_nilpotent_chain(self):
        r = realize_allpass_core(0.0, 3)
        assert np.abs(np.diag(r.a)).max() == 0.0
        assert np.array_equal(np.diag(r.a, 1).real, [1, 1])


class TestDecimatedUnitaryRealization:
    def test_two_band_fixture(self):
        m = system_matrix(realize_decimated_unitary(E2, 0.25, 2))
        assert np.abs(m - reference_m_alpha(0.25)).max() <= 1e-12

    def test_four_state_fixture(self):
        m = system_matrix(realize_decimated_unitary(E1, 0.0625, 4))
        assert np.abs(m - reference_m_beta4(0.0625)).max() <= 1e-12

    def test_feedthrough_is_value_at_infinity(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        r = realize_decimated_unitary(v, 0.0, 3)
        assert np.abs(r.d - (np.eye(3) - np.outer(v, v.conj()))).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_transfer_matches_evaluation(self, n):
        rng = np.random.default_rng(2 + n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        alpha = 0.35 - 0.2j
        r = realize_decimated_unitary(v, alpha, n)
        pts = circle(16, seed=n)
        fn = lambda z: decimated_unitary_eval(v, alpha, n, z)  # noqa: E731
        assert transfer_distance(r, fn, pts) <= 1e-12


class TestCascade:
    def test_stateless_identity(self):
        ident = Realization(
            a=np.zeros((0, 0)), b=np.zeros((0, 2)), c=np.zeros((2, 0)), d=np.eye(2)
        )
        x = realize_elementary_wavelet(2)
        out = cascade(ident, x)
        assert np.array_equal(system_matrix(out), system_matrix(x))

    def test_transfer_is_product(self):
        left = realize_decimated_unitary(E2, 0.3, 2)
        right = realize_elementary_wavelet(2)
        combined = cascade(left, right)
        assert combined.state_dim == left.state_dim + right.state_dim
        for z in circle(16, seed=3):
            expected = eval_realization(left, z) @ eval_realization(right, z)
            assert np.abs(eval_realization(combined, z) - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        two_band = realize_elementary_wavelet(2)
        three_band = realize_elementary_wavelet(3)
        with pytest.raises(DimensionError):
            cascade(two_band, three_band)

    @pytest.mark.parametrize("n,m,rho", CASCADE_RUNGS)
    def test_cascade_and_realize_wavelet_equal_the_block_fold(self, n, m, rho):
        # the shared writer against the block-matrix restatement, step by step
        p = sample_parameters(n + m, n, m, rho)
        fold = realize_elementary_wavelet(n)
        for f in p.factors:
            delta = realize_decimated_unitary(f.v, f.alpha, n)
            step = block_cascade(delta, fold)
            assert same_bits(cascade(delta, fold), step)
            fold = step
        assert same_bits(realize_wavelet(p), fold)
        whole = np.block([[fold.a, fold.b], [fold.c, fold.d]])
        assert system_matrix(fold).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stateless_section_equals_block_cascade(self, n):
        # a constant unitary D, as the outer and as the inner system
        constant = Realization(
            a=np.zeros((0, 0)), b=np.zeros((0, n)), c=np.zeros((n, 0)), d=dft_matrix(n)
        )
        r = realize_wavelet(sample_parameters(7 + n, n, 2, 0.5))
        assert same_bits(cascade(constant, r), block_cascade(constant, r))
        assert same_bits(cascade(r, constant), block_cascade(r, constant))

    def test_tall_and_wide_chains_equal_block_cascade(self):
        systems = {
            "tall": allpass_over_zero(transpose=False),
            "wide": allpass_over_zero(transpose=True),
            "elementary": realize_elementary_wavelet(2),
            "factor": realize_decimated_unitary(E2, 0.3, 2),
        }
        chained = 0
        for (outer, delta), (under, inner) in itertools.product(systems.items(), repeat=2):
            if delta.inputs == inner.outputs:
                out = cascade(delta, inner)
                assert out.d.shape == (delta.outputs, inner.inputs)
                assert same_bits(out, block_cascade(delta, inner)), (outer, under)
                assert system_matrix(out).tobytes() == np.block(
                    [[out.a, out.b], [out.c, out.d]]
                ).tobytes()
                chained += 1
            else:
                with pytest.raises(DimensionError, match="cascade mismatch"):
                    cascade(delta, inner)
        # tall onto wide, and each two-input system onto each two-output one
        assert chained == 10


class TestRealizeWavelet:
    @pytest.mark.parametrize(
        "n,m,rho", [(4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999), (16, 32, 0.999)]
    )
    def test_one_pass_equals_cascade_fold(self, tmp_path, n, m, rho):
        p = sample_parameters(40 + n, n, m, rho)
        fold = realize_elementary_wavelet(n)
        for f in p.factors:
            fold = cascade(realize_decimated_unitary(f.v, f.alpha, n), fold)
        built = realize_wavelet(p)
        for name in "abcd":
            x, y = getattr(built, name), getattr(fold, name)
            assert np.array_equal(x, y), name
            assert np.array_equal(np.signbit(x.view(float)), np.signbit(y.view(float))), name
        save_realization(built, tmp_path / "built.json")
        save_realization(fold, tmp_path / "fold.json")
        assert (tmp_path / "built.json").read_bytes() == (tmp_path / "fold.json").read_bytes()

    def test_refused_allocation_raises_before_any_factor(self, monkeypatch):
        p = sample_parameters(3, 2, 8, 0.5)
        states = mcmillan_degree(p)
        allocate, build, calls = realization._state_matrix, realization._section_stack, []
        # a shape numpy refuses without allocating stands in for the whole cascade
        monkeypatch.setattr(
            realization, "_state_matrix", lambda q: allocate(1 << 62 if q == states else q)
        )
        monkeypatch.setattr(
            realization, "_section_stack", lambda *args: calls.append(args) or build(*args)
        )
        with pytest.raises(InvariantError, match="too large to allocate"):
            realize_wavelet(p)
        assert calls == []
        monkeypatch.setattr(realization, "_state_matrix", allocate)
        assert realize_wavelet(p).state_dim == states
        # one build of all 8 sections
        assert len(calls) == 1 and len(calls[0][1]) == 8

    def test_index_zero_is_elementary(self):
        p = FilterParameters(n=2, rho=0.0, factors=())
        assert np.abs(
            system_matrix(realize_wavelet(p)) - reference_mhat2()
        ).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_degree_law(self, n, m):
        p = sample_parameters(100 * n + m, n, m, 0.5)
        r = realize_wavelet(p)
        assert r.state_dim == mcmillan_degree(p)
        assert stein_certificate(r).positive_definite

    def test_transfer_matches_evaluation(self):
        for seed in range(12):
            p = sample_parameters(seed, 2 + seed % 3, seed % 4, 0.9)
            r = realize_wavelet(p)
            pts = circle(24, seed=seed)
            assert transfer_distance(r, lambda z: wavelet_eval(p, z), pts) <= 1e-9

    def test_state_matrix_triangular_with_known_moduli(self):
        p = sample_parameters(77, 3, 3, 0.9)
        r = realize_wavelet(p)
        assert np.abs(np.tril(r.a, -1)).max() == 0.0
        moduli = {0.0} | {abs(f.alpha) ** (1 / 3) for f in p.factors}
        for lam in np.diag(r.a):
            assert min(abs(abs(lam) - m) for m in moduli) <= 1e-12

    def test_wa_transfer(self):
        p = FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))
        r = realize_wavelet(p)
        assert r.state_dim == 3
        pts = circle(32, seed=5)
        assert transfer_distance(r, pointwise(lambda z: closed_form_wa(z, 0.5)), pts) <= 1e-12

    def test_wb_transfer(self):
        alpha, beta = 0.5, 0.3 + 0.1j
        s = complex(beta) ** 0.5
        p = FilterParameters(
            n=2, rho=0.9, factors=(Factor(E2, alpha), Factor(E1, s), Factor(E1, -s))
        )
        r = realize_wavelet(p)
        assert r.state_dim == 7
        pts = circle(32, seed=6)
        assert transfer_distance(r, pointwise(lambda z: closed_form_wb(z, alpha, beta)), pts) <= 1e-12


class TestEvalRealization:
    def test_stateless_returns_feedthrough(self):
        r = Realization(
            a=np.zeros((0, 0)), b=np.zeros((0, 2)), c=np.zeros((2, 0)), d=np.eye(2)
        )
        assert np.array_equal(eval_realization(r, 3.7j), np.eye(2))
        many = eval_realization(r, circle(16))
        assert np.array_equal(many, np.broadcast_to(np.eye(2), (16, 2, 2)))

    def test_two_band_fixture_at_one(self):
        val = eval_realization(realize_elementary_wavelet(2), 1.0)
        assert np.abs(val - R2 * np.array([[1, 1], [1, -1]])).max() <= 1e-14

    def test_wa_at_two(self):
        p = FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))
        val = eval_realization(realize_wavelet(p), 2.0)
        assert np.abs(val - R2 * np.array([[1, 1], [-1 / 7, 1 / 7]])).max() <= 1e-13

    def test_pole_raises(self):
        r = realize_elementary_wavelet(2)
        with pytest.raises(PoleError):
            eval_realization(r, 0.0)
        with pytest.raises(PoleError, match="z = 0j"):
            eval_realization(r, np.array([1.0, 0.0, 1j]))

    @pytest.mark.parametrize("n,m,rho", [(2, 3, 0.9), (3, 2, 0.0), (4, 8, 0.9), (8, 16, 0.99)])
    def test_array_matches_points(self, n, m, rho):
        r = realize_wavelet(sample_parameters(60 + n + m, n, m, rho))
        assert r.upper_triangular
        pts = circle(40, seed=n)
        stacked = np.array([eval_realization(r, z) for z in pts])
        assert np.abs(eval_realization(r, pts) - stacked).max() <= 1e-14

    def test_dense_state_matrix_is_one_block(self):
        # the same filter in a random unitary state basis: A is full, so one
        # point and many points alike go through one LU of zI - A
        r = realize_wavelet(sample_parameters(3, 4, 8, 0.9))
        rotated = rotate(r, seed=4)
        assert not rotated.upper_triangular
        pts = circle(40, seed=9)
        values = eval_realization(rotated, pts)
        stacked = np.array([eval_realization(rotated, z) for z in pts])
        assert np.abs(values - stacked).max() <= 1e-14
        assert np.abs(values - eval_realization(r, pts)).max() <= 1e-12

    def test_shapes(self):
        r = realize_wavelet(sample_parameters(5, 3, 2, 0.9))
        assert eval_realization(r, 0.3 + 0.9j).shape == (3, 3)
        grid = circle(6, seed=2).reshape(3, 2)
        values = eval_realization(r, grid)
        assert values.shape == (3, 2, 3, 3)
        assert np.abs(values[2, 1] - eval_realization(r, grid[2, 1])).max() <= 1e-14

    @staticmethod
    def _chunk_edges_match_single_points(r, solver, monkeypatch):
        sizes = chunk_sizes(monkeypatch, solver, budget=5000)
        pts = np.exp(2j * np.pi * np.arange(103) / 103)
        values = eval_realization(r, pts)
        assert values.shape == (pts.size,) + r.d.shape
        chunk = sizes[0]
        assert len(sizes) > 2 and sum(sizes) == pts.size
        for k in (0, chunk - 1, chunk, 2 * chunk, pts.size - 1):
            assert np.abs(values[k] - eval_realization(r, pts[k])).max() <= 1e-14

    def test_many_points_span_chunks(self, monkeypatch):
        # many points on a triangular A take the head-by-head sweep
        r = realize_wavelet(sample_parameters(6, 8, 16, 0.99))
        self._chunk_edges_match_single_points(r, "_sweep", monkeypatch)

    def test_dense_many_points_span_chunks(self, monkeypatch):
        r = rotate(realize_wavelet(sample_parameters(6, 4, 8, 0.9)), seed=6)
        self._chunk_edges_match_single_points(r, "_lu", monkeypatch)

    def test_gapped_triangular_matches_dense_basis(self):
        # a dense strictly-upper part with zeros inside the row spans: every
        # span entry and every wide-row coupling must reach the solve
        r = gapped_triangular(seed=1)
        # rows holds the head rows of -A over C at the tops, and each head
        # sits just above the next top
        plan = r._head_plan
        tops = plan.tops
        assert tops[0] == 0
        heads = np.append(tops[1:] - 1, r.state_dim - 1)
        expected = np.vstack([-r.a[heads], r.c])[:, tops]
        assert np.array_equal(plan.rows, expected)
        # some head row holds zeros before its last coupling, which the
        # sweep's dense slice of the row multiplies in
        past = [plan.rows[i, i + 1 :] for i in range(tops.size)]
        assert any((row[: np.flatnonzero(row).max(initial=-1)] == 0).any() for row in past)
        rotated = rotate(r, seed=2)
        assert r.upper_triangular and not rotated.upper_triangular
        pts = circle(40, seed=5)
        values = eval_realization(r, pts)
        dense = eval_realization(rotated, pts)
        assert values.shape == (40, 2, 3)
        assert np.abs(values - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_pole_among_many_points_is_named(self, monkeypatch):
        # the sweep names the first pole from its own values: no point is
        # evaluated again alone
        calls = []
        condensed = realization._condensed_point
        monkeypatch.setattr(
            realization, "_condensed_point", lambda r, z: calls.append(z) or condensed(r, z)
        )
        r = realize_wavelet(sample_parameters(11, 4, 8, 0.9))
        diagonal = np.diagonal(r.a)
        pole = diagonal[np.abs(diagonal).argmax()]
        pts = circle(40, seed=3)
        pts[17], pts[23] = pole, diagonal[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError, match=re.escape(f"z = {complex(pole)!r}")):
                eval_realization(r, pts)
        assert calls == []

    def test_pole_in_a_singular_lu_chunk_is_named(self, monkeypatch):
        # the states of a cascade in a random order: A is no longer upper
        # triangular, and at z = a_00 the column of zI - A for the top state
        # is exactly zero, so the LU of the middle one of three chunks fails
        # on it; the LU names it from its own mask, without evaluating any
        # point again
        r = realize_wavelet(sample_parameters(12, 4, 8, 0.9))
        order = np.random.default_rng(12).permutation(r.state_dim)
        shuffled = Realization(
            a=r.a[order][:, order], b=r.b[order], c=r.c[:, order], d=r.d
        )
        assert not shuffled.upper_triangular
        sizes = chunk_sizes(monkeypatch, "_lu", budget=5 * r.state_dim**2)
        calls = []
        evaluate = realization.eval_realization
        monkeypatch.setattr(
            realization, "eval_realization", lambda r, z: calls.append(z) or evaluate(r, z)
        )
        pts = circle(15, seed=4)
        pole = complex(r.a[0, 0])
        pts[7] = pole
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                PoleError, match=re.escape(f"z = {pole!r} is a pole of the realization")
            ):
                realization.eval_realization(shuffled, pts)
        assert sizes == [5, 5, 5] and len(calls) == 1

    @pytest.mark.parametrize(
        "a", [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]], ids=["triangular", "dense"]
    )
    @pytest.mark.parametrize("chunk", [None, 1], ids=["one-chunk", "chunk-per-point"])
    def test_overflow_names_the_first_point(self, a, chunk, monkeypatch):
        # poles at +-0.5 and a gain of 1e300: the values overflow near a
        # pole, where neither z - a_ii nor the LU is singular; the exact
        # pole at -0.5 comes later and is not the one named
        r = Realization(a=a, b=[[1e300], [1e300]], c=[[1.0, 1.0]], d=[[0.0]])
        if chunk:
            monkeypatch.setattr(realization, "_CHUNK_ENTRIES", chunk)
        pts = np.array([0.9, 0.5 + 1e-10, 0.1, -0.5])
        with np.errstate(over="ignore"):
            with pytest.raises(PoleError, match=re.escape(f"z = {complex(pts[1])!r}")):
                eval_realization(r, pts)

    @pytest.mark.parametrize(
        "n,m,rho",
        [(2, 3, 0.9), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999), (16, 32, 0.999)],
    )
    def test_agrees_across_point_threshold(self, n, m, rho):
        r = realize_wavelet(sample_parameters(70 + n, n, m, rho))
        pts = circle(8, seed=n)
        stacked = np.array([eval_realization(r, z) for z in pts])
        below = eval_realization(r, pts[:-1])
        above = eval_realization(r, pts)
        assert np.abs(below - stacked[:-1]).max() <= 1e-14
        assert np.abs(above - stacked).max() <= 1e-14

    def test_gapped_triangular_single_points_match_dense_basis(self):
        # B has no zero row, so every row is a head of the condensed solve,
        # which is then a unit triangular system over all states
        r = gapped_triangular(seed=3)
        assert np.array_equal(r._head_plan.tops, np.arange(r.state_dim))
        rotated = rotate(r, seed=4)
        pts = circle(7, seed=6)
        dense = eval_realization(rotated, pts)
        single = np.array([eval_realization(r, z) for z in pts])
        assert np.abs(eval_realization(r, pts) - single).max() <= 1e-14
        assert np.abs(single - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("n", [2, 8])
    def test_single_point_at_a_core_root_is_named(self, n):
        r = realize_wavelet(sample_parameters(12, n, 3, 0.9))
        root = np.diagonal(r.a)[0]
        assert root != 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError, match=re.escape(f"z = {complex(root)!r}")):
                eval_realization(r, root)

    @pytest.mark.parametrize("gap", [1e-3, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("n, m", [(8, 16), (16, 32)])
    def test_single_points_match_arrays_near_the_circle(self, n, m, gap):
        # every |alpha| = 1 - gap: the few-point formulas of both
        # evaluators against their array paths at the same points
        drawn = sample_parameters(3, n, m, 1.0)
        factors = tuple(Factor(f.v, (1.0 - gap) * f.alpha / abs(f.alpha)) for f in drawn.factors)
        params = FilterParameters(n=n, rho=drawn.rho, factors=factors)
        real = realize_wavelet(params)
        pts = circle(16, seed=n + m)
        for evaluate, target in ((wavelet_eval, params), (eval_realization, real)):
            values = evaluate(target, pts)
            single = np.array([evaluate(target, z) for z in pts])
            assert np.abs(single - values).max() <= 1e-14 * np.abs(values).max()

    def test_leaf_head_without_input_matches_dense_basis(self):
        # row 5 has no entry right of the diagonal and a zero row of B, so
        # it is a head whose value, and that of its links 3 and 4, is 0;
        # rows 8 and 9 are links of head 10, since nothing else reads
        # states 4, 5, 9 and 10
        r = gapped_triangular(seed=7)
        a, b, c = np.array(r.a), np.array(r.b), np.array(r.c)
        for i in (3, 4, 5, 8, 9):
            a[i, i + 1 :] = 0.0
            b[i] = 0.0
        for i in (3, 4, 8, 9):
            a[i, i + 1] = 0.5 + 0.25j
            a[:i, i + 1] = 0.0
            c[:, i + 1] = 0.0
        r = Realization(a=a, b=b, c=c, d=r.d)
        plan = r._head_plan
        tops = plan.tops.tolist()
        assert {3, 8} <= set(tops) and not {4, 5, 9, 10} & set(tops)
        leaf = tops.index(3)
        assert not plan.rows[leaf, leaf + 1 :].any() and not plan.b_heads[leaf].any()
        rotated = rotate(r, seed=8)
        pts = circle(40, seed=9)
        dense = eval_realization(rotated, pts)
        single = np.array([eval_realization(r, z) for z in pts])
        assert np.abs(eval_realization(r, pts) - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.abs(single - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_many_chunks_near_the_circle_match_single_points(self, monkeypatch):
        # every |alpha| = 1 - 1e-13 at (16, 32): 512 points take the sweep
        # in more than one chunk, each point alone the condensed solve
        drawn = sample_parameters(3, 16, 32, 1.0)
        factors = tuple(Factor(f.v, (1.0 - 1e-13) * f.alpha / abs(f.alpha)) for f in drawn.factors)
        r = realize_wavelet(FilterParameters(n=16, rho=drawn.rho, factors=factors))
        pts = circle(512, seed=10)
        sizes = chunk_sizes(monkeypatch, "_sweep")
        values = eval_realization(r, pts)
        assert len(sizes) > 1
        single = np.array([eval_realization(r, z) for z in pts])
        assert np.abs(single - values).max() <= 1e-14 * np.abs(values).max()

    def test_stacked_solves_take_stacks_of_matrices(self, monkeypatch):
        # before numpy 2.0, np.linalg.solve read a b with b.ndim == a.ndim - 1
        # as a stack of vectors, so every stacked solve passes b with the
        # ndim of a; m = 1 makes the head system N x N, as square as B
        solve = np.linalg.solve

        def strict(a, b):
            assert np.ndim(b) == np.ndim(a), "b is not a stack of matrices"
            return solve(a, b)

        params = sample_parameters(13, 4, 1, 0.9)
        r = realize_wavelet(params)
        rotated = rotate(r, seed=5)
        pts = circle(16, seed=8)
        monkeypatch.setattr(np.linalg, "solve", strict)
        for target in (r, rotated):
            for z in (pts[0], pts[:3], pts):
                expected = wavelet_eval(params, z)
                assert np.abs(eval_realization(target, z) - expected).max() <= 1e-12


# One work array of eval_realization at its budget of 2**15 complex entries.
BUDGET_BYTES = 16 << 15
BUDGET_RUNGS = [(2, 3, 0.9), (3, 4, 0.9), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999)]
BUDGETS = [1, 1 << 12, None, 1 << 18]


def traced_peak(fn):
    """The peak, in bytes, of the memory that ``fn`` allocates, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def verify_points(n):
    """The 512 points at which ``wfk verify --seed 0`` evaluates an ``n``-band file."""
    zs = unit_circle_points(256, 0)
    return np.concatenate([np.exp(2j * np.pi / n) * zs, zs])


def budget_files():
    """The cascades of :data:`BUDGET_RUNGS` and, at n = 2, 3 and 4, their
    rotated (dense ``A``) files, which take the stacked LU, by name."""
    files = {
        f"{n},{m},{rho}": realize_wavelet(sample_parameters(5, n, m, rho))
        for n, m, rho in BUDGET_RUNGS
    }
    for name in ("2,3,0.9", "3,4,0.9", "4,8,0.9"):
        files[f"rotated {name}"] = rotate(files[name], seed=3)
    return files


def budget_values():
    """Per file of :func:`budget_files`, the inputs, the number of distinct
    bytes of ``eval_realization`` at :func:`verify_points` over the chunk
    budgets of :data:`BUDGETS` (None is the default), and their largest
    difference from the default's values relative to its largest modulus."""
    default = realization._CHUNK_ENTRIES
    found = {}
    try:
        for name, r in budget_files().items():
            values = []
            for budget in BUDGETS:
                realization._CHUNK_ENTRIES = default if budget is None else budget
                values.append(eval_realization(r, verify_points(r.outputs)))
            reference = values[BUDGETS.index(None)]
            spread = max(np.abs(v - reference).max() for v in values)
            found[name] = (
                r.inputs,
                len({v.tobytes() for v in values}),
                float(spread / np.abs(reference).max()),
            )
    finally:
        realization._CHUNK_ENTRIES = default
    return found


class TestChunkBudget:
    """Chunking bounds ``eval_realization``'s work arrays and moves no bit
    where ``N_in`` is a multiple of 4."""

    def test_values_independent_of_budget(self):
        # the bytes hold when N_in is a multiple of 4; otherwise BLAS rounds a
        # point of the sweep's vector-matrix products by its place in the
        # array, and budget 1 puts each point in an array of its own
        found = one_thread_json("test_realization", "budget_values")
        assert sorted(found) == sorted(budget_files())
        for name, (inputs, distinct, spread) in found.items():
            assert spread <= 1e-14, name
            if inputs % 4 == 0:
                assert distinct == 1, name

    @pytest.mark.parametrize(
        "a", [[[0.5]], [[0.0, 0.5], [0.5, 0.0]]], ids=["triangular", "dense"]
    )
    def test_budget_counts_c_x(self, a):
        # one state and 64 inputs and outputs: C X, 64 x 64 per point, is the
        # largest work array of both solvers
        rng = np.random.default_rng(0)
        p = len(a)
        r = Realization(
            a=a, b=0.1 * rng.standard_normal((p, 64)), c=0.1 * rng.standard_normal((64, p)),
            d=np.eye(64),
        )
        pts = circle(2048, seed=1)
        eval_realization(r, pts[:1])  # builds the cached plan before tracing
        peak, values = traced_peak(lambda: eval_realization(r, pts))
        assert peak < values.nbytes + 3 * BUDGET_BYTES

    def test_verify_points_stay_within_budget(self):
        r = realize_wavelet(sample_parameters(5, 12, 16, 0.999))
        pts = verify_points(12)
        eval_realization(r, pts[:1])
        peak, values = traced_peak(lambda: eval_realization(r, pts))
        assert peak < values.nbytes + 3 * BUDGET_BYTES


RUNGS = [(2, 3, 0.9), (4, 8, 0.9), (8, 16, 0.99), (12, 16, 0.999), (16, 32, 0.999)]


# Real points as Python int, bool and float and as numpy float64 and int64
REAL_POINT_FORMS = [2, True, -0.5, np.float64(-0.5), np.int64(2)]


def assert_one_point_forms(r, points):
    """Every one-point input form of each point keeps its result shape, and
    each form and each array of the first 1 to K points matches the scalar
    calls within 1e-14 relative; each of ``REAL_POINT_FORMS`` gives one
    value that matches a one-element array of its point within 1e-14
    relative."""
    shape = r.d.shape
    single = np.array([eval_realization(r, complex(z)) for z in points])
    scale = np.abs(single).max()
    for k, z in enumerate(points):
        forms = [
            (complex(z), ()),
            (np.array(z), ()),
            (np.complex128(z), ()),
            (np.array([z]), (1,)),
            (np.array([[z]]), (1, 1)),
        ]
        for form, lead in forms:
            value = eval_realization(r, form)
            assert value.shape == lead + shape
            assert np.abs(value.reshape(shape) - single[k]).max() <= 1e-14 * scale
    for count in range(1, points.size + 1):
        assert np.abs(eval_realization(r, points[:count]) - single[:count]).max() <= 1e-14 * scale
    for form in REAL_POINT_FORMS:
        value = eval_realization(r, form)
        expected = eval_realization(r, np.array([complex(form)]))[0]
        assert value.shape == shape
        assert np.abs(value - expected).max() <= 1e-14 * np.abs(expected).max()


def assert_tops_hold_every_outside_read(r):
    """A state that C reads, or that A reads past its superdiagonal, is the
    top of its run, so X at the tops is all that the solvers read; some run
    has a link; array and scalar values match the rotated ``_lu`` basis
    within 1e-12 relative."""
    tops = r._head_plan.tops
    outside = np.union1d(np.flatnonzero(r.c.any(axis=0)), np.nonzero(np.triu(r.a, 2))[1])
    assert np.isin(outside, tops).all()
    assert tops.size < r.state_dim
    pts = circle(40, seed=2)
    dense = eval_realization(rotate(r, seed=1), pts)
    scale = np.abs(dense).max()
    single = np.array([eval_realization(r, z) for z in pts])
    assert np.abs(eval_realization(r, pts) - dense).max() <= 1e-12 * scale
    assert np.abs(single - dense).max() <= 1e-12 * scale



class TestOnePointKernel:
    @pytest.mark.parametrize("n,m,rho", RUNGS)
    def test_point_forms_match_the_array_path(self, n, m, rho):
        assert_one_point_forms(realize_wavelet(sample_parameters(80 + n, n, m, rho)), circle(7, seed=n))

    def test_index_zero_point_forms(self):
        r = realize_wavelet(FilterParameters(n=4, rho=0.0, factors=()))
        assert_one_point_forms(r, circle(7, seed=1))

    def test_stateless_point_forms(self):
        d = np.arange(6).reshape(2, 3) + 1j
        r = Realization(a=np.zeros((0, 0)), b=np.zeros((0, 3)), c=np.zeros((2, 0)), d=d)
        assert_one_point_forms(r, circle(7, seed=2))
        assert np.array_equal(eval_realization(r, 0.0), d)

    def test_gapped_triangular_point_forms(self):
        r = gapped_triangular(seed=1)
        assert r.upper_triangular
        assert_one_point_forms(r, circle(7, seed=3))

    def test_rotated_point_forms(self):
        rotated = rotate(realize_wavelet(sample_parameters(3, 4, 8, 0.9)), seed=4)
        assert not rotated.upper_triangular
        assert_one_point_forms(rotated, circle(7, seed=4))

    def test_empty_array(self):
        r = realize_wavelet(sample_parameters(4, 3, 2, 0.9))
        assert eval_realization(r, np.zeros(0, dtype=complex)).shape == (0, 3, 3)

    def test_no_inputs(self):
        a = np.array([[0.5, 1.0], [0.0, 0.2j]])
        r = Realization(a=a, b=np.zeros((2, 0)), c=[[1.0, 0.0]], d=np.zeros((1, 0)))
        assert r.upper_triangular and not rotate(r, seed=1).upper_triangular
        for target in (r, rotate(r, seed=1)):
            assert eval_realization(target, 1j).shape == (1, 0)
            assert eval_realization(target, circle(5, seed=1)).shape == (5, 1, 0)
        # an empty value has no entry to go non-finite: zI - A names the pole
        for z in (0.2j, np.array([1j, 0.2j, 0.5])):
            with pytest.raises(PoleError, match=re.escape("z = 0.2j")):
                eval_realization(r, z)

    @pytest.mark.parametrize(
        "build",
        [lambda: realize_wavelet(sample_parameters(5, 4, 8, 0.9)), lambda: gapped_triangular(seed=2)],
        ids=["cascade", "gapped"],
    )
    def test_top_values_of_a_point_are_row_0_of_a_column(self, build):
        plan = build()._head_plan
        # a pole of the last state too, where Q is not finite
        for z in [0.3 + 0.4j, *circle(4, seed=5), complex(plan.diagonal[0])]:
            with np.errstate(all="ignore"):
                q, finite = _top_values(plan, z)
                column, finite_column = _top_values(plan, np.array([[z]]))
            assert q.shape == (plan.b_heads.shape[0],) and column.shape == (1,) + q.shape
            assert q.tobytes() == column[0].tobytes()
            assert finite == finite_column[0]
            assert bool(finite) == (z != plan.diagonal[0])

    def test_upper_pattern_lists_the_strict_upper_nonzeros(self):
        # one scan of A gives upper_triangular and the pattern of the plan
        r = gapped_triangular(seed=6)
        rows, cols = r._upper_pattern
        assert np.array_equal(np.transpose(np.nonzero(np.triu(r.a, 1))), np.transpose([rows, cols]))
        assert rotate(r, seed=7)._upper_pattern is None

    @pytest.mark.parametrize("n,m,rho", RUNGS)
    def test_cascade_runs_own_one_read_each(self, n, m, rho):
        # a cascade of drawn factors has m + N - 1 runs, each read at its
        # top state alone (special vectors such as e_2 can merge runs)
        plan = realize_wavelet(sample_parameters(90 + n, n, m, rho))._head_plan
        assert plan.tops.size == plan.b_heads.shape[0] == m + n - 1

    def test_file_with_unread_and_many_read_runs_matches_dense_basis(self, tmp_path):
        # the run of rows 3 to 5 is read at its top state alone; C reads
        # every state of rows 8 to 10, so each of those rows is a head and
        # its state the top of its own run
        save_realization(unread_and_c_read_runs(), tmp_path / "r.json")
        r = load_realization(tmp_path / "r.json")
        tops = set(r._head_plan.tops.tolist())
        assert 3 in tops and not {4, 5} & tops and {8, 9, 10} <= tops
        assert_tops_hold_every_outside_read(r)

    @pytest.mark.parametrize("build", PLAN_FILES.values(), ids=PLAN_FILES.keys())
    def test_tops_hold_every_outside_read(self, build, tmp_path):
        save_realization(build(), tmp_path / "r.json")
        assert_tops_hold_every_outside_read(load_realization(tmp_path / "r.json"))

class TestImpulseResponse:
    def test_two_band_taps(self):
        taps = impulse_response(realize_elementary_wavelet(2), 3)
        assert np.abs(taps[0] - R2 * np.array([[1, 1], [0, 0]])).max() <= 1e-14
        assert np.abs(taps[1] - R2 * np.array([[0, 0], [1, -1]])).max() <= 1e-14
        assert np.abs(taps[2]).max() == 0.0

    def test_fir_taps_vanish_past_state_dim(self):
        p = sample_parameters(8, 3, 2, 0.0)
        r = realize_wavelet(p)
        taps = impulse_response(r, 2 * r.state_dim)
        for h in taps[r.state_dim + 1 :]:
            assert np.abs(h).max() == 0.0

    def test_series_sums_to_transfer(self):
        p = sample_parameters(9, 2, 3, 0.0)
        r = realize_wavelet(p)
        taps = impulse_response(r, 2 * r.state_dim)
        for z in circle(8, seed=7):
            series = sum(h * z ** (-k) for k, h in enumerate(taps))
            assert np.abs(series - eval_realization(r, z)).max() <= 1e-12


class TestDegreeAndRadius:
    def test_degree_examples(self):
        assert mcmillan_degree(FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))) == 3
        s = 0.5
        p7 = FilterParameters(
            n=2, rho=0.9, factors=(Factor(E2, 0.5), Factor(E1, s), Factor(E1, -s))
        )
        assert mcmillan_degree(p7) == 7
        assert mcmillan_degree(FilterParameters(n=4, rho=0.0, factors=())) == 6

    def test_radius_fir(self):
        assert spectral_radius(FilterParameters(n=3, rho=0.0, factors=())) == 0.0

    def test_radius_root(self):
        p = FilterParameters(n=2, rho=0.5, factors=(Factor(E2, 0.25),))
        assert spectral_radius(p) == pytest.approx(0.5)

    def test_radius_below_one(self):
        for seed in range(20):
            p = sample_parameters(seed, 2, 3, 0.999)
            assert spectral_radius(p) < 1.0


class TestStein:
    def test_elementary_certificate_is_identity(self):
        for n in (2, 3, 4):
            cert = stein_certificate(realize_elementary_wavelet(n))
            p = n * (n - 1) // 2
            assert np.abs(cert.h - np.eye(p)).max() <= 1e-12
            assert cert.max_block_residual <= 1e-12
            assert cert.positive_definite

    def test_index_one_certificate(self):
        p = FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))
        cert = stein_certificate(realize_wavelet(p))
        assert cert.max_block_residual <= 1e-9
        assert cert.hermiticity <= 1e-10
        assert cert.positive_definite

    def test_similarity_transport(self):
        p = FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))
        r = realize_wavelet(p)
        t = np.diag([2.0, 0.5, 3.0])
        t_inv = np.diag(1.0 / np.diag(t))
        scaled = Realization(a=t_inv @ r.a @ t, b=t_inv @ r.b, c=r.c @ t, d=r.d)
        h = stein_certificate(r).h
        h_scaled = stein_certificate(scaled).h
        assert np.abs(h_scaled - adjoint(t) @ h @ t).max() <= 1e-9

    def test_unstable_state_matrix_rejected(self):
        r = Realization(
            a=np.array([[1.5]]), b=np.ones((1, 1)), c=np.ones((1, 1)), d=np.zeros((1, 1))
        )
        with pytest.raises(ConvergenceError):
            stein_certificate(r)

    @pytest.mark.parametrize("n, m, rho", [(2, 3, 0.0), (4, 8, 0.9), (8, 16, 0.99)])
    def test_condition_estimate_is_one_norm_condition(self, n, m, rho):
        cert = stein_certificate(realize_wavelet(sample_parameters(1, n, m, rho)))
        h = cert.h
        expected = np.linalg.norm(h, 1) * np.linalg.norm(np.linalg.inv(h), 1)
        assert cert.condition_estimate == pytest.approx(expected, rel=1e-12)

    def test_scaled_realization_fails_certificate(self):
        p = FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),))
        r = realize_wavelet(p)
        bad = Realization(a=1.01 * r.a, b=r.b, c=r.c, d=r.d)
        cert = stein_certificate(bad)
        assert cert.max_block_residual > 1e-9

    def test_tall_lossless_realization_certifies(self):
        # the residual is sized by the one input, not by the two outputs
        cert = stein_certificate(allpass_over_zero(transpose=False))
        assert cert.method == "block" and cert.positive_definite
        assert np.array_equal(cert.h, [[1.0]])
        for value in (cert.residual_state, cert.residual_cross, cert.residual_input):
            assert value <= 1e-15

    def test_wide_realization_misses_its_second_input(self):
        # the transpose drops input 2, so B* H B + D* D lacks its second 1
        cert = stein_certificate(allpass_over_zero(transpose=True))
        assert cert.residual_state <= 1e-15 and cert.residual_cross <= 1e-15
        assert cert.residual_input == pytest.approx(1.0, abs=1e-15)

    def test_non_finite_closed_form_goes_to_a_diverging_series(self):
        r = huge_superdiagonal()
        assert _block_solution(r) is None
        with pytest.raises(ConvergenceError, match="diverged"):
            stein_certificate(r)

    def test_series_on_the_circle_hits_the_iteration_cap(self):
        # eigenvalues +-i: the series neither settles nor overflows
        with pytest.raises(ConvergenceError, match="did not converge"):
            stein_certificate(rotation_on_the_circle())


FLOOR_BANDS = (2, 3, 4, 5, 7, 8, 12, 16, 32)


def floor_angles(n):
    """2000 equispaced pole angles, then the n-th roots of unity, pi/2 and pi."""
    return np.concatenate(
        [np.linspace(0.0, 2 * np.pi, 2000, endpoint=False), 2 * np.pi * np.arange(n) / n,
         [np.pi / 2, np.pi]]
    )


def pole_at_the_floor(n, theta):
    """The pole of angle ``theta`` nearest the circle that FilterParameters accepts."""
    floor = 4 * n * 2.0**-52
    radius = 1.0 - floor
    while 1.0 - abs(radius * np.exp(1j * theta)) < floor:
        radius = np.nextafter(radius, 0.0)
    return radius * np.exp(1j * theta)


class TestPoleFloor:
    """``1 - |alpha| >= 4*n*2**-52`` keeps every root of every pole inside the circle."""

    @pytest.mark.parametrize("n", FLOOR_BANDS)
    def test_poles_at_the_floor_certify(self, n):
        # the roots of each pole are the diagonal of its section; the
        # certificate runs on filters of 16 poles, and at n = 32, where it
        # takes the dense path at about 1 s a filter, on one filter of the
        # pole at angle pi
        v = np.eye(n)[0]
        poles = [pole_at_the_floor(n, theta) for theta in floor_angles(n)]
        roots = np.array([np.diagonal(realize_allpass_core(a, n).a) for a in poles])
        assert np.abs(roots).max() < 1.0
        blocks = [poles[lo : lo + 16] for lo in range(0, len(poles), 16)]
        for block in blocks if n < 32 else [[pole_at_the_floor(n, np.pi)]]:
            params = FilterParameters(n=n, rho=1.0, factors=tuple(Factor(v, a) for a in block))
            stein_certificate(realize_wavelet(params))
        for modulus in (1.0 - 2 * n * 2.0**-52, np.nextafter(1.0, 0.0)):
            with pytest.raises(InvariantError, match=r"^factor 1: \|alpha\| = .* floor"):
                FilterParameters(n=n, rho=1.0, factors=(Factor(v, 0.5), Factor(v, modulus)))


class TestBlockStein:
    """The block-diagonal Stein solution of the cascade layout."""

    @pytest.mark.parametrize("n, m, rho", [(2, 3, 0.0), (4, 8, 0.9), (8, 16, 0.99)])
    def test_block_solution_matches_series(self, n, m, rho):
        r = realize_wavelet(sample_parameters(1, n, m, rho))
        cert = stein_certificate(r)
        assert cert.method == "block"
        dense = _series_solution(r)
        assert np.linalg.norm(cert.h - dense, 1) <= 1e-10 * np.linalg.norm(dense, 1)
        # the cascade's solution is block diagonal: n-state cores, then the
        # elementary block
        assert in_cascade_layout(r) and cascade_index(r) == m
        edges = cascade_edges(r)
        for lo, hi in zip(edges[:-1], edges[1:]):
            assert not cert.h[lo:hi, hi:].any()

    def test_certificate_holds_h_and_residual_once(self):
        # neither a second copy of H nor the whole system matrix [A B; C D]
        # is made (each about 1.1 MB at 258 states); the margin holds one
        # block row of S at a time and its products
        r = realize_wavelet(sample_parameters(5, 12, 16, 0.999))
        stein_certificate(r)
        peak, cert = traced_peak(lambda: stein_certificate(r))
        residual_bytes = 16 * (r.state_dim + r.inputs) ** 2
        assert cert.method == "block" and not cert.h.flags.writeable
        assert peak < cert.h.nbytes + residual_bytes + (1 << 20)

    def test_relative_residuals_use_norm_of_h(self):
        cert = stein_certificate(realize_wavelet(sample_parameters(1, 4, 8, 0.9)))
        assert cert.norm_h > 1.0 and cert.scale == cert.norm_h
        assert cert.relative_block_residual == cert.max_block_residual / cert.norm_h
        assert cert.relative_hermiticity == cert.hermiticity / cert.norm_h
        small = stein_certificate(realize_elementary_wavelet(3))
        assert small.scale == 1.0
        assert small.relative_block_residual == small.max_block_residual

    def test_scaled_input_keeps_block_solution_and_fails(self):
        # B does not enter the state equation, so the block solution stands
        # and the cross and input identities fail on their own
        r = realize_wavelet(sample_parameters(2, 4, 8, 0.9))
        bad = Realization(a=r.a, b=1.01 * r.b, c=r.c, d=r.d)
        cert = stein_certificate(bad)
        assert cert.method == "block" and cert.positive_definite
        assert cert.residual_state <= 1e-9 * cert.scale
        assert cert.relative_block_residual > 1e-6

    def test_hidden_core_on_top_takes_dense_path(self):
        r = realize_wavelet(sample_parameters(3, 4, 8, 0.9))
        n, p = r.outputs, r.state_dim
        # n hidden states on top: stable, triangular, unreachable, unseen
        a = np.zeros((p + n, p + n), dtype=complex)
        a[:n, :n] = 0.5 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        a[n:, n:] = r.a
        hidden = Realization(
            a=a,
            b=np.vstack([np.zeros((n, r.inputs)), r.b]),
            c=np.hstack([np.zeros((r.outputs, n)), r.c]),
            d=r.d,
        )
        assert in_cascade_layout(hidden)
        cert = stein_certificate(hidden)
        assert cert.method == "dense"
        assert cert.max_block_residual <= 1e-9
        assert not cert.positive_definite

    def test_unquantized_or_dense_state_matrix_takes_dense_path(self):
        r = realize_wavelet(sample_parameters(4, 3, 2, 0.9))
        padded = TestMinimality._padded(r)
        rng = np.random.default_rng(4)
        p = r.state_dim
        q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        rotated = Realization(a=adjoint(q) @ r.a @ q, b=adjoint(q) @ r.b, c=r.c @ q, d=r.d)
        assert not in_cascade_layout(padded) and not in_cascade_layout(rotated)
        assert stein_certificate(padded).method == "dense"
        cert = stein_certificate(rotated)
        assert cert.method == "dense" and cert.positive_definite
        assert cert.max_block_residual <= 1e-9

    def test_dense_path_keeps_the_h_it_solved(self, monkeypatch):
        solved = []
        series = realization._series_solution
        monkeypatch.setattr(
            realization, "_series_solution", lambda r: solved.append(series(r)) or solved[-1]
        )
        cert = stein_certificate(rotate(realize_wavelet(sample_parameters(5, 4, 8, 0.9)), seed=3))
        assert cert.method == "dense" and len(solved) == 1
        assert np.shares_memory(cert.h, solved[0]) and not cert.h.flags.writeable

    @pytest.mark.parametrize(
        "n, m, rho",
        [
            (2, 3, 0.0),
            (4, 8, 0.9),
            (8, 16, 0.99),
            (12, 16, 0.999),
            (16, 32, 0.999),
            (4, 0, 0.0),
        ],
    )
    def test_structured_certificate_equals_dense(self, n, m, rho):
        valid = realize_wavelet(sample_parameters(1, n, m, rho))
        cores, elementary = _block_solution(valid)
        assert cores.shape == (m, n, n) and elementary.shape == (n * (n - 1) // 2,) * 2
        # the valid system, and one with every nonzero of S moved and a zero
        # of A and of C filled in, so that every residual is far from 0 and
        # a block row's nonzero columns differ from the cascade's
        for r in (valid, _perturbed(valid, seed=n + m)):
            block = _block_certificate(r, cores, elementary)
            # the same H certified as one dense block, as the series solution is
            single = _block_certificate(r, np.zeros((0, 0, 0)), block.h, "dense")
            assert np.array_equal(block.h, single.h)
            for lo in range(0, m * n, n):
                assert np.array_equal(block.h[lo : lo + n, lo : lo + n], cores[lo // n])
            assert np.array_equal(block.h[m * n :, m * n :], elementary)
            # the dense formulas, written out
            h, a_h, c_h = block.h, adjoint(r.a), adjoint(r.c)
            dense = {
                "residual_state": np.linalg.norm(a_h @ h @ r.a + c_h @ r.c - h),
                "residual_cross": np.linalg.norm(a_h @ h @ r.b + c_h @ r.d),
                "residual_input": np.linalg.norm(
                    adjoint(r.b) @ h @ r.b + adjoint(r.d) @ r.d - np.eye(r.inputs)
                ),
                "hermiticity": np.linalg.norm(h - adjoint(h)),
            }
            norm_h = np.linalg.norm(h, 1)
            positive = np.linalg.eigvalsh(h).min() > 1e-12 * norm_h
            for cert in (block, single):
                for name, value in dense.items():
                    assert abs(getattr(cert, name) - value) <= 1e-12 * max(1.0, norm_h), name
                assert cert.norm_h == norm_h
                assert cert.condition_estimate == pytest.approx(np.linalg.cond(h, 1), rel=1e-10)
                assert cert.positive_definite == positive
            assert block.method == "block" and single.method == "dense"
            assert single.worst_block is None
        assert block.residual_state > 1e-9 * block.scale

    def test_coupling_entry_is_checked_on_the_full_state_equation(self):
        # a perturbed entry of A right of a core's diagonal block, in the row
        # that couples it to the states below: A stays triangular and a
        # block-diagonal H solving every diagonal block of the state equation
        # exists, so only its off-diagonal blocks reveal the change
        r = realize_wavelet(sample_parameters(2, 4, 8, 0.9))
        n, p = r.outputs, r.state_dim
        a = np.array(r.a)
        row = n - 1
        col = n + int(np.flatnonzero(a[row, n:])[0])
        a[row, col] += 1e-3
        bad = Realization(a=a, b=r.b, c=r.c, d=r.d)
        assert in_cascade_layout(bad) and cascade_index(bad) == cascade_index(r)
        edges = cascade_edges(bad)
        # that H, top first: X - A_jj* X A_jj = (C*C)_jj + A[:lo, j]* H A[:lo, j],
        # solved through vec(A* X A) = kron(A^T, A*) vec(X)
        h = np.zeros((p, p), dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            a_j, a_up, c_j = bad.a[lo:hi, lo:hi], bad.a[:lo, lo:hi], bad.c[:, lo:hi]
            q = adjoint(c_j) @ c_j + adjoint(a_up) @ h[:lo, :lo] @ a_up
            op = np.eye((hi - lo) ** 2) - np.kron(a_j.T, adjoint(a_j))
            x = np.linalg.solve(op, q.reshape(-1, order="F")).reshape(q.shape, order="F")
            h[lo:hi, lo:hi] = (x + adjoint(x)) / 2.0
        k = len(edges) - 2
        cores = np.array([h[lo:hi, lo:hi] for lo, hi in zip(edges[:k], edges[1 : k + 1])])
        block = _block_certificate(bad, cores, h[edges[k] :, edges[k] :])
        state = adjoint(bad.a) @ block.h @ bad.a + adjoint(bad.c) @ bad.c - block.h
        for lo, hi in zip(edges[:-1], edges[1:]):
            assert np.linalg.norm(state[lo:hi, lo:hi]) <= 1e-12 * block.scale
        assert block.residual_state > 1e-6 * block.scale
        # the closed-form candidate reads only the diagonal blocks of A, so
        # the change does not reach it; the certificate rejects it
        assert np.array_equal(_block_solution(bad)[0], _block_solution(r)[0])
        cert = stein_certificate(bad)
        assert cert.method == "dense"
        assert cert.relative_block_residual > 1e-9

    def test_worst_block_names_a_factor_of_a_scaled_input(self):
        params = sample_parameters(2, 4, 8, 0.9)
        r = realize_wavelet(params)
        bad = Realization(a=r.a, b=1.01 * r.b, c=r.c, d=r.d)
        cert = stein_certificate(bad)
        assert cert.method == "block"
        factor = cert.worst_block
        assert isinstance(factor, int) and 0 <= factor < params.m
        # factor i's core lies i cores above the elementary block
        n, k = params.n, params.m
        lo = (k - 1 - factor) * n
        f = params.factors[factor]
        core = realize_decimated_unitary(f.v, f.alpha, n)
        assert np.allclose(r.a[lo : lo + n, lo : lo + n], core.a)
        # the block rows of the state and cross residuals, formed densely
        h, a_h = cert.h, adjoint(bad.a)
        state = a_h @ h @ bad.a + adjoint(bad.c) @ bad.c - h
        cross = a_h @ h @ bad.b + adjoint(bad.c) @ bad.d
        rows = (np.abs(np.hstack([state, cross])) ** 2).sum(axis=1)
        energy = [rows[(k - 1 - i) * n : (k - i) * n].sum() for i in range(k)]
        assert int(np.argmax(energy)) == factor
        assert max(energy) >= rows[k * n :].sum()

    def test_worst_block_is_none_on_the_dense_path(self):
        r = realize_wavelet(sample_parameters(4, 3, 2, 0.9))
        assert stein_certificate(TestMinimality._padded(r)).worst_block is None

    def test_unstable_cascade_layout_raises(self):
        # the block equation is solvable but its H is indefinite, so the
        # dense path takes over and rejects |a_00| > 1
        r = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        assert in_cascade_layout(r)
        with pytest.raises(ConvergenceError):
            stein_certificate(r)

    @pytest.mark.parametrize("corner", [1.0, -1.001j])
    def test_triangular_pole_on_or_outside_the_circle_skips_the_series(
        self, corner, monkeypatch
    ):
        # the diagonal of a triangular A is its spectrum, so a spectral
        # radius >= 1 rejects A before the closed-form candidate of the
        # cascade layout (two one-state cores here) or any doubling.  With
        # C = 0, H = 0 does solve A*HA + C*C = H (and is not positive
        # definite): the rotated, non-triangular form of this file still
        # returns it from the series, so this rejection depends on the basis
        a = [[corner, 0.5], [0.0, 0.2]]
        r = Realization(a=a, b=np.ones((2, 1)), c=np.zeros((1, 2)), d=[[1.0]])
        assert in_cascade_layout(r)
        monkeypatch.setattr(realization, "_block_solution", None)
        with pytest.raises(ConvergenceError, match=re.escape("max |a_ii|")):
            stein_certificate(r)
        assert np.abs(_series_solution(rotate(r, seed=1))).max() == 0.0


class TestMinimality:
    def test_two_band_fixture(self):
        assert stein_certificate(realize_elementary_wavelet(2)).positive_definite

    @staticmethod
    def _padded(r):
        # one hidden state: neither reachable from the input nor seen at the output
        p = r.state_dim
        a = np.zeros((p + 1, p + 1), dtype=complex)
        a[:p, :p] = r.a
        a[p, p] = 0.1
        return Realization(
            a=a,
            b=np.vstack([r.b, np.zeros((1, r.inputs))]),
            c=np.hstack([r.c, np.zeros((r.outputs, 1))]),
            d=r.d,
        )

    def test_padded_state_is_flagged(self):
        axis = self._padded(realize_elementary_wavelet(2))
        # the hidden state of a (4, 8, 0.9) filter in a random unitary basis:
        # lambda_min(H) is rounding noise, which a plain Cholesky can accept
        hidden = self._padded(realize_wavelet(sample_parameters(3, 4, 8, 0.9)))
        rng = np.random.default_rng(3)
        p = hidden.state_dim
        q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        rotated = Realization(
            a=adjoint(q) @ hidden.a @ q, b=adjoint(q) @ hidden.b, c=hidden.c @ q, d=hidden.d
        )
        for padded in (axis, rotated):
            cert = stein_certificate(padded)
            assert cert.max_block_residual <= 1e-9
            assert not cert.positive_definite

    def test_singular_certificate_has_infinite_condition(self):
        cert = stein_certificate(self._padded(realize_elementary_wavelet(2)))
        assert cert.condition_estimate == float("inf")

    def test_sampled_realizations_minimal(self):
        count = 0
        for seed in range(50):
            n = 2 + seed % 2
            m = seed % 4
            p = sample_parameters(seed, n, m, (0.0, 0.5, 0.9)[seed % 3])
            assert stein_certificate(realize_wavelet(p)).positive_definite
            count += 1
        assert count == 50

    def test_cascade_with_printed_basis_matches_wa(self):
        # the rescaled reference basis realizes the same transfer function
        a, b, c, d = blocks(reference_ma(0.5), 3)
        ref = Realization(a=a, b=b, c=c, d=d)
        for z in circle(16, seed=8):
            assert np.abs(eval_realization(ref, z) - closed_form_wa(z, 0.5)).max() <= 1e-12


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: as_matrix(np.zeros(3)), DimensionError, "expected a 2-D matrix, got ndim=1"),
        (lambda: as_matrix(np.zeros((2, 3)), rows=3), DimensionError, "expected 3 rows, got 2"),
        (lambda: as_matrix(np.zeros((2, 3)), cols=2), DimensionError, "expected 2 cols, got 3"),
        (lambda: Realization(a=np.zeros((2, 3)), b=np.zeros((2, 1)), c=np.zeros((1, 2)),
                             d=np.zeros((1, 1))),
         InvariantError, "state block must be square, got (2, 3)"),
        (lambda: realize_elementary_wavelet(1), InvariantError, "band count must be >= 2, got 1"),
        (lambda: realize_decimated_unitary([1.0, 1.0], 0.5, 2), InvariantError,
         "v must have unit norm"),
        (lambda: realize_allpass_core(1.0, 2), InvariantError, "|alpha| must be < 1, got 1.0"),
        (lambda: impulse_response(realize_elementary_wavelet(2), 0), InvariantError,
         "horizon must be >= 1, got 0"),
    ],
    ids=["matrix-ndim", "matrix-rows", "matrix-cols", "a-not-square", "elementary-n",
         "factor-v", "core-alpha", "horizon"],
)
def test_library_validation(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
