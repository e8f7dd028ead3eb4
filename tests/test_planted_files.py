"""Planted realization files that are not wavelet filters.  One that ``wfk
verify`` passes today is a strict xfail whose reason names the ROADMAP item
that closes it, so the fix flips it to a pass; one it fails is a plain test.

The planted defects sit where ``wfk verify --seed 0`` does not sample: at
the middle of the widest gaps between its 256 points.
"""

import json

import numpy as np
import pytest

from wfk import realize_wavelet, sample_parameters, unit_circle_points
from wfk import io as wio
from wfk.cli import main
from wfk.realization import (
    Realization,
    _pole_roots,
    cascade,
    eval_realization,
    realize_decimated_unitary,
)

POINTS = 256


def widest_gap_middles(points, count):
    """The middles of the ``count`` widest gaps between the angles of ``points``."""
    angles = np.sort(np.mod(np.angle(points), 2 * np.pi))
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    widest = np.argsort(gaps)[::-1][:count]
    return np.mod(angles[widest] + gaps[widest] / 2, 2 * np.pi)


def unit_vector(rng, n):
    """A unit complex Gaussian vector."""
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u / np.linalg.norm(u)


def doubled_gain_core():
    """A (16, 32, 0.999) cascade under one more core whose ``c`` is doubled.

    The core's pole is ``(1 - 1e-12) e^{i theta}`` in ``z^16``, with
    ``theta`` in the widest gap of the sampled points' 16th powers, so the
    file keeps the cascade layout and its exact symmetry while
    ``||W* W - I||_F`` is 8 at ``e^{i theta / 16}``.  Returns the file and
    that point.
    """
    n = 16
    inner = realize_wavelet(sample_parameters(3, n, 32, 0.999))
    theta = widest_gap_middles(unit_circle_points(POINTS, 0) ** n, 1)[0]
    v = unit_vector(np.random.default_rng(7), n)
    core = realize_decimated_unitary(v, (1 - 1e-12) * np.exp(1j * theta), n)
    doubled = Realization(a=core.a, b=core.b, c=2 * core.c, d=core.d)
    return cascade(doubled, inner), np.exp(1j * theta / n)


def hidden_asymmetry(delta=1e-12):
    """A (4, 8, 0.9) cascade times four rank-one all-pass factors on its input.

    Factor ``j`` is ``I + (psi_j(z) - 1) u_j u_j*`` with a pole at
    ``(1 - delta) e^{i th_j}``, ``th_j`` in the ``j``-th widest gap of the
    angles of the sampled ``z`` and ``eps z``.  The product stays lossless,
    but ``||W(eps z) - W(z) P||_F`` is 2.0 at ``e^{i th_1}``.  Returns the
    file and that point.
    """
    n = 4
    w = realize_wavelet(sample_parameters(3, n, 8, 0.9))
    z = unit_circle_points(POINTS, 0)
    thetas = widest_gap_middles(np.concatenate([z, np.exp(2j * np.pi / n) * z]), n)
    rng = np.random.default_rng(7)
    for th in thetas:
        u = unit_vector(rng, n)
        pole = (1 - delta) * np.exp(1j * th)
        s = np.sqrt(1 - abs(pole) ** 2)
        d = np.eye(n) + (np.exp(1j * th) * np.conj(pole) - 1) * np.outer(u, u.conj())
        factor = Realization(
            a=[[pole]], b=s * u.conj()[None, :], c=-np.exp(1j * th) * s * u[:, None], d=d
        )
        w = cascade(w, factor)
    return w, np.exp(1j * thetas[0])


def uncoupled_circle_core():
    """A (2, 1, 0.5) cascade under a core with its poles on the circle and no coupling.

    The core is a two-state ``realize_decimated_unitary`` block with
    ``alpha = e^{0.7i}``: ``a`` holds the square roots of ``alpha`` and the
    unit superdiagonal, ``b`` and ``c`` are zero, and ``d = I - (1 +
    conj(alpha)) v v*`` is unitary.  The file is paraunitary and in the
    cascade layout, but its two top states are unreachable and unobservable.
    """
    n, alpha, v = 2, np.exp(0.7j), np.array([0.6, 0.8j])
    a = np.diag(_pole_roots(alpha, n)) + np.diag(np.ones(n - 1), 1)
    zero = np.zeros((n, n), dtype=complex)
    d = np.eye(n) - (1 + np.conj(alpha)) * np.outer(v, v.conj())
    return cascade(
        Realization(a=a, b=zero, c=zero, d=d),
        realize_wavelet(sample_parameters(3, 2, 1, 0.5)),
    )


def verify_exit(r, tmp_path, capsys):
    path = tmp_path / "r.json"
    wio.save_realization(r, path)
    code = main(["verify", str(path), "--seed", "0", "--points", str(POINTS)])
    return code, json.loads(capsys.readouterr().out)


def test_doubled_gain_core_is_not_lossless():
    r, z = doubled_gain_core()
    value = eval_realization(r, z)
    assert np.linalg.norm(value.conj().T @ value - np.eye(16)) > 7.9


def test_hidden_asymmetry_is_not_symmetric():
    r, z = hidden_asymmetry()
    rotated, plain = eval_realization(r, np.array([1j * z, z]))  # eps = i at n = 4
    assert np.linalg.norm(rotated - np.roll(plain, -1, axis=-1)) > 1.9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 2 (a basis-invariant Stein gate): the block path keeps "
        "the doubled-gain core, stein_blocks reads 9.7e-11 relative"
    ),
)
def test_doubled_gain_core_fails_verify(tmp_path, capsys):
    code, doc = verify_exit(doubled_gain_core()[0], tmp_path, capsys)
    assert code == 1
    assert not {c["name"]: c for c in doc["checks"]}["stein_blocks"]["passed"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 3 (symmetry by a similarity witness): the sampled "
        "symmetry reads 8.6e-11 while the defect at th_1 is 2.0"
    ),
)
def test_hidden_asymmetry_fails_verify(tmp_path, capsys):
    code, doc = verify_exit(hidden_asymmetry()[0], tmp_path, capsys)
    assert code == 1
    assert not {c["name"]: c for c in doc["checks"]}["symmetry"]["passed"]


def test_uncoupled_circle_core_fails_verify(tmp_path, capsys):
    # the triangular A has |a_ii| = 1, so the Stein equation is rejected
    # before a closed-form candidate can pass the block identities
    code, doc = verify_exit(uncoupled_circle_core(), tmp_path, capsys)
    assert code == 1
    failed = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert failed == {"stein_blocks", "stein_hermiticity", "minimality"}
    assert doc["stein"] is None
