"""The north star's verdicts as tier-1 tests: ``wfk verify --seed 0`` at the
default 256 points on files built in-process.

A valid file must exit 0 and a file that is not a wavelet filter must exit
1.  Where ``verify`` gives the wrong verdict today, the case is a strict
xfail whose reason names the ROADMAP item that flips it, so a change that
fixes it, or makes it worse, shows.

Known wrong verdicts kept in other modules, and only listed here:

- the doubled-gain core, a false pass of ``stein_blocks`` (ROADMAP item 2,
  stage A): ``test_planted_files.py::test_doubled_gain_core_fails_verify``;
- the hidden asymmetry, a false pass of ``symmetry`` (item 3):
  ``test_planted_files.py::test_hidden_asymmetry_fails_verify``;
- the one-factor parameter files at n = 23, 24, 28 and 32, false fails of
  ``minimality`` (item 2, stage C; item 17 is the route):
  ``test_io_cli.py::TestCliVerify::test_one_factor_params_pass_up_to_twenty_bands``.
"""

import json

import numpy as np
import pytest

from test_planted_files import unit_vector
from wfk import Factor, FilterParameters, realize_wavelet, sample_parameters
from wfk import io as wio
from wfk.cli import main
from wfk.realization import Realization, _pole_roots, cascade


def verify(filter_, tmp_path, capsys):
    """Exit code and report of ``wfk verify --seed 0`` on ``filter_`` saved as
    a parameter file or, for a :class:`Realization`, a realization file."""
    path = tmp_path / "f.json"
    if isinstance(filter_, Realization):
        wio.save_realization(filter_, path)
    else:
        wio.save_parameters(filter_, path)
    code = main(["verify", str(path), "--seed", "0"])
    return code, json.loads(capsys.readouterr().out)


def as_file(params, kind):
    return realize_wavelet(params) if kind == "realization" else params


KINDS = ["parameters", "realization"]


@pytest.mark.parametrize("kind", KINDS)
def test_north_star_filter_passes(kind, tmp_path, capsys):
    code, doc = verify(as_file(sample_parameters(5, 16, 32, 0.999), kind), tmp_path, capsys)
    assert code == 0 and doc["passed"]


def near_pole(n, m, alpha):
    """Seed 5 at rho 0.9 with factor 0's pole replaced by ``alpha``, at rho 1."""
    factors = list(sample_parameters(5, n, m, 0.9).factors)
    factors[0] = Factor(factors[0].v, alpha)
    return FilterParameters(n, 1.0, tuple(factors))


def near_pole_false_fail(residuals):
    return pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 15 (no false fails near the poles): the pole sits on a "
            f"grid angle and verify reads {residuals}"
        ),
    )


# ROADMAP item 15's table: factor 0's pole at 1 - delta on the grid angle 0
@pytest.mark.parametrize(
    "n,m,delta,kind",
    [
        (4, 8, 1e-6, "parameters"),
        (4, 8, 1e-6, "realization"),
        pytest.param(4, 8, 1e-7, "parameters", marks=near_pole_false_fail("symmetry 5e-9")),
        pytest.param(
            4, 8, 1e-7, "realization",
            marks=near_pole_false_fail("symmetry 5e-9, paraunitary 5e-9"),
        ),
        (16, 32, 1e-5, "parameters"),
        pytest.param(16, 32, 1e-5, "realization", marks=near_pole_false_fail("symmetry 2e-9")),
        pytest.param(
            16, 32, 1e-8, "parameters",
            marks=near_pole_false_fail("symmetry 3e-7, paraunitary 7e-7, frequency_pr 7e-7"),
        ),
        pytest.param(
            16, 32, 1e-8, "realization",
            marks=near_pole_false_fail("symmetry 2e-6, paraunitary 7e-7"),
        ),
    ],
)
def test_pole_near_the_circle_passes(n, m, delta, kind, tmp_path, capsys):
    code, doc = verify(as_file(near_pole(n, m, 1 - delta), kind), tmp_path, capsys)
    assert code == 0 and doc["passed"]


@pytest.mark.parametrize("kind", KINDS)
def test_pole_off_the_grid_passes(kind, tmp_path, capsys):
    # The same modulus as the last row of the table fails at angle 0, but at
    # angle 0.123 no sample lands near the pole, so the default grid passes
    # it.  Evaluated at the pole's own angle it fails as the row does; that
    # case comes with ROADMAP item 18's pole-angle points.
    params = near_pole(16, 32, (1 - 1e-8) * np.exp(0.123j))
    code, doc = verify(as_file(params, kind), tmp_path, capsys)
    assert code == 0 and doc["passed"]


def hidden_core(n, e, m, rho):
    """A core with its pole at ``(1 - e) e^{0.7i}`` and no coupling, cascaded
    onto ``realize_wavelet(sample_parameters(3, n, m, rho))``.

    The core is ``uncoupled_circle_core()``'s with the pole moved inside the
    circle: ``a`` holds the n-th roots of the pole and the unit
    superdiagonal, ``b = c = 0``, and ``d = I - (1 + conj(alpha)/|alpha|) v v*``
    is unitary.  The transfer is the inner filter times a constant unitary,
    so it is lossless and symmetric, but the core's n states are unreachable
    and unobservable: the file is not minimal.
    """
    alpha = (1 - e) * np.exp(0.7j)
    v = unit_vector(np.random.default_rng(7), n)
    a = np.diag(_pole_roots(alpha, n)) + np.diag(np.ones(n - 1), 1)
    zero = np.zeros((n, n), dtype=complex)
    d = np.eye(n) - (1 + np.conj(alpha) / abs(alpha)) * np.outer(v, v.conj())
    core = Realization(a=a, b=zero, c=zero, d=d)
    return cascade(core, realize_wavelet(sample_parameters(3, n, m, rho)))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 17 (certify the cascade layout in its Krylov basis): the "
        "missing coupling enters the block path's residual only as "
        "1 - |alpha|^2, so degree and minimality pass"
    ),
)
@pytest.mark.parametrize(
    "n,e,m,rho", [(2, 1e-9, 1, 0.5), (4, 1e-9, 8, 0.9), (16, 1e-6, 32, 0.999), (16, 1e-9, 32, 0.999)]
)
def test_hidden_core_fails_minimality(n, e, m, rho, tmp_path, capsys):
    code, doc = verify(hidden_core(n, e, m, rho), tmp_path, capsys)
    assert code == 1
    assert not {c["name"]: c for c in doc["checks"]}["minimality"]["passed"]
