"""Tests for file formats and the command-line interface."""

import json
import re
import warnings

import numpy as np
import pytest

from wfk import (
    CheckReport,
    Factor,
    FilterParameters,
    FormatError,
    InvariantError,
    realize_wavelet,
    sample_box,
    sample_parameters,
    box_to_params,
)
from wfk import io as wio
from wfk.cli import main

E2 = np.array([0.0, 1.0])
R2 = 1 / np.sqrt(2)


class TestParameterFiles:
    def test_roundtrip_exact(self, tmp_path):
        for seed in range(100):
            p = sample_parameters(seed, 2 + seed % 3, seed % 4, 0.9)
            path = tmp_path / f"p{seed}.json"
            wio.save_parameters(p, path)
            q = wio.load_parameters(path)
            assert q.n == p.n and q.rho == p.rho and q.m == p.m
            for f, g in zip(p.factors, q.factors):
                assert np.array_equal(f.v, g.v)
                assert f.alpha == g.alpha

    def test_box_field_roundtrip(self, tmp_path):
        box = sample_box(5, 3, 2, 0.5)
        p = box_to_params(box)
        path = tmp_path / "p.json"
        wio.save_parameters(p, path, box=box)
        doc = json.loads(path.read_text())
        assert np.allclose(doc["box"], box.coords.reshape(-1))

    def test_load_revalidates_invariants(self, tmp_path):
        p = sample_parameters(1, 2, 1, 0.9)
        path = tmp_path / "p.json"
        wio.save_parameters(p, path)
        doc = json.loads(path.read_text())
        doc["factors"][0]["v"] = [[2.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError):
            wio.load_parameters(path)

    def test_factor_count_must_match(self, tmp_path):
        p = sample_parameters(2, 2, 2, 0.9)
        path = tmp_path / "p.json"
        wio.save_parameters(p, path)
        doc = json.loads(path.read_text())
        doc["m"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError):
            wio.load_parameters(path)

    def test_malformed_factor_exit_3(self, tmp_path, capsys):
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 2, 0.9))
        good = doc["factors"][1]
        for bad in ({"alpha": good["alpha"]}, {"v": good["v"]}, [1, 2], "factor"):
            doc["factors"][1] = bad
            with pytest.raises(InvariantError, match="factor 1"):
                wio.parameters_from_dict(doc)
            path = tmp_path / "p.json"
            path.write_text(json.dumps(doc))
            assert main(["realize", str(path), "-o", str(tmp_path / "r.json")]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "factor 1" in err


class TestRealizationFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        r = realize_wavelet(sample_parameters(3, 3, 2, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        q = wio.load_realization(path)
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(q, name), getattr(r, name))

    def test_non_finite_entry_exit_3(self, tmp_path, capsys):
        r = realize_wavelet(sample_parameters(4, 2, 1, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        doc = json.loads(path.read_text())
        doc["a"]["entries"][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError, match="'a'"):
            wio.load_realization(path)
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1 and "'a'" in captured.err

    def test_state_dim_consistency_checked(self, tmp_path):
        r = realize_wavelet(sample_parameters(4, 2, 1, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        doc = json.loads(path.read_text())
        doc["state_dim"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError):
            wio.load_realization(path)


class TestReports:
    def test_report_embeds_reproduction_data(self):
        checks = [CheckReport("demo", 1e-12, 1e-9, True, 64, 7)]
        doc = wio.report_to_dict(checks, seed=7, points=64, tol=1e-9)
        assert doc["passed"] is True
        assert doc["seed"] == 7 and doc["points"] == 64 and doc["tolerance"] == 1e-9
        entry = doc["checks"][0]
        assert entry["passed"] == (entry["max_residual"] <= entry["tolerance"])

    def test_report_flags_failure(self):
        checks = [CheckReport("demo", 0.5, 1e-9, False, 64, 7)]
        assert wio.report_to_dict(checks, 7, 64, 1e-9)["passed"] is False


class TestSignals:
    def test_signal_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        path = tmp_path / "x.csv"
        wio.save_signal(x, path)
        assert np.array_equal(wio.load_signal(path), x)

    def test_special_values_round_trip_byte_for_byte(self, tmp_path):
        x = np.array([complex(-0.0, np.inf), complex(5e-324, -np.inf), 1e300 - 1e-300j])
        path = tmp_path / "x.csv"
        wio.save_signal(x, path)
        assert path.read_text() == "-0.0,inf\n5e-324,-inf\n1e+300,-1e-300\n"
        back = wio.load_signal(path)
        assert back.view(np.uint64).tolist() == x.view(np.uint64).tolist()
        wio.save_signal([], path)
        assert path.read_text() == "\n"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,2\n  \n3,4\n", [1 + 2j, 3 + 4j]),  # whitespace-only line
            ("1_0,2\n", [10 + 2j]),  # underscore digits, as float() reads them
            ("1,2\x0c3,4\n", [1 + 2j, 3 + 4j]),  # a line break of str.splitlines
            ("\n\n 1 , -2 \n\n", [1 - 2j]),
        ],
    )
    def test_lines_the_fast_reader_rejects(self, tmp_path, text, expected):
        path = tmp_path / "x.csv"
        path.write_text(text)
        assert wio.load_signal(path).tolist() == expected

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"])
    def test_empty_file_is_empty_signal(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = wio.load_signal(path)
        assert x.shape == (0,) and x.dtype == complex

    @pytest.mark.parametrize(
        "text,line",
        [
            ("1,2\n3,4,5\n", 2),
            ("1,2\n\n7\n", 3),
            # numpy would strip these around a number; the line loop does not
            ("1,2\n3\x1f,4\n", 2),
            ("1,2\n3\x0c,4\n", 2),
            ("1,2\n3\u2028,4\n", 2),
        ],
    )
    def test_bad_line_is_named(self, tmp_path, text, line):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(InvariantError, match=re.escape(f"{path}:{line}:")):
            wio.load_signal(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot-a-row\n")
        with pytest.raises(Exception):
            wio.load_signal(path)

    def test_non_numeric_cell_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nabc,3\n")
        with pytest.raises(InvariantError, match=re.escape(f"{path}:2")):
            wio.load_signal(path)
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        code = main(["analyze", str(params), "--signal", str(path), "--out", str(tmp_path / "b")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:2" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        with pytest.raises(FormatError):
            wio.load_signal(tmp_path / "missing.csv")
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        missing = tmp_path / "missing.csv"
        code = main(["analyze", str(params), "--signal", str(missing), "--out", str(tmp_path / "b")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.csv" in err

    def test_missing_reference_exit_2(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.ones(8), sig)
        bands = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands)]) == 0
        code = main(
            ["synthesize", str(params), "--bands", str(bands), "--out", str(tmp_path / "r.csv"),
             "--reference", str(tmp_path / "missing.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.csv" in err


class TestCliGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--n", "2", "--index", "3", "--rho", "0.9", "--seed", "42"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fir_draw(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["gen", "--n", "2", "--index", "1", "--rho", "0", "--seed", "7", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["factors"][0]["alpha"] == [0.0, 0.0]

    def test_box_input(self, tmp_path):
        box = tmp_path / "box.json"
        box.write_text(json.dumps([np.pi / 2, 0.0, 0.0, 0.0]))
        out = tmp_path / "p.json"
        code = main(
            ["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box", str(box), "-o", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        v = np.array([complex(re, im) for re, im in doc["factors"][0]["v"]])
        assert np.abs(v - np.array([0.0, 1.0])).max() <= 1e-12
        assert doc["factors"][0]["alpha"] == [0.0, 0.0]

    def test_box_not_json_exit_2(self, tmp_path, capsys):
        box = tmp_path / "box.json"
        out = tmp_path / "p.json"
        for content in (b"not json", b"\xff\xfe", None):
            if content is None:
                box.unlink()
                box.mkdir()
            else:
                box.write_bytes(content)
            code = main(
                ["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box", str(box), "-o", str(out)]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "box.json" in err
            assert not out.exists()

    def test_box_non_numeric_exit_3(self, tmp_path, capsys):
        box = tmp_path / "box.json"
        box.write_text(json.dumps(["a", 0, 0, 0]))
        out = tmp_path / "p.json"
        code = main(
            ["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box", str(box), "-o", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "box.json" in err
        assert not out.exists()

    def test_bad_rho_names_flag(self, tmp_path, capsys):
        code = main(["gen", "--n", "2", "--index", "1", "--rho", "2", "-o", str(tmp_path / "x.json")])
        assert code == 2
        assert "--rho" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WFK_SEED", "31")
        out_env = tmp_path / "env.json"
        main(["gen", "--n", "2", "--index", "2", "--rho", "0.5", "-o", str(out_env)])
        monkeypatch.delenv("WFK_SEED")
        out_explicit = tmp_path / "explicit.json"
        main(["gen", "--n", "2", "--index", "2", "--rho", "0.5", "--seed", "31", "-o", str(out_explicit)])
        assert out_env.read_bytes() == out_explicit.read_bytes()

    def test_env_seed_not_integer_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WFK_SEED", "abc")
        code = main(["gen", "--n", "2", "--index", "1", "-o", str(tmp_path / "p.json")])
        assert code == 2
        assert "WFK_SEED" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


class TestCliRealize:
    def test_elementary_fixture(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        out = tmp_path / "r.json"
        assert main(["realize", str(params), "-o", str(out)]) == 0
        r = wio.load_realization(out)
        assert r.state_dim == 1
        assert np.abs(r.b - np.array([[R2, -R2]])).max() <= 1e-12

    def test_index_one_state_dim(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(
            FilterParameters(n=2, rho=0.9, factors=(Factor(E2, 0.5),)), params
        )
        out = tmp_path / "r.json"
        assert main(["realize", str(params), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["state_dim"] == 3

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["realize", str(bad), "-o", str(tmp_path / "r.json")]) == 2


class TestCliVerify:
    def test_params_all_pass(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 2, 0.9), params)
        assert main(["verify", str(params)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"symmetry", "paraunitary", "frequency_pr", "degree",
                "stein_blocks", "stein_hermiticity", "minimality"} <= names

    def test_tampered_params_exit_3(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(4, 2, 1, 0.9), params)
        doc = json.loads(params.read_text())
        doc["factors"][0]["v"] = [[2.0, 0.0], [0.0, 0.0]]
        params.write_text(json.dumps(doc))
        assert main(["verify", str(params)]) == 3

    def test_scaled_realization_fails_checks(self, tmp_path, capsys):
        r = realize_wavelet(sample_parameters(5, 2, 1, 0.9))
        from wfk import Realization

        bad = Realization(a=1.01 * r.a, b=r.b, c=r.c, d=r.d)
        path = tmp_path / "r.json"
        wio.save_realization(bad, path)
        report_path = tmp_path / "report.json"
        assert main(["verify", str(path), "-o", str(report_path)]) == 1
        doc = json.loads(report_path.read_text())
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert "paraunitary" in failed
        assert "stein_blocks" in failed

    def test_unstable_realization_fails_checks(self, tmp_path, capsys):
        from wfk import Realization

        unstable = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        path = tmp_path / "r.json"
        wio.save_realization(unstable, path)
        report_path = tmp_path / "report.json"
        assert main(["verify", str(path), "-o", str(report_path)]) == 1
        printed = json.loads(capsys.readouterr().out)
        doc = json.loads(report_path.read_text())
        assert printed == doc and not doc["passed"]
        checks = {c["name"]: c for c in doc["checks"]}
        for name in ("stein_blocks", "stein_hermiticity", "minimality"):
            assert not checks[name]["passed"]
        assert checks["stein_blocks"]["max_residual"] == float("inf")
        # the circle checks still measure the transfer function itself
        assert not checks["paraunitary"]["passed"]
        assert checks["degree"]["passed"]

    def test_report_times_checks_and_keeps_certificate(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        p = sample_parameters(3, 3, 2, 0.9)
        wio.save_parameters(p, params)
        real = tmp_path / "r.json"
        wio.save_realization(realize_wavelet(p), real)
        for path in (params, real):
            assert main(["verify", str(path), "--points", "32"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert all(c["wall_ms"] >= 0.0 for c in doc["checks"])
            stein = doc["stein"]
            assert stein["positive_definite"] is True
            assert stein["norm_h"] > 0.0 and stein["condition_estimate"] >= 1.0

    def test_divergent_stein_series_reports_null(self, tmp_path, capsys):
        from wfk import Realization

        unstable = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        path = tmp_path / "r.json"
        wio.save_realization(unstable, path)
        assert main(["verify", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"] is None
        assert "wall_ms" in doc["checks"][0]

    def test_realization_input_passes(self, tmp_path, capsys):
        r = realize_wavelet(sample_parameters(6, 3, 1, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        assert main(["verify", str(path), "--points", "64"]) == 0

    def test_report_counts_redrawn_points(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 2, 0.9), params)
        assert main(["verify", str(params), "--points", "32"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["resampled"] == 0 for c in doc["checks"])

    def test_bad_points_names_flag(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.9), params)
        for points in ("0", "-3"):
            assert main(["verify", str(params), f"--points={points}"]) == 2
            captured = capsys.readouterr()
            assert "--points" in captured.err and captured.out == ""

    def test_bad_tol_names_flag(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.9), params)
        for tol in ("nan", "inf", "-1"):
            assert main(["verify", str(params), f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert "--tol" in captured.err and captured.out == ""


class TestCliEval:
    def test_elementary_at_one(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        out = tmp_path / "e.csv"
        assert main(["eval", str(params), "--z", "1,0", "-o", str(out)]) == 0
        row = np.loadtxt(out, delimiter=",")
        assert row[0] == 1.0 and row[1] == 0.0
        assert any(abs(x - 0.7071067811865475) < 1e-12 for x in row[2:])

    def test_circle_rows(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(7, 2, 1, 0.9), params)
        out = tmp_path / "e.csv"
        assert main(["eval", str(params), "--circle", "8", "-o", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",")
        assert rows.shape == (8, 2 + 2 * 4)
        zs = rows[:, 0] + 1j * rows[:, 1]
        assert np.abs(zs - np.exp(2j * np.pi * np.arange(8) / 8)).max() <= 1e-12

    def test_params_and_realization_agree(self, tmp_path):
        p = sample_parameters(8, 2, 2, 0.9)
        params = tmp_path / "p.json"
        wio.save_parameters(p, params)
        real = tmp_path / "r.json"
        wio.save_realization(realize_wavelet(p), real)
        out_p, out_r = tmp_path / "ep.csv", tmp_path / "er.csv"
        assert main(["eval", str(params), "--circle", "16", "-o", str(out_p)]) == 0
        assert main(["eval", str(real), "--circle", "16", "-o", str(out_r)]) == 0
        a = np.loadtxt(out_p, delimiter=",")
        b = np.loadtxt(out_r, delimiter=",")
        assert np.abs(a - b).max() <= 1e-9

    def test_stdout_matches_file(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(7, 2, 1, 0.9), params)
        out = tmp_path / "e.csv"
        assert main(["eval", str(params), "--circle", "8"]) == 0
        printed = capsys.readouterr().out
        assert main(["eval", str(params), "--circle", "8", "-o", str(out)]) == 0
        assert printed.encode() == out.read_bytes()

    def test_pole_exit_4(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(9, 2, 1, 0.9), params)
        assert main(["eval", str(params), "--z", "0,0", "-o", str(tmp_path / "e.csv")]) == 4


class TestCliSubbands:
    def _fir_params(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(10, 2, 2, 0.0), params)
        return params

    def test_analyze_synthesize_roundtrip(self, tmp_path):
        params = self._fir_params(tmp_path)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        sig = tmp_path / "x.csv"
        wio.save_signal(x, sig)
        bands_dir = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands_dir)]) == 0
        assert (bands_dir / "band_0.csv").exists()
        assert (bands_dir / "band_1.csv").exists()
        rec = tmp_path / "rec.csv"
        code = main(
            ["synthesize", str(params), "--bands", str(bands_dir), "--out", str(rec),
             "--reference", str(sig)]
        )
        assert code == 0
        sidecar = json.loads((str(rec) + ".json") and (tmp_path / "rec.csv.json").read_text())
        assert sidecar["reconstruction_error"] <= 1e-9
        assert sidecar["delay"] >= 0

    def test_haar_bands_values(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2, rho=0.0, factors=()), params)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.ones(4), sig)
        bands_dir = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands_dir)]) == 0
        band0 = wio.load_signal(bands_dir / "band_0.csv")
        assert np.abs(band0 - np.ones(2)).max() <= 1e-12

    def test_odd_length_exit_2(self, tmp_path):
        params = self._fir_params(tmp_path)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.ones(7), sig)
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(tmp_path / "b")]) == 2

    def test_non_fir_exit_5(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(12, 2, 1, 0.9), params)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.ones(8), sig)
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(tmp_path / "b")]) == 5

    def test_missing_band_file_exit_2(self, tmp_path):
        params = self._fir_params(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["synthesize", str(params), "--bands", str(empty), "--out", str(tmp_path / "r.csv")]) == 2
