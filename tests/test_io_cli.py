"""Tests for file formats and the command-line interface."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wfk import (
    CheckReport,
    DimensionError,
    Factor,
    FilterParameters,
    FormatError,
    InvariantError,
    Realization,
    realize_wavelet,
    sample_box,
    sample_parameters,
    box_to_params,
    wavelet_eval,
)
from wfk import io as wio
from wfk.cli import main

from edge_realizations import huge_superdiagonal, overflowing_values, rotation_on_the_circle
from legacy_format import dense_document
from one_thread import one_thread_peak_mb

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
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


    @pytest.mark.parametrize(
        "edit, named",
        [({"n": 2.7}, "field 'n' must be an integer"),
         ({"n": True}, "field 'n' must be an integer"),
         ({"m": 1.5}, "field 'm' must be an integer"),
         ({"m": False}, "field 'm' must be an integer"),
         ({"n": "2"}, "field 'n' must be an integer"),
         # factors must be an array, even where m = 0 asks for none
         ({"m": 0, "factors": {}}, "field 'factors' must be a list"),
         ({"m": 0, "factors": ""}, "field 'factors' must be a list"),
         ({"factors": "x"}, "field 'factors' must be a list")],
        ids=["n-float", "n-bool", "m-float", "m-bool", "n-string",
             "factors-object", "factors-empty-string", "factors-string"],
    )
    def test_non_integer_field_exit_3(self, tmp_path, capsys, edit, named):
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 1, 0.9))
        doc.update(edit)
        with pytest.raises(InvariantError, match=named):
            wio.parameters_from_dict(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["realize", str(path), "-o", str(tmp_path / "r.json")]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and named in err

    def test_integral_float_field_loads(self):
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 1, 0.9))
        doc["n"], doc["m"] = 2.0, 1.0
        p = wio.parameters_from_dict(doc)
        assert p.n == 2 and type(p.n) is int and p.m == 1

    def test_bad_factor_names_index_and_prints_float(self, tmp_path, capsys):
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 2, 0.9))
        doc["factors"][0]["v"] = [[0.6, 0.0], [0.0, 0.0]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "invariant violation: factor 0: factor vector must have unit norm, got 0.6\n"

    @pytest.mark.parametrize(
        "rho, second, message",
        [
            (0.5, {"v": [[0.0, 0.0], [1.0, 0.0]], "alpha": [0.7, 0.0]},
             "|alpha| = 0.7 must be strictly below rho = 0.5"),
            (0.5, {"v": [[1.0, 0.0]], "alpha": [0.0, 0.0]},
             "factor vector has dimension 1, expected 2"),
            (0.0, {"v": [[0.0, 0.0], [1.0, 0.0]], "alpha": [0.25, 0.0]},
             "rho = 0 forces every alpha to be exactly 0"),
            (1.0, {"v": [[0.0, 0.0], [1.0, 0.0]], "alpha": [0.9999999999999999, 0.0]},
             "|alpha| = 0.9999999999999999 is within the floor"
             " 4*n*2**-52 = 1.7763568394002505e-15 of 1"),
        ],
        ids=["above-rho", "dimension", "fir-alpha", "floor"],
    )
    def test_filter_errors_name_the_factor(self, tmp_path, rho, second, message):
        # through the console entry point: exit 3 and one line on stderr
        first = {"v": [[1.0, 0.0], [0.0, 0.0]], "alpha": [0.0, 0.0]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "rho": rho, "factors": [first, second]}))
        done = _capped_cli(["verify", str(path)])
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == f"invariant violation: factor 1: {message}\n"

    def test_overflowing_vector_norm_exit_3_without_warning(self, tmp_path, capsys):
        # the squared norm overflows; the tier-1 run turns a RuntimeWarning into an error
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 2, 0.9))
        doc["factors"][1]["v"][0] = [1e308, 1e308]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "invariant violation: factor 1: factor vector must have unit norm, got inf\n"


class TestRealizationFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        r = realize_wavelet(sample_parameters(3, 3, 2, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        q = wio.load_realization(path)
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(getattr(q, name), getattr(r, name))

    @staticmethod
    def _check_non_finite_entry_exit_3(tmp_path, capsys, doc):
        doc["a"]["entries"][0] = [float("nan"), 0.0]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError, match="'a'"):
            wio.load_realization(path)
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1 and "'a'" in captured.err

    def test_non_finite_entry_exit_3(self, tmp_path, capsys):
        r = realize_wavelet(sample_parameters(4, 2, 1, 0.9))
        self._check_non_finite_entry_exit_3(tmp_path, capsys, dense_document(r))

    def test_non_finite_entry_exit_3_sparse(self, tmp_path, capsys):
        r = realize_wavelet(sample_parameters(4, 2, 1, 0.9))
        self._check_non_finite_entry_exit_3(tmp_path, capsys, wio.realization_to_dict(r))

    @pytest.mark.parametrize(
        "block, edit",
        [
            ("b", lambda r: r.b[:-1]),
            ("c", lambda r: r.c[:, :-1]),
            ("d", lambda r: np.vstack([r.d, r.d[:1]])),
            ("a", lambda r: np.zeros((0, 0))),
            ("a", lambda r: r.a[:, :-1]),
            ("b", None),
        ],
        ids=["b-rows", "c-cols", "d-rows", "a-empty", "a-not-square", "b-negative"],
    )
    def test_block_shapes_exit_3(self, tmp_path, capsys, block, edit):
        r = realize_wavelet(sample_parameters(1, 2, 1, 0.9))
        doc = wio.realization_to_dict(r)
        if edit is None:
            doc[block].update(rows=-1, cols=-1, entries=[[1.0, 0.0]])
        else:
            doc[block] = wio._block_to_dict(np.asarray(edit(r), dtype=complex))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        named = f"'{block}'"
        with pytest.raises(InvariantError, match=named):
            wio.load_realization(path)
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize(
        "where, field, value",
        [(None, "state_dim", 3.5), (None, "state_dim", True), ("a", "rows", True),
         ("b", "cols", 2.5), ("c", "rows", "2")],
        ids=["state_dim-float", "state_dim-bool", "a-rows-bool", "b-cols-float", "c-rows-string"],
    )
    def test_non_integer_field_exit_3(self, tmp_path, capsys, where, field, value):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(1, 2, 1, 0.9)))
        (doc if where is None else doc[where])[field] = value
        named = f"field '{field}' must be an integer"
        if where is not None:
            named = f"block '{where}' {named}"
        with pytest.raises(InvariantError, match=named):
            wio.realization_from_dict(doc)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err

    @staticmethod
    def _check_fast_path_matches_pair_loop(doc):
        for name in ("a", "b", "c", "d"):
            block = doc[name]
            fast = wio._block_from_dict(block, name)
            loop = np.zeros(block["rows"] * block["cols"], dtype=complex)
            loop[block.get("index", slice(None))] = [wio._from_pair(p) for p in block["entries"]]
            assert fast.shape == (block["rows"], block["cols"])
            assert fast.reshape(-1).view(np.uint64).tolist() == loop.view(np.uint64).tolist()

    def test_block_fast_path_matches_pair_loop(self):
        doc = dense_document(realize_wavelet(sample_parameters(6, 4, 3, 0.9)))
        doc["a"]["entries"][1] = [1, -0.0]  # an int and a negative zero
        doc["a"]["entries"][2] = ["0.25", "1_0"]  # strings float() accepts
        assert "index" not in doc["a"]
        self._check_fast_path_matches_pair_loop(doc)

    def test_block_fast_path_matches_pair_loop_sparse(self):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(6, 4, 3, 0.9)))
        doc["a"]["entries"][1] = [1, -0.0]
        doc["a"]["entries"][2] = ["0.25", "1_0"]
        self._check_fast_path_matches_pair_loop(doc)

    @staticmethod
    def _check_bad_pair_keeps_loop_message(doc, pair):
        doc["a"]["entries"][0] = pair
        try:
            [wio._from_pair(p) for p in doc["a"]["entries"]]
        except (TypeError, ValueError, InvariantError) as exc:
            expected = str(exc)
        with pytest.raises(InvariantError) as info:
            wio.realization_from_dict(doc)
        assert str(info.value).endswith(expected)
        assert "block 'a' entry 0: " in str(info.value)

    @pytest.mark.parametrize("pair", [[1.0, None], [None, None], [1.0, [2.0]], [1, 2, 3]])
    def test_bad_pair_keeps_loop_message(self, pair):
        doc = dense_document(realize_wavelet(sample_parameters(1, 2, 1, 0.9)))
        self._check_bad_pair_keeps_loop_message(doc, pair)

    @pytest.mark.parametrize("pair", [[1.0, None], [None, None], [1.0, [2.0]], [1, 2, 3]])
    def test_bad_pair_keeps_loop_message_sparse(self, pair):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(1, 2, 1, 0.9)))
        self._check_bad_pair_keeps_loop_message(doc, pair)

    @staticmethod
    def _check_huge_integer_entry_exit_3(tmp_path, capsys, doc):
        doc["a"]["entries"][0] = [10**400, 0]
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "block 'a' entry 0" in err

    def test_huge_integer_entry_exit_3(self, tmp_path, capsys):
        doc = dense_document(realize_wavelet(sample_parameters(1, 2, 1, 0.9)))
        self._check_huge_integer_entry_exit_3(tmp_path, capsys, doc)

    def test_huge_integer_entry_exit_3_sparse(self, tmp_path, capsys):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(1, 2, 1, 0.9)))
        self._check_huge_integer_entry_exit_3(tmp_path, capsys, doc)

    def test_sparse_roundtrip_bit_exact_with_negative_zero_and_no_states(self, tmp_path):
        from wfk import Realization

        r = realize_wavelet(sample_parameters(2, 3, 2, 0.9))
        a = np.array(r.a)
        a[-1, 0] = complex(-0.0, 0.0)  # below the diagonal, where the cascade has +0.0
        a[-1, 1] = complex(0.0, -0.0)
        stateless = Realization(
            a=np.zeros((0, 0)), b=np.zeros((0, 3)), c=np.zeros((3, 0)), d=r.d
        )
        for real in (Realization(a=a, b=r.b, c=r.c, d=r.d), stateless):
            path = tmp_path / "r.json"
            wio.save_realization(real, path)
            doc = json.loads(path.read_text())
            for name in ("a", "b", "c", "d"):
                block = np.ascontiguousarray(getattr(real, name))
                assert doc[name]["index"] == np.flatnonzero(
                    block.reshape(-1).view(np.uint64).reshape(-1, 2).any(axis=1)
                ).tolist()
            q = wio.load_realization(path)
            for name in ("a", "b", "c", "d"):
                want = np.ascontiguousarray(getattr(real, name)).view(np.uint64)
                got = np.ascontiguousarray(getattr(q, name)).view(np.uint64)
                assert got.shape == want.shape and np.array_equal(got, want)
        assert len(json.loads((tmp_path / "r.json").read_text())["a"]["index"]) == 0

    def test_dense_file_of_earlier_versions_loads_bit_exact(self, tmp_path):
        # written by save_realization before blocks were stored by their nonzeros
        path = DATA / "dense_realization.json"
        doc = json.loads(path.read_text())
        q = wio.load_realization(path)
        for name in ("a", "b", "c", "d"):
            assert "index" not in doc[name]
            want = np.array([wio._from_pair(p) for p in doc[name]["entries"]], dtype=complex)
            assert getattr(q, name).reshape(-1).view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()
        assert np.array_equal(q.a, realize_wavelet(sample_parameters(3, 2, 1, 0.5)).a)
        resaved = tmp_path / "r.json"
        wio.save_realization(q, resaved)
        again = wio.load_realization(resaved)
        for name in ("a", "b", "c", "d"):
            assert np.array_equal(
                getattr(again, name).view(np.uint64), getattr(q, name).view(np.uint64)
            )

    def test_realization_file_size_tracks_nonzeros(self, tmp_path):
        r = realize_wavelet(box_to_params(sample_box(5, 12, 16, 0.999)))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        assert path.stat().st_size < 250_000

    @pytest.mark.parametrize(
        "block, edit, message",
        [
            ("a", lambda b: b.update(index={"0": 1}), "field 'index' must be a list"),
            ("a", lambda b: b.update(index=None), "field 'index' must be a list"),
            ("b", lambda b: b["index"].__setitem__(0, True), "index 0 must be an integer"),
            ("b", lambda b: b["index"].__setitem__(1, "1"), "index 1 must be an integer"),
            ("c", lambda b: b["index"].__setitem__(0, 0.5), "index 0 must be an integer"),
            ("c", lambda b: b["index"].__setitem__(0, float("nan")), "must be an integer"),
            ("a", lambda b: b["index"].__setitem__(0, -1), "index -1 is outside"),
            ("a", lambda b: b["index"].__setitem__(-1, b["rows"] * b["cols"]), "is outside"),
            ("a", lambda b: b["index"].__setitem__(-1, 10**30), "is outside"),
            ("a", lambda b: b["index"].__setitem__(-1, 2**63), "index 9223372036854775808 is"),
            ("d", lambda b: b["index"].__setitem__(1, b["index"][0]), "strictly increasing"),
            ("d", lambda b: b["index"].reverse(), "strictly increasing"),
            ("a", lambda b: b["index"].pop(), "declares"),
            ("b", lambda b: b["entries"].pop(), "declares"),
            ("c", lambda b: b["entries"].__setitem__(0, [1.0]), "entry 0"),
        ],
        ids=["index-dict", "index-null", "index-bool", "index-string", "index-fraction",
             "index-nan", "index-negative", "index-at-size", "index-huge", "index-int64",
             "index-repeated",
             "index-reversed", "fewer-indices", "fewer-entries", "bad-pair"],
    )
    def test_malformed_sparse_block_exit_3(self, tmp_path, capsys, block, edit, message):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(2, 3, 1, 0.9)))
        edit(doc[block])
        named = f"block '{block}'"
        with pytest.raises(InvariantError, match=named) as info:
            wio.realization_from_dict(doc)
        assert message in str(info.value)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1 and named in captured.err
            assert "Traceback" not in captured.err

    def test_integral_float_index_loads(self):
        r = realize_wavelet(sample_parameters(2, 3, 1, 0.9))
        doc = wio.realization_to_dict(r)
        doc["a"]["index"] = [float(i) for i in doc["a"]["index"]]
        assert np.array_equal(wio.realization_from_dict(doc).a, r.a)

    @pytest.mark.parametrize("size", [10**7, 10**10], ids=["memory", "too-big"])
    def test_huge_declared_size_exit_3(self, tmp_path, capsys, size):
        # shapes that agree with each other but that no host could allocate
        doc = {
            "n": 1,
            "state_dim": size,
            "a": {"rows": size, "cols": size, "index": [], "entries": []},
            "b": {"rows": size, "cols": 1, "index": [], "entries": []},
            "c": {"rows": 1, "cols": size, "index": [], "entries": []},
            "d": {"rows": 1, "cols": 1, "index": [0], "entries": [[1.0, 0.0]]},
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        assert path.stat().st_size < 300
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "block 'a'" in err and "too large" in err

    def test_sparse_size_above_ceiling_exit_3(self, tmp_path, capsys):
        # 2049 states: one more than the ceiling holds; nothing is allocated
        size = 2049
        doc = {
            "n": 1,
            "state_dim": size,
            "a": {"rows": size, "cols": size, "index": [], "entries": []},
            "b": {"rows": size, "cols": 1, "index": [], "entries": []},
            "c": {"rows": 1, "cols": size, "index": [], "entries": []},
            "d": {"rows": 1, "cols": 1, "index": [0], "entries": [[1.0, 0.0]]},
        }
        assert size * size > wio._MAX_SPARSE_ENTRIES
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1 and "block 'a'" in captured.err
            assert "too large" in captured.err and "Traceback" not in captured.err

    def test_sparse_ceiling_counts_all_blocks(self, monkeypatch):
        r = realize_wavelet(sample_parameters(2, 3, 1, 0.9))
        total = sum(getattr(r, name).size for name in ("a", "b", "c", "d"))
        doc = wio.realization_to_dict(r)
        monkeypatch.setattr(wio, "_MAX_SPARSE_ENTRIES", total)
        assert np.array_equal(wio.realization_from_dict(doc).a, r.a)
        monkeypatch.setattr(wio, "_MAX_SPARSE_ENTRIES", total - 1)
        with pytest.raises(InvariantError, match="block 'd' declares 3x3, too large"):
            wio.realization_from_dict(doc)
        # dense blocks carry their entries and do not count
        doc["a"] = dense_document(r)["a"]
        assert np.array_equal(wio.realization_from_dict(doc).a, r.a)

    def test_realization_past_ceiling_is_saved_dense(self, tmp_path, monkeypatch):
        r = realize_wavelet(sample_parameters(2, 3, 1, 0.9))
        total = sum(getattr(r, name).size for name in ("a", "b", "c", "d"))
        path = tmp_path / "r.json"
        for limit, sparse in ((total, True), (total - 1, False)):
            monkeypatch.setattr(wio, "_MAX_SPARSE_ENTRIES", limit)
            wio.save_realization(r, path)
            doc = json.loads(path.read_text())
            assert all(("index" in doc[name]) == sparse for name in ("a", "b", "c", "d"))
            if not sparse:
                assert doc == dense_document(r)
            q = wio.load_realization(path)
            for name in ("a", "b", "c", "d"):
                assert np.array_equal(
                    getattr(q, name).view(np.uint64), getattr(r, name).view(np.uint64)
                )

    def test_shapes_checked_before_any_block_is_read(self):
        doc = {
            "n": 1,
            "state_dim": 2,
            "a": {"rows": 10**7, "cols": 10**7, "index": [], "entries": []},
            "b": {"rows": 10**7, "cols": 1, "index": [], "entries": []},
            "c": {"rows": 1, "cols": 10**7, "index": [], "entries": []},
            "d": {"rows": 1, "cols": 1, "entries": "not read"},
        }
        with pytest.raises(InvariantError, match="state_dim=2"):
            wio.realization_from_dict(doc)

    @pytest.mark.parametrize(
        "states, outputs, inputs", [(0, 0, 0), (0, 2, 0), (0, 0, 2), (1, 2, 0), (2, 0, 0)]
    )
    def test_d_without_rows_or_columns_exit_3(self, tmp_path, capsys, states, outputs, inputs):
        # consistent shapes, but no output or no input to evaluate
        rng = np.random.default_rng(states + 3 * outputs + 9 * inputs)
        shapes = {"a": (states, states), "b": (states, inputs), "c": (outputs, states),
                  "d": (outputs, inputs)}
        doc = {"n": outputs, "state_dim": states}
        doc.update((k, wio._block_to_dict(rng.standard_normal(s) + 0j)) for k, s in shapes.items())
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError, match="block 'd'"):
            wio.load_realization(path)
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"],
                     ["eval", str(path), "--circle", "8"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "block 'd'" in captured.err

    @pytest.mark.parametrize("outputs, inputs", [(1, 2), (2, 1), (3, 2)])
    def test_non_square_d_verify_exit_3(self, tmp_path, capsys, outputs, inputs):
        # a consistent file that eval reads; verify's checks need square values
        rng = np.random.default_rng(3 * outputs + inputs)
        shapes = {"a": (2, 2), "b": (2, inputs), "c": (outputs, 2), "d": (outputs, inputs)}
        doc = {"n": outputs, "state_dim": 2}
        doc.update((k, wio._block_to_dict(0.3 * rng.standard_normal(s) + 0j))
                   for k, s in shapes.items())
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "block 'd'" in captured.err
        assert f"{outputs}x{inputs}" in captured.err
        for argv in (["eval", str(path), "--z", "1,0"], ["eval", str(path), "--circle", "8"]):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""

    def test_one_band_verify_exit_3(self, tmp_path, capsys):
        # a lossless scalar all-pass: every check would pass, but a filter
        # bank has at least two bands; eval still reads the file
        s = np.sqrt(0.75)
        path = tmp_path / "one.json"
        wio.save_realization(Realization(a=[[0.5]], b=[[s]], c=[[s]], d=[[-0.5]]), path)
        assert main(["verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "block 'd'" in captured.err
        assert "1x1" in captured.err
        assert main(["eval", str(path), "--z", "1,0"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "field, value, named",
        [("state_dim", 99, "state_dim=99"), ("n", 99, "n=99"), ("n", 1, "n=1"),
         ("n", "two", "field 'n' must be an integer"), ("n", None, "'n'")],
        ids=["state_dim", "n-wrong", "n-short", "n-string", "n-missing"],
    )
    def test_n_and_state_dim_checked(self, tmp_path, capsys, field, value, named):
        doc = wio.realization_to_dict(realize_wavelet(sample_parameters(4, 2, 2, 0.5)))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError, match=re.escape(named)):
            wio.load_realization(path)
        for argv in (["verify", str(path)], ["eval", str(path), "--z", "1,0"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and named in captured.err


class TestLoaders:
    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3"])
    @pytest.mark.parametrize("load", ["load_parameters", "load_realization", "load_filter"])
    def test_non_object_raises_format_error(self, tmp_path, load, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="expected a JSON object"):
            getattr(wio, load)(path)

    def test_load_filter_tells_the_kinds_apart(self, tmp_path):
        p = sample_parameters(2, 3, 1, 0.9)
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        wio.save_parameters(p, params)
        wio.save_realization(realize_wavelet(p), real)
        loaded = wio.load_filter(params)
        assert isinstance(loaded, FilterParameters)
        assert [f.v.tolist() for f in loaded.factors] == [f.v.tolist() for f in p.factors]
        loaded = wio.load_filter(real)
        assert isinstance(loaded, Realization)
        assert np.array_equal(loaded.a, wio.load_realization(real).a)
        neither = tmp_path / "n.json"
        neither.write_text('{"n": 3}')
        with pytest.raises(FormatError, match="neither a parameter nor a realization"):
            wio.load_filter(neither)

    @pytest.mark.parametrize("command", ["verify", "eval", "realize"])
    def test_non_object_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_text("[1, 2]")
        argv = [command, str(path)] + {
            "verify": [], "eval": ["--z", "1,0"], "realize": ["-o", str(tmp_path / "r.json")]
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


class TestReports:
    def test_report_embeds_reproduction_data(self):
        checks = [CheckReport("demo", 1e-12, 1e-9, sample_count=64, seed=7)]
        doc = wio.report_to_dict(checks, seed=7, points=64, tol=1e-9)
        assert doc["passed"] is True
        assert doc["seed"] == 7 and doc["points"] == 64 and doc["tolerance"] == 1e-9
        entry = doc["checks"][0]
        assert entry["passed"] == (entry["max_residual"] <= entry["tolerance"])

    def test_report_flags_failure(self):
        checks = [CheckReport("demo", 0.5, 1e-9, sample_count=64, seed=7)]
        assert wio.report_to_dict(checks, 7, 64, 1e-9)["passed"] is False

    def test_numpy_residual_report_serializes(self):
        checks = [
            CheckReport("demo", np.float64(1e-12), 1e-9, sample_count=64, seed=7),
            CheckReport("worse", np.float64(np.nan), 1e-9, sample_count=64, seed=7),
        ]
        assert [type(c.passed) for c in checks] == [bool, bool]
        stream = io.StringIO()
        wio.write_json(wio.report_to_dict(checks, 7, 64, 1e-9), stream)
        doc = json.loads(stream.getvalue())
        assert doc["passed"] is False
        assert [c["passed"] for c in doc["checks"]] == [True, False]


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

    @pytest.mark.parametrize("char", ["\x85", "\x0c"])
    def test_line_loop_character_after_the_first_piece(self, tmp_path, monkeypatch, char):
        # the screen reads 64-character pieces here; the character sits in
        # the third, as a line break between samples and then inside a cell
        monkeypatch.setattr(wio, "_SCREEN_CHARS", 64)
        rows = "".join(f"{k}.25,{k}.5\n" for k in range(20))
        path = tmp_path / "x.csv"
        path.write_text(rows + f"1,2{char}3,4\n")
        expected = [complex(k + 0.25, k + 0.5) for k in range(20)] + [1 + 2j, 3 + 4j]
        assert wio.load_signal(path).tolist() == expected
        path.write_text(rows + f"3{char},4\n")
        with pytest.raises(InvariantError, match=re.escape(f"{path}:21:")):
            wio.load_signal(path)

    def test_blank_file_of_several_pieces_is_empty_signal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wio, "_SCREEN_CHARS", 64)
        path = tmp_path / "x.csv"
        path.write_text(" \n\t\n" * 100)
        x = wio.load_signal(path)
        assert x.shape == (0,) and x.dtype == complex
        # a number after the blank pieces still reaches numpy's reader
        path.write_text(" \n\t\n" * 100 + "1,2\n")
        assert wio.load_signal(path).tolist() == [1 + 2j]

    def test_decode_error_names_its_offset_in_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wio, "_SCREEN_CHARS", 64)
        path = tmp_path / "x.csv"
        path.write_bytes(b"1,2\n" * 50 + b"\xff,1\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: not a text file")) as info:
            wio.load_signal(path)
        assert "position 200" in str(info.value)

    def test_load_holds_less_than_the_text(self, tmp_path):
        # 2**17 rows: the text is about 5 MB; loading holds the result and
        # numpy's growing copy of it, never the whole text as one string
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1 << 17) + 1j * rng.standard_normal(1 << 17)
        path = tmp_path / "x.csv"
        wio.save_signal(x, path)
        tracemalloc.start()
        try:
            back = wio.load_signal(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, x)
        assert peak < path.stat().st_size

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


def _per_cell_eval_csv(rows):
    """The eval CSV as earlier versions formatted it, one cell at a time."""
    lines = []
    for z, value in rows:
        cells = [repr(complex(z).real), repr(complex(z).imag)]
        for c in np.asarray(value, dtype=complex).reshape(-1):
            cells.append(repr(float(c.real)))
            cells.append(repr(float(c.imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _traced_peak(fn) -> int:
    """The peak, in bytes, of the memory that ``fn`` allocates, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvWriters:
    SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300]

    @pytest.mark.parametrize(
        "blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 0), (3, 7)]
    )
    def test_signal_matches_one_shot_format(self, tmp_path, blocks, extra):
        block = wio._CSV_BLOCK_CELLS // 2  # rows of a signal per block
        length = blocks * block + extra
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        special = np.column_stack([self.SPECIAL, self.SPECIAL[::-1]]).view(complex)[:, 0]
        for edge in range(block, length, block):
            # special values on both sides of each block boundary
            around = x[edge - 3 : edge + 3]
            around[:] = special[: around.size]
        path = tmp_path / "x.csv"
        wio.save_signal(x, path)
        expected = ("%r,%r\n" * x.size) % tuple(x.view(float).tolist())
        assert path.read_text() == (expected or "\n")

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("points", [0, 1, 1000])
    def test_eval_csv_matches_per_cell_formatter(self, tmp_path, n, points):
        rng = np.random.default_rng(points)
        zs = np.exp(2j * np.pi * np.arange(points) / max(points, 1))
        values = rng.standard_normal((points, n, n)) + 1j * rng.standard_normal((points, n, n))
        # special values in the last row of the first block and the first of the next
        edge = wio._CSV_BLOCK_CELLS // (2 + 2 * n * n)
        around = values.reshape(-1)[edge * n * n - 3 : edge * n * n + 3]
        around[:] = self.SPECIAL[: around.size]
        rows = list(zip(zs, values))
        expected = _per_cell_eval_csv(rows)
        stream = io.StringIO()
        wio.write_eval_csv(zs, values, stream)
        assert stream.getvalue() == expected
        path = tmp_path / "e.csv"
        wio.save_eval_csv(zs, values, path)
        assert path.read_text() == expected

    def test_eval_csv_needs_a_value_per_point(self, tmp_path):
        with pytest.raises(DimensionError, match="2 points"):
            wio.save_eval_csv(np.ones(2), np.ones((3, 2, 2)), tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("n", [2, 4])
    def test_eval_stdout_matches_per_cell_formatter(self, tmp_path, capsys, n):
        p = sample_parameters(7, n, 2, 0.9)
        params = tmp_path / "p.json"
        wio.save_parameters(p, params)
        points = 1000  # several blocks at either width
        assert main(["eval", str(params), "--circle", str(points)]) == 0
        zs = np.exp(2j * np.pi * np.arange(points) / points)
        expected = _per_cell_eval_csv(zip(zs, wavelet_eval(p, zs)))
        assert capsys.readouterr().out == expected

    def test_signal_writer_memory_is_one_block(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1 << 17) + 1j * rng.standard_normal(1 << 17)
        path = tmp_path / "x.csv"
        assert _traced_peak(lambda: wio.save_signal(x, path)) < 1 << 20
        assert path.stat().st_size > 4 << 20

    def test_eval_writer_memory_is_one_block(self, tmp_path):
        rng = np.random.default_rng(0)
        points = 1 << 14
        zs = np.exp(2j * np.pi * np.arange(points) / points)
        values = rng.standard_normal((points, 4, 4)) + 1j * rng.standard_normal((points, 4, 4))
        path = tmp_path / "e.csv"
        assert _traced_peak(lambda: wio.save_eval_csv(zs, values, path)) < 1 << 20
        assert path.stat().st_size > 8 << 20


def _canonical(doc) -> str:
    """The text of every JSON file wfk writes: indented, keys sorted, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _extreme_realization():
    """A (4, 8, 0.9) cascade with -0.0, the smallest subnormal and the largest
    float among the entries of ``a``, and an all-zero ``b``."""
    r = realize_wavelet(sample_parameters(1, 4, 8, 0.9))
    a = np.array(r.a)
    a[-1, 0] = complex(-0.0, 5e-324)
    a[-1, 1] = complex(1.7976931348623157e308, -0.0)
    return Realization(a=a, b=np.zeros_like(r.b), c=r.c, d=r.d)


def _unsafe_lists():
    """Long lists that are not plain finite numbers, which json writes itself."""
    return {
        "inf": [0.5] * 9 + [np.inf],
        "nan": [[0.5, np.nan]] * 9,
        "overflowing_sum": [1.7976931348623157e308] * 9,
        "bools": [True] * 9,
        "nones": [None] * 9,
        "numpy_floats": [np.float64(0.1)] * 9,
        "mixed": [1, 2.5] * 5,
        "int_pairs": [[1, 2]] * 9,
        "triples": [[0.5, 0.5, 0.5]] * 9,
        "nested": [[[0.25, -0.0]] * 9, {"k": list(range(9))}, "s\u00e9\n"],
        "int_keys": {1: list(range(9))},
        "empty": [[], {}],
    }


class TestJsonWriter:
    """Every JSON document wfk writes is ``json.dumps(indent=2, sort_keys=True)``
    and a newline, byte for byte, with its long lists of numbers written in blocks."""

    DOCS = {
        "sparse_realization": lambda: wio.realization_to_dict(
            realize_wavelet(sample_parameters(0, 8, 16, 0.99))
        ),
        "dense_realization": lambda: dense_document(
            realize_wavelet(sample_parameters(0, 4, 8, 0.9))
        ),
        "extreme_realization": lambda: wio.realization_to_dict(_extreme_realization()),
        "parameters_m0": lambda: wio.parameters_to_dict(
            sample_parameters(0, 3, 0, 0.5), sample_box(0, 3, 0, 0.5)
        ),
        "parameters": lambda: wio.parameters_to_dict(sample_parameters(0, 8, 16, 0.99)),
        "parameters_with_box": lambda: wio.parameters_to_dict(
            box_to_params(sample_box(0, 8, 16, 0.99)), sample_box(0, 8, 16, 0.99)
        ),
        "report": lambda: {
            **wio.report_to_dict(
                [
                    CheckReport("paraunitary", 1e-15, 1e-9, sample_count=8, seed=0, argmax_z=1j),
                    CheckReport("stein_blocks", np.inf, 1e-9, sample_count=8, seed=0),
                ],
                seed=0, points=8, tol=1e-9,
            ),
            "stein": None,
        },
        "sidecar": lambda: {
            "delay": 3, "bands": 2, "signal_length": 48, "reconstruction_error": None
        },
        "unsafe_lists": _unsafe_lists,
        "placeholder_lookalikes": lambda: {
            # strings that read as the writer's stand-ins for its long lists
            "\x000": "\x000",
            "note": "\x001",
            "box": [0.5] * 8,
            "index": list(range(8)),
        },
        "blocks": lambda: {
            # more numbers than one block holds, with extremes at its edges
            "entries": [[float(k), -0.0 if k % 2 else 5e-324] for k in range(5000)],
            "index": list(range(wio._CSV_BLOCK_CELLS + 1)),
            "box": [0.1 * k for k in range(wio._CSV_BLOCK_CELLS)],
        },
    }

    @pytest.mark.parametrize("name", sorted(DOCS))
    def test_bytes_are_the_canonical_json(self, tmp_path, name):
        doc = self.DOCS[name]()
        stream = io.StringIO()
        wio.write_json(doc, stream)
        assert stream.getvalue() == _canonical(doc)
        path = tmp_path / "doc.json"
        wio.save_json(doc, path)
        assert path.read_bytes() == _canonical(doc).encode()

    def test_what_json_rejects_raises_as_json_does(self):
        with pytest.raises(TypeError, match="int64"):
            wio.write_json({"index": [np.int64(3)] * 9}, io.StringIO())

    def test_long_lists_go_out_in_blocks(self):
        doc = self.DOCS["blocks"]()
        stream = io.StringIO()
        writes = []
        stream.write = lambda text: writes.append(text) or len(text)
        wio.write_json(doc, stream)
        assert "".join(writes) == _canonical(doc)
        assert max(map(len, writes)) < len(_canonical(doc)) / 2

    def test_verify_stdout_and_output_file_are_the_same_bytes(self, tmp_path, capsys):
        unstable = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        for k, r in enumerate((realize_wavelet(sample_parameters(0, 2, 3, 0.0)), unstable)):
            path, report = tmp_path / f"r{k}.json", tmp_path / f"report{k}.json"
            wio.save_realization(r, path)
            assert main(["verify", str(path), "-o", str(report)]) == k
            out = capsys.readouterr().out
            assert report.read_text() == out == _canonical(json.loads(out))
        assert "Infinity" in out and '"argmax_z": null' in out

    def test_files_of_the_cli_are_canonical(self, tmp_path):
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        # rho = 0: analyze and synthesize take FIR filters only
        assert main(["gen", "--n", "4", "--index", "8", "--seed", "1", "-o", str(params)]) == 0
        assert main(["realize", str(params), "-o", str(real)]) == 0
        rng = np.random.default_rng(3)
        sig = tmp_path / "x.csv"
        wio.save_signal(rng.standard_normal(64) + 1j * rng.standard_normal(64), sig)
        bands, rec = tmp_path / "bands", tmp_path / "y.csv"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands)]) == 0
        assert main(["synthesize", str(params), "--bands", str(bands), "--out", str(rec),
                     "--reference", str(sig)]) == 0
        for path in (params, real, tmp_path / "y.csv.json"):
            text = path.read_text()
            assert text == _canonical(json.loads(text))

    def test_north_star_save_load_save_is_byte_identical(self, tmp_path):
        r = realize_wavelet(box_to_params(sample_box(0, 16, 32, 0.999)))
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        wio.save_realization(r, first)
        wio.save_realization(wio.load_realization(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text() == _canonical(wio.realization_to_dict(r))

    def test_save_realization_peak_is_no_higher_than_one_string(self, tmp_path):
        # earlier versions wrote the file as one json.dumps string
        r = realize_wavelet(sample_parameters(0, 16, 32, 0.999))
        path = tmp_path / "r.json"
        before = _traced_peak(lambda: path.write_text(_canonical(wio.realization_to_dict(r))))
        assert _traced_peak(lambda: wio.save_realization(r, path)) <= before


class TestUnwritableOutput:
    """An output under a regular file exits 2 with one line naming the path."""

    @pytest.fixture
    def files(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(10, 2, 2, 0.0), params)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.arange(16) * (1 - 0.5j), sig)
        bands = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands)]) == 0
        (tmp_path / "f").write_text("a regular file\n")
        return params, sig, bands, tmp_path / "f" / "x"

    @pytest.mark.parametrize(
        "command", ["gen", "realize", "verify", "eval", "analyze", "synthesize"]
    )
    def test_exit_2(self, files, capsys, command):
        params, sig, bands, out = files
        argv = {
            "gen": ["gen", "--n", "2", "--index", "1", "-o", str(out)],
            "realize": ["realize", str(params), "-o", str(out)],
            "verify": ["verify", str(params), "--points", "8", "-o", str(out)],
            "eval": ["eval", str(params), "--circle", "4", "-o", str(out)],
            "analyze": ["analyze", str(params), "--signal", str(sig), "--out", str(out)],
            "synthesize": [
                "synthesize", str(params), "--bands", str(bands), "--out", str(out),
                "--reference", str(sig),
            ],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{out}: cannot write" in err

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: wio.save_signal(np.ones(3), path),
            lambda path: wio.save_eval_csv(np.ones(1), np.ones((1, 2, 2)), path),
            lambda path: wio.save_parameters(sample_parameters(1, 2, 1, 0.9), path),
            lambda path: wio.save_realization(realize_wavelet(sample_parameters(1, 2, 1, 0.9)), path),
            lambda path: wio.make_output_dir(path),
        ],
        ids=["save_signal", "save_eval_csv", "save_parameters", "save_realization", "mkdir"],
    )
    def test_writers_raise_format_error(self, tmp_path, write):
        (tmp_path / "f").write_text("")
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "f" / "x"))):
            write(tmp_path / "f" / "x")


def _capped_cli(argv):
    """Run ``python -m wfk.cli`` with its address space capped at 3 GiB, so
    an allocation past the cap is refused on any host."""
    resource = pytest.importorskip("resource")
    limit = 3 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wfk.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


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

    def test_box_object_input(self, tmp_path):
        # a {"box": [...]} object, such as gen's own output, reads as its flat array
        coords = [np.pi / 2, 0.0, 0.0, 0.0]
        flat, obj = tmp_path / "flat.json", tmp_path / "obj.json"
        flat.write_text(json.dumps(coords))
        obj.write_text(json.dumps({"box": coords}))
        outs = [tmp_path / f"p{k}.json" for k in range(3)]
        argv = ["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box"]
        for box, out in zip((flat, obj, outs[0]), outs):
            assert main(argv + [str(box), "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize(
        "doc", [{"coords": [0.0] * 4}, {"box": {"0": 0.0}}, 3, "box", None],
        ids=["no-box-key", "box-object", "number", "string", "null"],
    )
    def test_box_without_list_exit_3(self, tmp_path, capsys, doc):
        box, out = tmp_path / "box.json", tmp_path / "p.json"
        box.write_text(json.dumps(doc))
        argv = ["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box", str(box)]
        assert main(argv + ["-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "box.json" in err and "flat array" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--n", "1"), ("--n", "-3"), ("--index", "-1")],
        ids=["n-1", "n-negative", "index-negative"],
    )
    def test_bad_size_names_flag(self, tmp_path, capsys, flag, value):
        sizes = {"--n": "2", "--index": "1", flag: value}
        out = tmp_path / "p.json"
        argv = ["gen", "--n", sizes["--n"], "--index", sizes["--index"], "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be >= ")
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

    def test_env_seed_read_on_each_call(self, tmp_path, monkeypatch):
        outs = {}
        for seed in ("31", "32"):
            monkeypatch.setenv("WFK_SEED", seed)
            outs[seed] = tmp_path / f"env{seed}.json"
            main(["gen", "--n", "2", "--index", "2", "--rho", "0.5", "-o", str(outs[seed])])
        monkeypatch.delenv("WFK_SEED")
        for seed, out in outs.items():
            explicit = tmp_path / f"explicit{seed}.json"
            argv = ["gen", "--n", "2", "--index", "2", "--rho", "0.5", "--seed", seed]
            main(argv + ["-o", str(explicit)])
            assert out.read_bytes() == explicit.read_bytes()
        assert outs["31"].read_bytes() != outs["32"].read_bytes()

    def test_bad_env_seed_ignored_where_no_seed_is_needed(self, tmp_path, monkeypatch, capsys):
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.5), params)
        monkeypatch.setenv("WFK_SEED", "abc")
        assert main(["realize", str(params), "-o", str(real)]) == 0
        assert main(["verify", str(params), "--seed", "3", "--points", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_env_seed_not_integer_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WFK_SEED", "abc")
        code = main(["gen", "--n", "2", "--index", "1", "-o", str(tmp_path / "p.json")])
        assert code == 2
        assert "WFK_SEED" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command", ["gen", "verify"])
    @pytest.mark.parametrize("source", ["--seed", "WFK_SEED"])
    def test_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys, command, source):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.5), params)
        out = tmp_path / "out.json"
        argv = {
            "gen": ["gen", "--n", "2", "--index", "1", "-o", str(out)],
            "verify": ["verify", str(params), "--points", "16", "-o", str(out)],
        }[command]
        if source == "--seed":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("WFK_SEED", "-2")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and source in captured.err
        assert not out.exists()


    def test_impossible_size_exit_2(self, tmp_path, capsys):
        # a 10**10 x 2*10**10 box: numpy rejects the shape before it allocates
        out = tmp_path / "p.json"
        big = str(10**10)
        assert main(["gen", "--n", big, "--index", big, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "--n" in captured.err and "--index" in captured.err
        assert not out.exists()

    def test_box_too_large_to_allocate_exit_2(self, tmp_path):
        # 10**9 rows of 4 coordinates, 32 GB
        out = tmp_path / "p.json"
        proc = _capped_cli(["gen", "--n", "2", "--index", str(10**9), "-o", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "--n" in proc.stderr and "--index" in proc.stderr
        assert not out.exists()


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

    def test_filter_too_large_to_allocate_exit_3(self, tmp_path):
        # 1,999,000 states, a 58 TiB state matrix
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2000, rho=0.0, factors=()), params)
        out = tmp_path / "r.json"
        proc = _capped_cli(["realize", str(params), "-o", str(out)])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "1999000 states" in proc.stderr and "too large" in proc.stderr
        assert not out.exists()

    def test_filter_of_impossible_size_exit_3(self, tmp_path, capsys):
        # 5e13 states: numpy rejects the shape before it allocates anything
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=10**7, rho=0.0, factors=()), params)
        assert main(["realize", str(params), "-o", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "49999995000000 states" in err


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

    @pytest.mark.parametrize(
        "n",
        [
            16,
            20,
            pytest.param(
                24,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "the closed-form H_j has a 1-norm condition near 5e12 at n = 24, so "
                        "the block candidate fails H > 1e-12 ||H||_1 I and the dense series "
                        "fails minimality"
                    ),
                ),
            ),
        ],
    )
    def test_one_factor_params_pass_up_to_twenty_bands(self, tmp_path, capsys, n):
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n, 1.0, (Factor(np.eye(n)[0], 0.5),)), params)
        code = main(["verify", str(params)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["passed"] and doc["stein"]["method"] == "block"

    @pytest.mark.parametrize(
        "entry, infinite", [(1e200, {"symmetry", "paraunitary"}), (1e100, {"paraunitary"})]
    )
    def test_overflowing_circle_residual_reads_infinity(self, tmp_path, capsys, entry, infinite):
        # finite values whose residuals overflow: inf, not NaN, and no warning
        r = realize_wavelet(sample_parameters(1, 4, 3, 0.9))
        a = np.array(r.a)
        a[0, 1] = entry
        path = tmp_path / "r.json"
        wio.save_realization(Realization(a=a, b=r.b, c=r.c, d=r.d), path)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and "NaN" not in captured.out
        circle = {c["name"]: c for c in json.loads(captured.out)["checks"][:2]}
        assert {k for k, c in circle.items() if c["max_residual"] == float("inf")} == infinite
        assert all(c["argmax_z"] is not None for c in circle.values())

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

    def test_overflowing_state_matrix_fails_without_warning(self, tmp_path, capsys):
        # a finite but huge eigenvalue: the Stein series overflows, which is
        # divergence, not a malformed file
        r = realize_wavelet(sample_parameters(11, 2, 1, 0.5))
        a = np.array(r.a)
        a[1, 1] = 1e308
        path = tmp_path / "r.json"
        wio.save_realization(Realization(a=a, b=r.b, c=r.c, d=r.d), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(path), "--points", "8"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"] is None
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["stein_blocks"]["max_residual"] == float("inf")

    @pytest.mark.parametrize("gap", [1e-3, 1e-7, 1e-10, 1e-13])
    @pytest.mark.parametrize("n, m", [(4, 8), (8, 16), (12, 16), (16, 32)])
    def test_poles_near_the_circle_certify_on_the_block_path(self, tmp_path, capsys, n, m, gap):
        # every |alpha| moved to 1 - gap with its phase kept: the Stein
        # operator's eigenvalues 1 - |lambda|^2 go to 0, and a valid filter
        # must still pass while B * 1.01 fails
        drawn = sample_parameters(3, n, m, 1.0)
        factors = tuple(Factor(f.v, (1.0 - gap) * f.alpha / abs(f.alpha)) for f in drawn.factors)
        params = FilterParameters(n=n, rho=drawn.rho, factors=factors)
        real = realize_wavelet(params)
        scaled = Realization(a=real.a, b=1.01 * real.b, c=real.c, d=real.d)
        for name, target, expected in (
            ("params", params, 0),
            ("realization", real, 0),
            ("scaled", scaled, 1),
        ):
            path = tmp_path / f"{name}.json"
            save = wio.save_parameters if name == "params" else wio.save_realization
            save(target, path)
            assert main(["verify", str(path)]) == expected, name
            doc = json.loads(capsys.readouterr().out)
            assert doc["stein"]["method"] == "block", name
            checks = {c["name"]: c["passed"] for c in doc["checks"]}
            assert checks["stein_blocks"] == (expected == 0), name

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
            assert stein["method"] == "block"
            blocks = next(c for c in doc["checks"] if c["name"] == "stein_blocks")
            scale = max(1.0, stein["norm_h"])
            assert blocks["max_residual"] == stein["residual_abs"] / scale

    def test_wall_ms_is_the_time_since_the_previous_check(self, tmp_path, capsys, monkeypatch):
        # a clock that advances 0.25 s per read: one read when verify starts
        # and one as each check is finished
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: 0.25 * next(ticks))
        p = sample_parameters(3, 3, 2, 0.9)
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        wio.save_parameters(p, params)
        wio.save_realization(realize_wavelet(p), real)
        tail = ["degree", "stein_blocks", "stein_hermiticity", "minimality"]
        for path, names in (
            (params, ["symmetry", "paraunitary", "frequency_pr", *tail]),
            (real, ["symmetry", "paraunitary", *tail]),
        ):
            assert main(["verify", str(path), "--points", "32"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert [(c["name"], c["wall_ms"]) for c in doc["checks"]] == [
                (name, 250.0) for name in names
            ]

    def test_report_locates_worst_point_and_block(self, tmp_path, capsys):
        from wfk import Realization

        r = realize_wavelet(sample_parameters(2, 4, 8, 0.9))
        scaled = tmp_path / "scaled.json"
        wio.save_realization(Realization(a=r.a, b=1.01 * r.b, c=r.c, d=r.d), scaled)
        assert main(["verify", str(scaled), "--points", "32"]) == 1
        doc = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c for c in doc["checks"]}
        for name in ("symmetry", "paraunitary"):
            re_im = checks[name]["argmax_z"]
            assert len(re_im) == 2 and abs(abs(complex(*re_im)) - 1.0) <= 1e-12
        assert checks["paraunitary"]["resampled"] == checks["symmetry"]["resampled"]
        for name in ("degree", "stein_blocks", "stein_hermiticity", "minimality"):
            assert checks[name]["argmax_z"] is None
        assert isinstance(doc["stein"]["worst_block"], int)
        assert 0 <= doc["stein"]["worst_block"] < 8

    def test_passing_report_names_no_worst_block(self, tmp_path, capsys):
        # on a file that passes stein_blocks the largest residual block is
        # rounding noise, so the report names none
        r = realize_wavelet(sample_parameters(2, 4, 8, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        assert main(["verify", str(path), "--points", "32"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"]["method"] == "block"
        assert doc["stein"]["worst_block"] is None

    def test_report_stamps_environment(self, tmp_path, capsys, monkeypatch):
        import platform

        from wfk import cli

        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.9), params)
        real = tmp_path / "r.json"
        wio.save_realization(realize_wavelet(sample_parameters(3, 2, 1, 0.9)), real)
        cli._environment.cache_clear()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        stamps = []
        for path in (params, real):
            assert main(["verify", str(path), "--points", "16"]) == 0
            stamps.append(json.loads(capsys.readouterr().out)["environment"])
        assert stamps[0] == stamps[1]
        env = stamps[0]
        assert set(env) == {"python", "numpy", "nproc", "cpus_usable", "blas", "blas_threads"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["nproc"] >= env["cpus_usable"] >= 1
        assert isinstance(env["blas"], str) and env["blas"]
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None
        # built once: a later change of the environment does not show
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["verify", str(params), "--points", "16"]) == 0
        assert json.loads(capsys.readouterr().out)["environment"] == env
        assert cli._environment.cache_info().misses == 1

    @pytest.mark.parametrize("error", [TypeError, KeyError])
    def test_environment_without_blas_config(self, monkeypatch, error):
        # numpy before 1.25 has no show_config(mode="dicts")
        from wfk import cli

        def show_config(*args, **kwargs):
            raise error("mode")

        monkeypatch.setattr(np, "show_config", show_config)
        cli._environment.cache_clear()
        try:
            assert cli._environment()["blas"] == "unknown"
        finally:
            cli._environment.cache_clear()

    def test_stein_series_that_never_settles_reports_null(self, tmp_path, capsys):
        # eigenvalues +-i: the series hits its iteration cap, a check failure
        path = tmp_path / "r.json"
        wio.save_realization(rotation_on_the_circle(), path)
        assert main(["verify", str(path), "--points", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["stein"] is None

    @pytest.mark.parametrize("make", [overflowing_values, huge_superdiagonal])
    def test_no_drawable_circle_point_is_a_singularity(self, tmp_path, capsys, make):
        # every point overflows, so every draw and redraw hits a pole; the
        # huge superdiagonal's values overflow as its closed-form Stein
        # candidate does, so verify stops before any certificate
        path = tmp_path / "r.json"
        wio.save_realization(make(), path)
        assert main(["verify", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric singularity: exhausted retries while avoiding poles on the circle\n"
        )
        # eval takes the roots of unity as they are and names the first
        assert main(["eval", str(path), "--circle", "8"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric singularity: z = (1+0j) is a pole of the realization\n"

    def test_divergent_stein_series_reports_null(self, tmp_path, capsys):
        from wfk import Realization

        unstable = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        path = tmp_path / "r.json"
        wio.save_realization(unstable, path)
        assert main(["verify", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"] is None
        assert "wall_ms" in doc["checks"][0]

    def test_pole_on_the_circle_of_a_north_star_cascade(self, tmp_path, capsys, monkeypatch):
        # a_00 = 1 is the first sampled point: the sweep names that pole
        # without evaluating points alone, and the Stein series is not summed
        from wfk import Realization, realization

        calls = []
        condensed = realization._condensed_point
        monkeypatch.setattr(
            realization, "_condensed_point", lambda r, z: calls.append(z) or condensed(r, z)
        )
        r = realize_wavelet(sample_parameters(0, 16, 32, 0.999))
        a = np.array(r.a)
        a[0, 0] = 1.0
        path = tmp_path / "r.json"
        wio.save_realization(Realization(a=a, b=r.b, c=r.c, d=r.d), path)
        assert main(["verify", str(path), "--seed", "0"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"] is None
        checks = {c["name"]: c for c in doc["checks"]}
        assert checks["symmetry"]["resampled"] == 1 and not checks["stein_blocks"]["passed"]
        assert calls == []

    def test_north_star_rung_verdicts(self, tmp_path, capsys):
        # (12, 16, 0.999): ||H||_1 is about 1.5e3, so the absolute residual
        # exceeds 1e-9 while the relative one is far below it
        params = tmp_path / "p.json"
        argv = ["gen", "--n", "12", "--index", "16", "--rho", "0.999", "--seed", "1"]
        assert main(argv + ["-o", str(params)]) == 0
        p = wio.load_parameters(params)
        r = realize_wavelet(p)
        from wfk import Realization

        real, scaled = tmp_path / "r.json", tmp_path / "scaled.json"
        wio.save_realization(r, real)
        wio.save_realization(Realization(a=r.a, b=1.01 * r.b, c=r.c, d=r.d), scaled)
        for path, code in ((params, 0), (real, 0), (scaled, 1)):
            assert main(["verify", str(path)]) == code
            doc = json.loads(capsys.readouterr().out)
            assert doc["stein"]["method"] == "block"
            failed = {c["name"] for c in doc["checks"] if not c["passed"]}
            if code:
                assert "stein_blocks" in failed and "minimality" not in failed
            else:
                assert doc["stein"]["norm_h"] > 1e3

    def test_sixteen_bands_index_thirty_two_passes(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        argv = ["gen", "--n", "16", "--index", "32", "--rho", "0.999", "--seed", "5"]
        assert main(argv + ["-o", str(params)]) == 0
        assert main(["verify", str(params)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"]["method"] == "block" and doc["stein"]["residual_abs"] > 1e-9

    def test_north_star_verify_memory_is_bounded(self, tmp_path):
        # a (16, 32, 0.999) verify of either file kind, in a child with one
        # BLAS thread, may peak at most 34 MB above a child that only
        # imports wfk.cli: the evaluator's chunks and the certificate's
        # arrays, held once each, measured 27.9-31.0 MB
        if not sys.platform.startswith("linux"):
            pytest.skip("reads ru_maxrss in Linux's kilobytes")
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        argv = ["gen", "--n", "16", "--index", "32", "--rho", "0.999", "--seed", "5"]
        assert main(argv + ["-o", str(params)]) == 0
        assert main(["realize", str(params), "-o", str(real)]) == 0
        base, *peaks = one_thread_peak_mb(
            ["-c", "import wfk.cli"],
            *(["-m", "wfk.cli", "verify", str(path)] for path in (params, real)),
        )
        for path, peak in zip((params, real), peaks):
            above = peak - base
            assert above <= 34, f"verify {path.name}: {above:.1f} MB above {base:.1f} MB"

    def test_hidden_core_realization_fails_minimality(self, tmp_path, capsys):
        from wfk import Realization

        r = realize_wavelet(sample_parameters(3, 4, 8, 0.9))
        n, p = r.outputs, r.state_dim
        a = np.zeros((p + n, p + n), dtype=complex)
        a[:n, :n] = 0.5 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        a[n:, n:] = r.a
        hidden = Realization(
            a=a,
            b=np.vstack([np.zeros((n, r.inputs)), r.b]),
            c=np.hstack([np.zeros((r.outputs, n)), r.c]),
            d=r.d,
        )
        path = tmp_path / "r.json"
        wio.save_realization(hidden, path)
        assert main(["verify", str(path), "--points", "32"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"]["method"] == "dense"
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert failed == {"minimality"}

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

    def test_impossible_point_count_exit_2(self, tmp_path, capsys):
        # 5e13 grid points, 364 TiB: past any address space
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.9), params)
        assert main(["verify", str(params), "--points", str(10**14)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--points" in captured.err

    def test_point_count_too_large_to_allocate_exit_2(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(3, 2, 1, 0.9), params)
        proc = _capped_cli(["verify", str(params), "--points", str(10**9)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "--points" in proc.stderr

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

    def test_negative_point_after_equals(self, tmp_path, capsys):
        # argparse reads "--z -0.5,0.5" as two options; "--z=-0.5,0.5" is
        # the documented form
        p = sample_parameters(7, 4, 2, 0.9)
        params = tmp_path / "p.json"
        wio.save_parameters(p, params)
        assert main(["eval", str(params), "--z=-0.5,0.5"]) == 0
        rows = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", ndmin=2)
        assert rows.shape == (1, 2 + 2 * 16)
        assert rows[0, 0] == -0.5 and rows[0, 1] == 0.5
        value = (rows[0, 2::2] + 1j * rows[0, 3::2]).reshape(4, 4)
        expected = wavelet_eval(p, -0.5 + 0.5j)
        assert np.abs(value - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("z", ["1e200,0", "1e308,1e308"])
    @pytest.mark.parametrize("kind", ["params", "realization"])
    def test_far_point_gives_the_value_at_infinity(self, tmp_path, capsys, kind, z):
        # z**n leaves the float range at |z| = 1e200, and 1/z at
        # 1e308 + 1e308j: each file kind gives the finite value there, the
        # realization's D within rounding, with nothing on stderr
        params, real = tmp_path / "p.json", tmp_path / "r.json"
        assert main(["gen", "--n", "2", "--index", "1", "--seed", "0", "-o", str(params)]) == 0
        assert main(["realize", str(params), "-o", str(real)]) == 0
        assert main(["eval", str(params if kind == "params" else real), f"--z={z}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = np.loadtxt(io.StringIO(captured.out), delimiter=",")
        value = (row[2::2] + 1j * row[3::2]).reshape(2, 2)
        assert np.abs(value - wio.load_realization(real).d).max() <= 1e-14

    def test_pole_exit_4(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(9, 2, 1, 0.9), params)
        assert main(["eval", str(params), "--z", "0,0", "-o", str(tmp_path / "e.csv")]) == 4

    def test_pole_of_realization_exit_4(self, tmp_path, capsys):
        # an FIR cascade's A is nilpotent, so z = 0 is its pole; the one
        # point of --z goes through the array path, which names it
        path = tmp_path / "r.json"
        wio.save_realization(realize_wavelet(sample_parameters(9, 3, 2, 0.0)), path)
        assert main(["eval", str(path), "--z", "0,0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "z = 0j" in captured.err

    @pytest.mark.parametrize("z", ["nan,0", "inf,0", "0,-inf", "1e400,0"])
    @pytest.mark.parametrize("kind", ["parameters", "realization"])
    def test_non_finite_z_exit_2(self, tmp_path, capsys, kind, z):
        p = sample_parameters(9, 2, 1, 0.9)
        path = tmp_path / "f.json"
        if kind == "parameters":
            wio.save_parameters(p, path)
        else:
            wio.save_realization(realize_wavelet(p), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", str(path), "--z", z]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--z" in captured.err


    @pytest.mark.parametrize(
        "argv, named",
        [(["--z", "1"], "--z expects 're,im'"), (["--z", "1,2,3"], "--z expects 're,im'"),
         (["--z", "a,b"], "--z expects numeric"), (["--z", "1,"], "--z expects numeric"),
         (["--circle", "0"], "--circle must be >= 1"),
         (["--circle", "-4"], "--circle must be >= 1")],
        ids=["z-one-number", "z-three-numbers", "z-not-numbers", "z-empty-part",
             "circle-0", "circle-negative"],
    )
    def test_bad_point_names_flag(self, tmp_path, capsys, argv, named):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(7, 2, 1, 0.9), params)
        out = tmp_path / "e.csv"
        assert main(["eval", str(params), *argv, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err
        assert not out.exists()

    def test_impossible_circle_exit_2(self, tmp_path, capsys):
        # 10**14 grid points, 728 TiB: past any address space
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(7, 2, 1, 0.9), params)
        out = tmp_path / "e.csv"
        assert main(["eval", str(params), "--circle", str(10**14), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--circle" in captured.err
        assert not out.exists()

    def test_circle_too_large_to_allocate_exit_2(self, tmp_path):
        params = tmp_path / "p.json"
        wio.save_parameters(sample_parameters(7, 2, 1, 0.9), params)
        proc = _capped_cli(["eval", str(params), "--circle", str(10**9)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "--circle" in proc.stderr


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

    def test_empty_signal_round_trip(self, tmp_path):
        params = self._fir_params(tmp_path)
        sig = tmp_path / "x.csv"
        sig.write_text("")
        bands_dir = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands_dir)]) == 0
        rec = tmp_path / "rec.csv"
        code = main(
            ["synthesize", str(params), "--bands", str(bands_dir), "--out", str(rec),
             "--reference", str(sig)]
        )
        assert code == 0
        assert wio.load_signal(rec).size == 0
        sidecar = json.loads((tmp_path / "rec.csv.json").read_text())
        assert sidecar["signal_length"] == 0
        assert sidecar["reconstruction_error"] == 0.0

    def _bands(self, tmp_path, length):
        params = self._fir_params(tmp_path)
        sig = tmp_path / "x.csv"
        wio.save_signal(np.arange(length) * (0.5 - 0.25j), sig)
        bands = tmp_path / "bands"
        assert main(["analyze", str(params), "--signal", str(sig), "--out", str(bands)]) == 0
        return params, bands

    def test_synthesize_without_reference_writes_null_error(self, tmp_path):
        params, bands = self._bands(tmp_path, 16)
        rec = tmp_path / "rec.csv"
        assert main(["synthesize", str(params), "--bands", str(bands), "--out", str(rec)]) == 0
        text = (tmp_path / "rec.csv.json").read_text()
        sidecar = json.loads(text)
        assert sidecar["reconstruction_error"] is None and sidecar["signal_length"] == 16
        assert '"reconstruction_error": null' in text

    @pytest.mark.parametrize("length", [0, 14, 18])
    def test_reference_of_another_length_exit_2(self, tmp_path, capsys, length):
        params, bands = self._bands(tmp_path, 16)
        ref, rec = tmp_path / "ref.csv", tmp_path / "rec.csv"
        wio.save_signal(np.ones(length), ref)
        argv = ["synthesize", str(params), "--bands", str(bands), "--out", str(rec),
                "--reference", str(ref)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: reference length {length} != reconstruction length 16\n"
        assert not (tmp_path / "rec.csv.json").exists()
        assert not rec.exists()

    @pytest.mark.parametrize("bad", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_reference_exit_3_writes_nothing(self, tmp_path, capsys, bad):
        params, bands = self._bands(tmp_path, 16)
        ref, rec = tmp_path / "ref.csv", tmp_path / "rec.csv"
        lines = (tmp_path / "x.csv").read_text().splitlines()
        lines[5] = bad
        ref.write_text("\n".join(lines) + "\n")
        argv = ["synthesize", str(params), "--bands", str(bands), "--out", str(rec),
                "--reference", str(ref)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(ref) in err and "finite" in err
        assert not rec.exists() and not (tmp_path / "rec.csv.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "synthesize"])
    def test_overflow_exit_3_writes_nothing(self, tmp_path, command):
        # finite samples near the float's limit overflow in the lattice: one
        # stderr line naming the overflow, no RuntimeWarning, no output
        params, out = tmp_path / "p.json", tmp_path / "out"
        assert main(["gen", "--n", "2", "--index", "3", "--seed", "1", "-o", str(params)]) == 0
        if command == "analyze":
            sig = tmp_path / "x.csv"
            sig.write_text("1.7e+308,0.0\n-1.7e+308,0.0\n" * 8)
            argv = ["analyze", str(params), "--signal", str(sig), "--out", str(out)]
        else:
            bands = tmp_path / "bands"
            bands.mkdir()
            (bands / "band_0.csv").write_text("1.7e+308,0.0\n" * 8)
            (bands / "band_1.csv").write_text("-1.7e+308,0.0\n" * 8)
            argv = ["synthesize", str(params), "--bands", str(bands), "--out", str(out)]
        proc = _capped_cli(argv)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "overflowed" in proc.stderr
        assert not out.exists() and not (tmp_path / "out.json").exists()

    def _reference_errors(self, tmp_path, capsys, scale):
        """``reconstruction_error`` against the true and a wrong reference, for
        a 16-sample signal of size ``scale`` through an index-3 filter, with
        the files in a new directory ``tmp_path``."""
        tmp_path.mkdir()
        params, bands = tmp_path / "p.json", tmp_path / "bands"
        assert main(["gen", "--n", "2", "--index", "3", "--seed", "1", "-o", str(params)]) == 0
        k = np.arange(16)
        true, wrong = tmp_path / "x.csv", tmp_path / "wrong.csv"
        wio.save_signal((k % 5 + 1) * scale, true)
        wio.save_signal(-(k % 3 + 1) * scale + 1j * scale, wrong)
        assert main(["analyze", str(params), "--signal", str(true), "--out", str(bands)]) == 0
        errors = []
        for ref in (true, wrong):
            rec = tmp_path / f"rec-{ref.stem}.csv"
            argv = ["synthesize", str(params), "--bands", str(bands), "--out", str(rec),
                    "--reference", str(ref)]
            assert main(argv) == 0
            errors.append(json.loads(Path(f"{rec}.json").read_text())["reconstruction_error"])
        assert capsys.readouterr().err == ""
        return errors

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_reference_error_at_extreme_scales(self, tmp_path, capsys, scale):
        # the squares of 1e200 samples overflow and those of 1e-200 underflow
        # to 0, which read NaN and a false 0.0 on the raw signals
        _, unit_wrong = self._reference_errors(tmp_path / "unit", capsys, 1.0)
        true, wrong = self._reference_errors(tmp_path / "scaled", capsys, scale)
        assert 0.0 <= true <= 1e-12
        assert wrong == pytest.approx(unit_wrong, rel=1e-12) and wrong > 1.0

    def test_missing_reference_exit_2_writes_nothing(self, tmp_path, capsys):
        params, bands = self._bands(tmp_path, 16)
        ref, rec = tmp_path / "absent.csv", tmp_path / "rec.csv"
        argv = ["synthesize", str(params), "--bands", str(bands), "--out", str(rec),
                "--reference", str(ref)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: no such file: {ref}\n"
        assert not rec.exists() and not (tmp_path / "rec.csv.json").exists()

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

    def test_missing_band_file_exit_2(self, tmp_path, capsys):
        params = self._fir_params(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["synthesize", str(params), "--bands", str(empty), "--out", str(tmp_path / "r.csv")]) == 2
        # one band of two absent: one line naming it
        bands = tmp_path / "bands"
        bands.mkdir()
        wio.save_signal(np.ones(4), bands / "band_0.csv")
        capsys.readouterr()
        assert main(["synthesize", str(params), "--bands", str(bands), "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: no such file: {bands / 'band_1.csv'}\n"
