"""Tests for file formats and the command-line interface."""

import io
import json
import os
import re
import subprocess
import sys
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

from legacy_format import dense_document

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
        "field, value",
        [("n", 2.7), ("n", True), ("m", 1.5), ("m", False), ("n", "2")],
        ids=["n-float", "n-bool", "m-float", "m-bool", "n-string"],
    )
    def test_non_integer_field_exit_3(self, tmp_path, capsys, field, value):
        doc = wio.parameters_to_dict(sample_parameters(2, 2, 1, 0.9))
        doc[field] = value
        with pytest.raises(InvariantError, match=f"field '{field}' must be an integer"):
            wio.parameters_from_dict(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["realize", str(path), "-o", str(tmp_path / "r.json")]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"field '{field}'" in err

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

    def test_state_dim_consistency_checked(self, tmp_path):
        r = realize_wavelet(sample_parameters(4, 2, 1, 0.9))
        path = tmp_path / "r.json"
        wio.save_realization(r, path)
        doc = json.loads(path.read_text())
        doc["state_dim"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantError):
            wio.load_realization(path)


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
        # 1,999,000 states, a 58 TiB state matrix; the child's address space
        # is capped at 3 GiB, so the allocation is refused on any host
        resource = pytest.importorskip("resource")
        params = tmp_path / "p.json"
        wio.save_parameters(FilterParameters(n=2000, rho=0.0, factors=()), params)
        limit = 3 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "wfk.cli", "realize", str(params), "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
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

    def test_divergent_stein_series_reports_null(self, tmp_path, capsys):
        from wfk import Realization

        unstable = Realization(a=[[1.5]], b=[[1.0, 0.0]], c=[[1.0], [0.0]], d=np.eye(2))
        path = tmp_path / "r.json"
        wio.save_realization(unstable, path)
        assert main(["verify", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stein"] is None
        assert "wall_ms" in doc["checks"][0]

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
