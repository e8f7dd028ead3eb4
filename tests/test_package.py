"""Tests of the package surface and its runtime dependencies."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wfk
import wfk.io
import wfk.realization
import wfk.signal
from wfk.cli import main
from work_budget import work_entries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CLI_TOUR = re.search(r"^## Quick tour \(CLI\)\n\n```sh\n(.*?)^```", README, re.M | re.S)

PUBLIC_API = [
    "BoxPoint", "CheckReport", "ConvergenceError", "DimensionError", "Factor",
    "FilterParameters", "FirRequiredError", "FormatError", "InvariantError", "PoleError",
    "Realization", "SamplingError", "SteinCertificate", "SubbandSet", "TOL", "WfkError",
    "analyze", "box_to_params",
    "cascade", "circle_checks", "dft_matrix", "elementary_wavelet_eval", "eval_realization",
    "impulse_response", "mcmillan_degree", "params_to_box", "realize_allpass_core",
    "realize_decimated_unitary", "realize_elementary_wavelet", "realize_wavelet",
    "sample_box", "sample_parameters", "stein_certificate", "subband_filters",
    "synthesis_delay", "synthesize", "system_matrix", "unit_circle_points", "wavelet_eval",
]
# Names the package no longer has: the circle checks other than
# circle_checks, the modulation constants, an error that nothing raised, the
# reference operations that the tests keep in tests/reference_ops.py, and
# the subband filter set, whose data the filter's parameters hold.
REMOVED = [
    "ModulationStructure", "SingularMatrixError", "SubbandFilterSet", "adjoint",
    "check_paraunitary", "check_symmetry", "circular_convolve", "cyclic_shift_matrix",
    "decimate", "decimated_unitary_eval", "elementary_unitary_eval", "expand",
    "format_eval_csv", "frequency_pr_check", "modulation_structure",
    "quotient_decimation_check", "simulate", "spectral_radius",
]


def test_public_api_is_pinned():
    assert wfk.__all__ == sorted(set(wfk.__all__))
    assert wfk.__all__ == PUBLIC_API
    for module in (wfk, wfk.filters, wfk.signal, wfk.realization, wfk.io):
        present = [name for name in REMOVED if hasattr(module, name)]
        assert not present, (module.__name__, present)


@pytest.mark.parametrize(
    "make",
    [
        lambda: wfk.Factor(v=[1.0, 0.0], alpha=0.0),
        lambda: wfk.sample_parameters(1, 2, 2, 0.0),
        lambda: wfk.sample_box(1, 2, 2, 0.0),
        lambda: wfk.realize_wavelet(wfk.sample_parameters(1, 2, 2, 0.0)),
        lambda: wfk.stein_certificate(wfk.realize_wavelet(wfk.sample_parameters(1, 2, 2, 0.0))),
        lambda: wfk.SubbandSet(n=2, bands=(np.zeros(4), np.ones(4))),
    ],
    ids=["Factor", "FilterParameters", "BoxPoint", "Realization", "SteinCertificate", "SubbandSet"],
)
def test_records_holding_arrays_compare_by_identity(make):
    # field-wise equality would compare arrays inside a tuple, which raises
    # numpy's ValueError, and field-wise hashing would raise TypeError
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_exports_resolve_and_numpy_is_the_only_dependency():
    for name in wfk.__all__:
        assert getattr(wfk, name) is not None, name
    code = (
        "import sys, wfk, wfk.cli, wfk.io, wfk.signal\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'hypothesis', 'pytest'})\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_block_runs(block):
    # each example runs as a reader would paste it, in a fresh namespace
    code = README_BLOCKS[block]
    exec(compile(code, f"README.md python block {block}", "exec"), {"__name__": "__readme__"})


def test_readme_has_python_blocks():
    assert README_BLOCKS


def test_readme_cli_tour_runs(tmp_path, monkeypatch, capsys):
    # every line of the CLI quick tour, run as `wfk` in a fresh directory
    assert CLI_TOUR, "README has no sh block under 'Quick tour (CLI)'"
    monkeypatch.chdir(tmp_path)
    x = np.random.default_rng(0).standard_normal(64)
    wfk.io.save_signal(x, "input.csv")
    lines = [shlex.split(line, comments=True) for line in CLI_TOUR.group(1).splitlines()]
    commands = [argv for argv in lines if argv]
    assert commands
    for argv in commands:
        assert argv[0] == "wfk", argv
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert json.loads(Path("rebuilt.csv.json").read_text())["reconstruction_error"] <= 1e-12


def _read_names(tree):
    """Every name ``tree`` reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree):
    """The names that the imports of ``tree`` bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def _private_names(tree):
    """The private names that the top level of ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def test_no_unread_imports_or_private_names():
    # a leftover of a removal: an import the module no longer reads, or a
    # private top-level name that nothing in the package reads
    trees = {path.name: ast.parse(path.read_text()) for path in (SRC / "wfk").glob("*.py")}
    read = {name: _read_names(tree) for name, tree in trees.items()}
    everywhere = set().union(*read.values())
    unread = [
        f"{name}: import {bound}"
        for name, tree in trees.items()
        if name != "__init__.py"
        for bound in _imported_names(tree)
        if bound not in read[name]
    ]
    unread += [
        f"{name}: {private}"
        for name, tree in trees.items()
        for private in _private_names(tree)
        if private not in everywhere
    ]
    assert not unread


def _defaulted_parameters(function):
    """``(position, name)`` of each defaulted parameter of ``function``;
    the position is None for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    for position in range(len(positional) - len(args.defaults), len(positional)):
        yield position, positional[position].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call, position, name, bound):
    """Whether ``call`` gives the parameter ``name`` at ``position``, for a
    function that binds ``bound`` leading arguments when called as an attribute."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    given = len(call.args) + (bound if isinstance(call.func, ast.Attribute) else 0)
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (given > position or starred)


def test_every_default_of_a_private_function_is_passed():
    # a default that no call in the package overrides is a setting that
    # only tests use; a private function takes such a value as a constant
    nodes = [node for path in (SRC / "wfk").glob("*.py") for node in ast.walk(ast.parse(path.read_text()))]
    calls = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = node.func
            calls.setdefault(getattr(callee, "id", getattr(callee, "attr", None)), []).append(node)
    unpassed = []
    for node in nodes:
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
            continue
        if node.name.endswith("__"):
            continue
        bound = int(bool(node.args.args) and node.args.args[0].arg in ("self", "cls"))
        unpassed += [
            f"{node.name}: {name}"
            for position, name in _defaulted_parameters(node)
            if not any(_passes(call, position, name, bound) for call in calls.get(node.name, []))
        ]
    assert not unpassed


def _xfail_marks(tree):
    """``(where, reason)`` of each ``pytest.mark.xfail`` in ``tree``: the
    test it decorates or else its line, and its ``reason`` node, None when
    it gives none."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    decorated = {
        id(inner): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        for inner in ast.walk(decorator)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "pytest.mark.xfail":
            call = calls.get(id(node))
            reasons = [k.value for k in call.keywords if k.arg == "reason"] if call else []
            yield decorated.get(id(node), node.lineno), (reasons or [None])[0]


def test_every_xfail_names_the_roadmap_item_that_flips_it():
    # a known wrong verdict is flipped only by the fix its reason names, in
    # a constant part of the reason; the one exemption is the defective 9x9
    # reference table, which no item flips
    unnamed = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for where, reason in _xfail_marks(ast.parse(path.read_text())):
            parts = [] if reason is None else [
                node.value
                for node in ast.walk(reason)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            ]
            if not any("ROADMAP item" in part for part in parts):
                unnamed.append(f"{path.name}::{where}")
    assert unnamed == ["test_acceptance.py::test_criterion_2_reference_mb_transfer"]


# A fragment of each input rule's message: a count or seed, rho, a factor
# vector and a pole.
RULE_MESSAGES = [
    "must be an integer >=", "rho must lie in [0, 1], got",
    "factor vector must have finite entries", "must have unit norm",
    "alpha must be finite", "|alpha| must be < 1",
]


def _raised_strings(node, owner):
    """``(owner, text)`` for each constant string in a ``raise`` under
    ``node``, ``owner`` being the dotted name of the innermost class or
    function around it."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{child.name}"
        if isinstance(child, ast.Raise) and child.exc is not None:
            for part in ast.walk(child.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield inner, part.value
        yield from _raised_strings(child, inner)


def test_each_input_rule_is_raised_from_one_function():
    # a partial copy of a rule at one entry point raises its message from a
    # second function; wfk's flag checks are its usage layer (exit 2, naming
    # the flag) and are not counted
    raisers = {fragment: set() for fragment in RULE_MESSAGES}
    for path in sorted((SRC / "wfk").glob("*.py")):
        if path.name == "cli.py":
            continue
        for owner, text in _raised_strings(ast.parse(path.read_text()), path.stem):
            for fragment, owners in raisers.items():
                if fragment in text:
                    owners.add(owner)
    assert {fragment: owners for fragment, owners in raisers.items() if len(owners) != 1} == {}


def test_work_entries_has_one_home():
    # every blocked loop reads the one budget where it is defined: only
    # filters.py assigns it, and no module binds a copy of it by import
    assigned, imported = set(), set()
    for path in [*(SRC / "wfk").glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in targets}
                if "_WORK_ENTRIES" in names and path.parent.name == "wfk":
                    assigned.add(path.name)
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "_WORK_ENTRIES" for alias in node.names):
                    imported.add(path.name)
    assert assigned == {"filters.py"} and not imported


def _blocked_loop_cuts(tmp_path):
    """How many pieces each blocked loop of the package cuts its work into
    at the budget in force: the polyphase split (n = 3) and the two-band
    windows (n = 2), counted as the panels of ``signal._panels``;
    ``eval_realization``'s point chunks; the CSV and JSON number blocks;
    and the screen pieces of ``load_signal``."""
    panels, chunks, reads = [], [], []
    cut, sweep, real_open = wfk.signal._panels, wfk.realization._sweep, open

    def spy_open(*args, **kwargs):
        stream = real_open(*args, **kwargs)
        read = stream.read
        stream.read = lambda *size: reads.append(size) or read(*size)
        return stream

    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n" * 2**15)
    x = np.random.default_rng(0).standard_normal(3 * 4096)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wfk.signal, "_panels", lambda *a: panels.append(p := cut(*a)) or p)
        mp.setattr(wfk.realization, "_sweep", lambda *a: chunks.append(1) or sweep(*a))
        mp.setattr(wfk.io, "open", spy_open, raising=False)
        wfk.analyze(x, wfk.sample_parameters(1, 3, 2, 0.0))
        wfk.analyze(x[:8192], wfk.sample_parameters(1, 2, 3, 0.0))
        r = wfk.realize_wavelet(wfk.sample_parameters(1, 4, 8, 0.9))
        wfk.eval_realization(r, wfk.unit_circle_points(512, 0))
        wfk.io._screen(path)
    return {
        "polyphase": len(panels[0]),
        "two-band": len(panels[1]),
        "chunks": len(chunks),
        "csv": len(list(wfk.io._csv_blocks(np.zeros((4096, 2))))),
        "json": len(list(wfk.io._number_blocks([0.5] * 8192, 1, 0))),
        "screen": len(reads),
    }


def test_one_patch_of_the_budget_moves_every_blocked_loop(tmp_path):
    # one setting of filters._WORK_ENTRIES, and no other, changes the cuts
    # of every blocked loop: at the default each is one piece (the JSON
    # list adds its closing bracket, the screen its empty last read)
    default = _blocked_loop_cuts(tmp_path)
    with work_entries(1 << 10):
        small = _blocked_loop_cuts(tmp_path)
    assert default == {
        "polyphase": 1, "two-band": 1, "chunks": 1, "csv": 1, "json": 2, "screen": 2
    }
    assert all(small[name] > default[name] for name in default), small
