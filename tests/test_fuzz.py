"""Property test: a mutated input file never ends in a traceback.

Valid parameter files, realization files in both block forms, box files
and signal CSVs are mutated a little (a value replaced, removed, inserted
or nudged; characters of a CSV inserted, removed or replaced) and run
through the CLI.  In every property half of the draws also put an extreme
value (``_EXTREMES``: overflowing, subnormal, infinite, NaN, huge
integers) in place of one number of the file.  Every run must end with a
documented exit code, and exits 2 and 3 must print exactly one line to
stderr.  The examples are
derandomized, so the suite is repeatable; raise ``max_examples`` or drop
``derandomize`` to search further.

Mutating one value at a time cannot give a realization file whose block
shapes change together, so one more property draws the state count, the
outputs and the inputs each in 0..3 and fills consistent blocks with
random finite entries.
"""

import contextlib
import io as _io
import json
import sys
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wfk import io as wio
from wfk import params_to_box, realize_wavelet, sample_parameters
from wfk.cli import main

from legacy_format import dense_document

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_KEYS = ("index", "entries", "rows", "cols", "state_dim", "n", "m", "rho",
         "factors", "v", "alpha", "box")
_NEW_KEYS = st.sampled_from(_KEYS) | st.text(max_size=3)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
_EXTREMES = st.sampled_from(
    [-1, 1e308, -1e308, 5e-324, float("inf"), float("nan"), -0.0, 10**7, 10**400, -(10**30)]
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_NEW_KEYS, kids, max_size=3),
    max_leaves=6,
)
# characters that numpy's CSV reader, float() or the line loop treat specially
_CSV_CHARS = st.sampled_from(
    list("0123456789.,-+eE_ \t\n\r") + ["\x0b", "\x1f", "\x85", "\u2028", "nan", "inf", "j"]
)


def _pick(data, doc):
    """A ``(container, key)`` inside ``doc``, chosen one level at a time.

    Each level's keys are equally likely, so a short list such as a block's
    ``index`` is hit as often as a long one such as its ``entries``.
    """
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            return node, key
        node = child


def _numbers(node):
    """Every ``(container, key)`` inside ``node`` that holds a number."""
    found = []
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(child, (dict, list)):
            found += _numbers(child)
        elif type(child) in (int, float):
            found.append((node, key))
    return found


def _mutate_json(data, doc):
    """Put an extreme value in place of one number of ``doc`` (half of the
    mutations of a document that holds numbers), or replace, remove or
    insert one value anywhere inside it.

    A number may instead be nudged by a small integer or swapped for an
    extreme value.
    """
    numbers = _numbers(doc)
    if numbers and data.draw(st.booleans()):
        node, key = data.draw(st.sampled_from(numbers))
        node[key] = data.draw(_EXTREMES)
        return
    node, key = _pick(data, doc)
    action = data.draw(st.sampled_from(["replace", "remove", "insert", "nudge", "extreme"]))
    number = type(node[key]) in (int, float)
    if action == "insert":
        value = data.draw(_VALUES)
        if isinstance(node, dict):
            node[data.draw(_NEW_KEYS)] = value
        else:
            node.insert(data.draw(st.integers(0, len(node))), value)
    elif action == "remove":
        del node[key]
    elif action == "nudge" and number:
        node[key] += data.draw(st.integers(-2, 2))
    elif action == "extreme" and number:
        node[key] = data.draw(_EXTREMES)
    else:
        node[key] = data.draw(_VALUES)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run(argv):
    """Exit code and stderr of ``main(argv)``; a warning prints to stderr, as in the CLI."""
    out, err = _io.StringIO(), _io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        code = main(argv)
    return code, err.getvalue()


def _check(code, err):
    assert code in (0, 1, 2, 3), (code, err)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), err


def _fuzz_document(data, base, path, commands):
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_json(data, doc)
    path.write_text(json.dumps(doc))
    for argv in commands:
        _check(*_run(argv))


_PARAMS = sample_parameters(11, 2, 1, 0.5)
_REALIZATION = realize_wavelet(_PARAMS)


@FUZZ
@given(data=st.data())
def test_mutated_parameter_file(tmp_path, data):
    path = tmp_path / "p.json"
    base = wio.parameters_to_dict(_PARAMS)
    _fuzz_document(data, base, path, [
        ["verify", str(path), "--points", "8"],
        ["eval", str(path), "--z", "0.6,0.8"],
    ])


@FUZZ
@given(data=st.data())
def test_mutated_sparse_realization_file(tmp_path, data):
    path = tmp_path / "r.json"
    base = wio.realization_to_dict(_REALIZATION)
    _fuzz_document(data, base, path, [
        ["verify", str(path), "--points", "8"],
        ["eval", str(path), "--z", "0.6,0.8"],
    ])


@FUZZ
@given(data=st.data())
def test_mutated_dense_realization_file(tmp_path, data):
    path = tmp_path / "r.json"
    base = dense_document(_REALIZATION)
    _fuzz_document(data, base, path, [
        ["verify", str(path), "--points", "8"],
        ["eval", str(path), "--z", "0.6,0.8"],
    ])


@FUZZ
@given(data=st.data())
def test_realization_file_of_any_small_shape(tmp_path, data):
    states, outputs, inputs = (data.draw(st.integers(0, 3)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 10.0]))
    shapes = {"a": (states, states), "b": (states, inputs), "c": (outputs, states),
              "d": (outputs, inputs)}
    blocks = {k: scale * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
              for k, s in shapes.items()}
    if data.draw(st.booleans()):
        blocks["a"] = np.triu(blocks["a"])  # the evaluators' triangular paths
    sparse = data.draw(st.booleans())
    doc = {"n": outputs, "state_dim": states}
    doc.update((k, wio._block_to_dict(m, sparse)) for k, m in blocks.items())
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify", str(path), "--points", "8"], ["eval", str(path), "--z", "0.6,0.8"],
                 ["eval", str(path), "--circle", "4"]):
        code, err = _run(argv)
        _check(code, err)
        if not (outputs and inputs) or (argv[0] == "verify" and outputs != inputs):
            assert code == 3 and "block 'd'" in err, err


@FUZZ
@given(data=st.data())
def test_mutated_box_file(tmp_path, data):
    doc = params_to_box(_PARAMS).coords.reshape(-1).tolist()
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_json(data, doc)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    _check(*_run(["gen", "--n", "2", "--index", "1", "--rho", "0.5", "--box", str(path),
                  "-o", str(tmp_path / "p.json")]))


@FUZZ
@given(data=st.data())
def test_mutated_signal_csv(tmp_path, data):
    params = tmp_path / "p.json"
    wio.save_parameters(sample_parameters(3, 2, 1, 0.0), params)
    signal = tmp_path / "x.csv"
    wio.save_signal(np.arange(8) * (0.5 - 0.25j), signal)
    lines = signal.read_text().split("\n")
    if data.draw(st.booleans()):
        # an extreme value in place of one number, written as Python prints it
        row = data.draw(st.integers(0, len(lines) - 2))
        cells = lines[row].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = str(data.draw(_EXTREMES))
        lines[row] = ",".join(cells)
    chars = list("\n".join(lines))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(chars)))
        action = data.draw(st.sampled_from(["insert", "remove", "replace"]))
        if action == "insert" or at == len(chars):
            chars.insert(at, data.draw(_CSV_CHARS))
        elif action == "remove":
            del chars[at:at + data.draw(st.integers(1, 6))]
        else:
            chars[at] = data.draw(_CSV_CHARS)
    signal.write_text("".join(chars))
    _check(*_run(["analyze", str(params), "--signal", str(signal), "--out", str(tmp_path / "b")]))
