"""File formats: parameter/realization JSON, verification reports, CSV signals.

Complex numbers are serialized as two-element ``[re, im]`` arrays
everywhere; structured data is JSON, sampled data is CSV.  Loading always
revalidates the domain invariants by rebuilding values through their
constructors.
"""

from __future__ import annotations

import contextlib
import json
import re
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, InvariantError
from .filters import BoxPoint, CheckReport, Factor, FilterParameters
from .realization import Realization


def _read_text(path) -> str:
    """File contents; a missing or unreadable file raises ``FormatError``."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc})") from None


@contextlib.contextmanager
def _writing(path):
    """Turn an ``OSError`` while writing ``path`` into a ``FormatError`` naming it."""
    try:
        yield
    except OSError as exc:
        raise FormatError(f"{path}: cannot write ({exc.strerror or exc})") from None


@contextlib.contextmanager
def open_output(path):
    """``path`` open for writing text; an ``OSError`` raises ``FormatError``.

    A missing or unwritable directory, or a write that fails part way,
    names the path in one ``FormatError``, which ``wfk`` reports with exit 2.
    """
    with _writing(path), open(path, "w") as stream:
        yield stream


# A list of at least this many numbers or [re, im] pairs is written by a row
# template (see _number_blocks) in the place that json's layout of the
# document keeps for it.  Shorter lists, such as a verify report's [re, im]
# points, and empty ones json lays out with the rest of the document.
_LONG_LIST = 8


def _number_list(value) -> tuple[list, int] | None:
    """The numbers of a long list ``value``, flat, and its row width, or None.

    ``value`` qualifies when it is a list of at least ``_LONG_LIST`` items
    that are all plain ints, all finite plain floats, or all ``[re, im]``
    lists of two plain floats (width 2).  A bool, an int or float subclass
    (numpy's scalars among them), a non-finite float or a mixed list gives
    None and stays with ``json``.  The floats are finite when their sum is;
    a sum that overflows only sends the list to ``json``.
    """
    if type(value) is not list or len(value) < _LONG_LIST:
        return None
    width = 1
    if type(value[0]) is list:
        if set(map(type, value)) != {list} or set(map(len, value)) != {2}:
            return None
        flat = [None] * (2 * len(value))
        flat[0::2], flat[1::2] = zip(*value)
        value, width = flat, 2
    kinds = set(map(type, value))
    if kinds == {int} and width == 1:
        return value, width
    if kinds == {float}:
        total = sum(value)
        if total - total == 0.0:
            return value, width
    return None


def _number_blocks(flat: list, width: int, depth: int):
    """The JSON text of a list of numbers at nesting ``depth``, in blocks.

    Each row is one number, or one ``[re, im]`` pair laid out over four
    lines, indented as ``json.dumps(indent=2)`` indents them.  A block of
    up to ``_CSV_BLOCK_CELLS`` numbers is formatted by one ``%r`` row
    template, as in :func:`_csv_blocks`: a plain int or float is written as
    its ``repr``, which is what ``json`` writes for it.
    """
    outer = "\n" + "  " * (depth + 1)
    if width == 1:
        row = outer + "%r"
    else:
        inner = outer + "  "
        row = outer + "[" + inner + "%r," + inner + "%r" + outer + "]"
    first, template = "[" + row, "," + row
    for start in range(0, len(flat), _CSV_BLOCK_CELLS):
        block = tuple(flat[start : start + _CSV_BLOCK_CELLS])
        yield (first + template * (len(block) // width - 1)) % block
        first = template
    yield "\n" + "  " * depth + "]"


def _skeleton(value, held: list):
    """``value`` with its ``k``-th long list of numbers replaced by the string
    ``"\\x00k"``, and ``_number_list`` of that list appended to ``held``.

    A dict or list is copied only when something under it is replaced;
    otherwise it is returned as it is, so a report with no long list is
    laid out from the caller's own containers."""
    if type(value) is dict:
        entries = value.items()
    elif type(value) is list:
        numbers = _number_list(value)
        if numbers is not None:
            held.append(numbers)
            return f"\x00{len(held) - 1}"
        entries = enumerate(value)
    else:
        return value
    copy = None
    for key, item in entries:
        new = _skeleton(item, held)
        if new is not item:
            if copy is None:
                copy = value.copy()
            copy[key] = new
    return value if copy is None else copy


def write_json(doc, stream) -> None:
    """Write ``doc`` to ``stream`` as ``json.dumps(doc, indent=2, sort_keys=True)``
    and a final newline, byte for byte.

    ``json`` lays out ``doc`` with its long lists of numbers replaced by
    placeholder strings (see :func:`_skeleton`).  Each list is then written
    in blocks of :func:`_number_blocks` where its placeholder stands, at the
    depth of that line's indent.  A ``doc`` with a string of its own that
    reads as a placeholder is written by ``json`` whole.
    """
    held = []
    text = json.dumps(_skeleton(doc, held), indent=2, sort_keys=True)
    parts = re.split(r'"\\u0000(\d+)"', text) if held else [text]
    if sorted(map(int, parts[1::2])) != list(range(len(held))):
        parts = [json.dumps(doc, indent=2, sort_keys=True)]
    stream.write(parts[0])
    for before, k, after in zip(parts[0::2], parts[1::2], parts[2::2]):
        line = before.rpartition("\n")[2]
        stream.writelines(_number_blocks(*held[int(k)], (len(line) - len(line.lstrip())) // 2))
        stream.write(after)
    stream.write("\n")


def save_json(doc, path) -> None:
    """Write ``doc`` to ``path`` by :func:`write_json`: the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, laid out by one
    ``json`` call, with each long list of numbers written in blocks where
    it stands."""
    with open_output(path) as stream:
        write_json(doc, stream)


def make_output_dir(path) -> None:
    """Create directory ``path`` and its parents; an ``OSError`` raises ``FormatError``."""
    with _writing(path):
        Path(path).mkdir(parents=True, exist_ok=True)


def read_json(path):
    """Parse a JSON file; a missing file or invalid JSON raises ``FormatError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def _read_object(path) -> dict:
    """The JSON object in ``path``; any other JSON value raises ``FormatError``."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return doc


def _pair(c: complex) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def _from_pair(p) -> complex:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise InvariantError(f"expected a [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def parameters_to_dict(params: FilterParameters, box: BoxPoint | None = None) -> dict:
    doc = {
        "n": params.n,
        "m": params.m,
        "rho": params.rho,
        "factors": [
            {"v": [_pair(c) for c in f.v], "alpha": _pair(f.alpha)}
            for f in params.factors
        ],
    }
    if box is not None:
        doc["box"] = [float(x) for x in box.coords.reshape(-1)]
    return doc


def _integral(value) -> int | None:
    """``value`` as an int when it is an int or an integral float, else None.

    A bool is not an integer here, although Python counts it as one.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _integer(doc: dict, key: str, where: str = "") -> int:
    """``doc[key]`` as an int; a bool or a non-integral value raises ``InvariantError``."""
    value = _integral(doc[key])
    if value is None:
        field = f"{where} field '{key}'" if where else f"field '{key}'"
        raise InvariantError(f"{field} must be an integer, got {doc[key]!r}")
    return value


def parameters_from_dict(doc: dict) -> FilterParameters:
    try:
        n = _integer(doc, "n")
        m = _integer(doc, "m")
        rho = float(doc["rho"])
        raw = doc["factors"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"malformed parameter document: {exc}") from exc
    if not isinstance(raw, list):
        raise InvariantError(f"field 'factors' must be a list, got {type(raw).__name__}")
    if len(raw) != m:
        raise InvariantError(f"document claims m={m} but carries {len(raw)} factors")
    factors = []
    for k, entry in enumerate(raw):
        try:
            v = np.array([_from_pair(p) for p in entry["v"]])
            alpha = _from_pair(entry["alpha"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvariantError(
                f"factor {k} must be an object with 'v' and 'alpha': {exc!r}"
            ) from exc
        try:
            factors.append(Factor(v=v, alpha=alpha))
        except InvariantError as exc:
            raise InvariantError(f"factor {k}: {exc}") from exc
    return FilterParameters(n=n, rho=rho, factors=tuple(factors))


def save_parameters(params: FilterParameters, path, box: BoxPoint | None = None) -> None:
    save_json(parameters_to_dict(params, box), path)


def load_parameters(path) -> FilterParameters:
    return parameters_from_dict(_read_object(path))


_BLOCKS = ("a", "b", "c", "d")

# The most entries that a realization's blocks with an ``index`` may expand
# to, over all four blocks: 2**22 complex entries, 64 MiB, which holds
# ``state_dim + n`` up to 2048 (the cascade at n=16, m=32 has 632 states).
# A block with an ``index`` need not carry the memory it asks for, so
# without a ceiling a file of a few hundred bytes could ask for gigabytes.
# A larger realization is written in the dense form, which carries every
# entry and so loads at the file's own size.
_MAX_SPARSE_ENTRIES = 1 << 22


def _block_to_dict(m: np.ndarray, sparse: bool = True) -> dict:
    """Block ``m`` by its nonzeros, or with every entry when not ``sparse``.

    ``index`` lists the row-major positions ``i*cols + j`` of the entries
    whose bits are not all zero, in increasing order, and ``entries`` holds
    those entries as ``[re, im]`` pairs.  Every position not listed is
    ``+0.0``; ``-0.0`` has a nonzero bit, so it is listed and the block
    reads back bit for bit.  The dense form has no ``index`` and lists all
    ``rows*cols`` entries in row-major order.
    """
    flat = np.ascontiguousarray(m, dtype=complex).reshape(-1)
    doc = {"rows": m.shape[0], "cols": m.shape[1]}
    if sparse:
        index = np.flatnonzero(flat.view(np.uint64).reshape(-1, 2).any(axis=1))
        doc["index"] = index.tolist()
        flat = flat[index]
    doc["entries"] = flat.view(float).reshape(-1, 2).tolist()
    return doc


def _block_shape(doc: dict, name: str) -> tuple[int, int]:
    rows = _integer(doc, "rows", f"block '{name}'")
    cols = _integer(doc, "cols", f"block '{name}'")
    if rows < 0 or cols < 0:
        raise InvariantError(f"block '{name}' declares negative size {rows}x{cols}")
    return rows, cols


def _block_index(raw, name: str, rows: int, cols: int) -> np.ndarray:
    """The ``index`` of block ``name``: strictly increasing positions below ``rows*cols``.

    A list of plain ``int``s that fit ``int64``, as :func:`_block_to_dict`
    writes, is read in one ``np.array`` and range-checked by its minimum
    and maximum.  Any other list, and one with a position out of range,
    goes through the per-item loop, which reads an integral float as its
    ``int`` and names the first bad item.
    """
    if not isinstance(raw, list):
        raise InvariantError(
            f"block '{name}' field 'index' must be a list, got {type(raw).__name__}"
        )
    size = rows * cols
    index = None
    if set(map(type, raw)) <= {int}:
        try:
            index = np.array(raw, dtype=np.int64)
        except OverflowError:
            pass
    if index is None or index.min(initial=0) < 0 or index.max(initial=-1) >= size:
        positions = []
        for k, value in enumerate(raw):
            i = _integral(value)
            if i is None:
                raise InvariantError(
                    f"block '{name}' index {k} must be an integer, got {value!r}"
                )
            if not 0 <= i < size:
                raise InvariantError(
                    f"block '{name}' index {i} is outside its {rows}x{cols} entries"
                )
            positions.append(i)
        index = np.array(positions, dtype=np.int64)
    back = np.flatnonzero(np.diff(index) <= 0)
    if back.size:
        k = int(back[0]) + 1
        raise InvariantError(
            f"block '{name}' index {index[k]} at position {k} follows {index[k - 1]}: "
            "indices must be strictly increasing"
        )
    return index


def _block_from_dict(doc: dict, name: str) -> np.ndarray:
    """Block ``name`` of a realization document as a ``rows x cols`` matrix.

    A block with an ``index`` carries only the entries at those positions
    (see :func:`_block_to_dict`).  A block without one is dense: its
    entries fill every position ``0 .. rows*cols - 1`` in order.  Entries
    that numpy converts to a finite ``(count, 2)`` float array are viewed
    as complex in one step (numpy reads a number, or a string, as
    ``float`` does); anything else goes through the per-pair loop, which
    names the first bad pair.  Both give the same bits.  A non-finite
    value takes the loop because numpy reads ``None`` as NaN, where
    ``float`` rejects it.
    """
    rows, cols = _block_shape(doc, name)
    index = _block_index(doc["index"], name, rows, cols) if "index" in doc else None
    count = rows * cols if index is None else index.size
    raw = doc["entries"]
    try:
        pairs = np.ascontiguousarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is not None and pairs.shape == (count, 2) and np.isfinite(pairs).all():
        values = pairs.view(complex).reshape(-1)
    else:
        entries = []
        for k, p in enumerate(raw):
            try:
                entries.append(_from_pair(p))
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvariantError(f"block '{name}' entry {k}: {exc}") from None
        if len(entries) != count:
            declared = f"{rows}x{cols}" if index is None else f"{count} indices"
            raise InvariantError(
                f"block '{name}' declares {declared} but carries {len(entries)} entries"
            )
        values = np.array(entries, dtype=complex)
        if not np.isfinite(values).all():
            raise InvariantError(f"block '{name}' has a non-finite entry")
    if index is None:
        return values.reshape(rows, cols)
    block = np.zeros(rows * cols, dtype=complex)
    block[index] = values
    return block.reshape(rows, cols)


def realization_to_dict(r: Realization) -> dict:
    """``r`` with its blocks by their nonzeros, or dense past ``_MAX_SPARSE_ENTRIES``."""
    sparse = sum(getattr(r, name).size for name in _BLOCKS) <= _MAX_SPARSE_ENTRIES
    doc = {"n": r.outputs, "state_dim": r.state_dim}
    doc.update((name, _block_to_dict(getattr(r, name), sparse)) for name in _BLOCKS)
    return doc


def realization_from_dict(doc: dict) -> Realization:
    """The realization a document describes, dense or sparse blocks alike.

    Every block's declared shape is checked against the others, ``n`` and
    ``state_dim``, ``d`` must have at least one output and one input, and
    the blocks with an ``index`` are checked against ``_MAX_SPARSE_ENTRIES``,
    before any block is read, so a short file cannot make the loader
    allocate more than that ceiling.
    """
    try:
        n = _integer(doc, "n")
        state_dim = _integer(doc, "state_dim")
        shapes = {name: _block_shape(doc[name], name) for name in _BLOCKS}
        sparse = [name for name in _BLOCKS if "index" in doc[name]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"malformed realization document: {exc}") from exc
    (p, cols), (outputs, inputs) = shapes["a"], shapes["d"]
    if cols != p:
        raise InvariantError(f"block 'a' must be square, got {p}x{cols}")
    if not (outputs and inputs):
        raise InvariantError(
            f"block 'd' must have at least one row and one column, got {outputs}x{inputs}"
        )
    for name, want in (("b", (p, inputs)), ("c", (outputs, p))):
        got = shapes[name]
        if got != want:
            raise InvariantError(
                f"block '{name}' is {got[0]}x{got[1]}, expected {want[0]}x{want[1]} "
                f"for a {p}x{p} 'a' and a {outputs}x{inputs} 'd'"
            )
    if outputs != n:
        raise InvariantError(f"document claims n={n} but block 'd' has {outputs} rows")
    if p != state_dim:
        raise InvariantError(f"document claims state_dim={state_dim} but blocks give {p}")
    total = 0
    for name in sparse:
        rows, cols = shapes[name]
        total += rows * cols
        if total > _MAX_SPARSE_ENTRIES:
            raise InvariantError(
                f"block '{name}' declares {rows}x{cols}, too large for blocks stored "
                f"by their nonzeros, which may expand to {_MAX_SPARSE_ENTRIES} entries "
                "in all; a realization that large is stored dense"
            )
    try:
        blocks = {name: _block_from_dict(doc[name], name) for name in _BLOCKS}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"malformed realization document: {exc}") from exc
    return Realization(**blocks)


def save_realization(r: Realization, path) -> None:
    save_json(realization_to_dict(r), path)


def load_realization(path) -> Realization:
    return realization_from_dict(_read_object(path))


def load_filter(path) -> FilterParameters | Realization:
    """The parameter point (a ``factors`` key) or realization (``state_dim``) in ``path``."""
    doc = _read_object(path)
    if "factors" in doc:
        return parameters_from_dict(doc)
    if "state_dim" in doc:
        return realization_from_dict(doc)
    raise FormatError(f"{path}: neither a parameter nor a realization file")


def report_to_dict(checks: list[CheckReport], seed: int, points: int, tol: float) -> dict:
    return {
        "seed": seed,
        "points": points,
        "tolerance": tol,
        "passed": all(c.passed for c in checks),
        "checks": [
            # vars, not dataclasses.asdict: its deep copy costs 17 us a check
            vars(c) | {"argmax_z": None if c.argmax_z is None else _pair(c.argmax_z)}
            for c in checks
        ],
    }


# Characters that numpy's reader takes for whitespace inside a cell where the
# line loop does not: the line breaks of str.splitlines other than "\n"
# (reading text already maps "\r" to "\n"), and "\x1f", which float() does
# not strip.
_LOOP_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")
# Characters per piece when load_signal screens a file.
_SCREEN_CHARS = 1 << 20


# Cells per block of the CSV writer, 4096 rows of a signal, and numbers per
# block of a JSON number list; even, so that a block holds whole [re, im]
# pairs.  A block's floats, their tuple and its text are all the memory the
# writer adds.
_CSV_BLOCK_CELLS = 8192


def _csv_blocks(*columns: np.ndarray):
    """The CSV text of rows of float cells, one block of rows at a time.

    Each of ``columns`` is a ``(K, c_i)`` float array, and row ``k`` of the
    CSV holds row ``k`` of each in turn.  A block holds as many rows as fit
    in ``_CSV_BLOCK_CELLS`` cells (at least one) and is formatted by one
    ``%r`` row template: each cell is the ``repr`` of its float, so the
    text is the same whatever the block size.  No rows give a lone newline.
    """
    count = columns[0].shape[0]
    width = sum(c.shape[1] for c in columns)
    if count == 0:
        yield "\n"
        return
    template = ",".join(["%r"] * width) + "\n"
    step = max(1, _CSV_BLOCK_CELLS // width)
    for start in range(0, count, step):
        block = np.hstack([c[start : start + step] for c in columns])
        yield (template * block.shape[0]) % tuple(block.reshape(-1).tolist())


def save_signal(x, path) -> None:
    """Write one complex sample per line as ``re,im``; an empty signal is a lone newline.

    The lines go out in blocks of 4096 (see :func:`_csv_blocks`), so the
    memory the writer adds stays at one block whatever the length.
    """
    x = np.ascontiguousarray(x, dtype=complex).reshape(-1)
    with open_output(path) as stream:
        stream.writelines(_csv_blocks(x.view(float).reshape(-1, 2)))


def _screen(path) -> str:
    """How :func:`load_signal` reads ``path``: ``"blank"``, ``"loop"`` or ``"numpy"``.

    The file is read in pieces of ``_SCREEN_CHARS`` characters, never as
    one string.  It is blank when empty or whitespace only, and takes the
    line loop when it holds a ``_LOOP_ONLY`` character, which numpy would
    strip around a number.  A read error is raised by :func:`_read_text`,
    so that its message is the same and a decode error keeps its offset in
    the whole file.
    """
    blank = True
    try:
        with open(path) as stream:
            while piece := stream.read(_SCREEN_CHARS):
                if any(c in piece for c in _LOOP_ONLY):
                    return "loop"
                blank = blank and piece.isspace()
    except (OSError, UnicodeDecodeError):
        _read_text(path)
        return "loop"
    return "blank" if blank else "numpy"


def load_signal(path) -> np.ndarray:
    """Read one ``re,im`` sample per line; a missing file raises ``FormatError``.

    numpy's C reader parses the file; a file it rejects or does not read as
    two columns (whitespace-only lines, ``1_0``-style digits, a malformed
    line) goes through the line loop, which accepts what Python's
    ``float`` accepts and names the first bad line.  Only the line loop
    holds the whole text; the file is screened in pieces first (see
    :func:`_screen`).
    """
    route = _screen(path)
    if route == "blank":
        return np.array([], dtype=complex)
    if route == "numpy":
        try:
            with open(path) as stream:
                cells = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
        except (OSError, ValueError):
            cells = None
        if cells is not None and cells.shape[1] == 2:
            return np.ascontiguousarray(cells).view(complex).reshape(-1)
    samples = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            real, imag = line.split(",")
            samples.append(complex(float(real), float(imag)))
        except ValueError:
            raise InvariantError(
                f"{path}:{lineno}: expected 're,im', got {line!r}"
            ) from None
    return np.array(samples, dtype=complex)


def _eval_columns(zs, values) -> tuple[np.ndarray, np.ndarray]:
    """The cells of eval CSV rows: ``(K, 2)`` for the points, ``(K, 2rc)`` for the values."""
    zs = np.ascontiguousarray(zs, dtype=complex).reshape(-1)
    values = np.ascontiguousarray(values, dtype=complex)
    if values.ndim == 0 or values.shape[0] != zs.size:
        raise DimensionError(f"{zs.size} points but values of shape {values.shape}")
    values = values.reshape(zs.size, int(np.prod(values.shape[1:])))
    return zs.view(float).reshape(-1, 2), values.view(float)


def write_eval_csv(zs, values, stream) -> None:
    """Write points ``zs`` (``(K,)``) and their values (``(K, r, c)``) to ``stream``.

    Each row is ``z_re, z_im`` then the value's row-major entries as re/im
    pairs; no rows give a lone newline.  The rows are written in blocks
    (see :func:`_csv_blocks`), so the memory the writer adds stays at one
    block whatever ``K``.
    """
    stream.writelines(_csv_blocks(*_eval_columns(zs, values)))


def save_eval_csv(zs, values, path) -> None:
    """Write the eval CSV of :func:`write_eval_csv` to ``path``.

    A value count that does not match the points raises ``DimensionError``
    before ``path`` is opened.
    """
    columns = _eval_columns(zs, values)
    with open_output(path) as stream:
        stream.writelines(_csv_blocks(*columns))


def load_box(path, n: int, m: int, rho: float) -> BoxPoint:
    """Read box coordinates from a JSON file (flat array or ``{"box": [...]}``)."""
    doc = read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("box")
    if not isinstance(doc, list):
        raise InvariantError(f"{path}: box file must hold a flat array of coordinates")
    try:
        coords = np.array([float(x) for x in doc], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvariantError(f"{path}: box coordinates must be finite numbers") from None
    if coords.size != m * 2 * n:
        raise InvariantError(
            f"{path}: box file has {coords.size} coordinates, expected {m * 2 * n}"
        )
    return BoxPoint(n=n, rho=rho, coords=coords.reshape(m, 2 * n))
