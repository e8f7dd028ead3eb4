"""File formats: parameter/realization JSON, verification reports, CSV signals.

Complex numbers are serialized as two-element ``[re, im]`` arrays
everywhere; structured data is JSON, sampled data is CSV.  Loading always
revalidates the domain invariants by rebuilding values through their
constructors.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError
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


def read_json(path):
    """Parse a JSON file; a missing file or invalid JSON raises ``FormatError``."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


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


def parameters_from_dict(doc: dict) -> FilterParameters:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        rho = float(doc["rho"])
        raw = list(doc["factors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantError(f"malformed parameter document: {exc}") from exc
    if len(raw) != m:
        raise InvariantError(f"document claims m={m} but carries {len(raw)} factors")
    factors = []
    for k, entry in enumerate(raw):
        try:
            v = np.array([_from_pair(p) for p in entry["v"]])
            alpha = _from_pair(entry["alpha"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvariantError(
                f"factor {k} must be an object with 'v' and 'alpha': {exc!r}"
            ) from exc
        factors.append(Factor(v=v, alpha=alpha))
    return FilterParameters(n=n, rho=rho, factors=tuple(factors))


def save_parameters(params: FilterParameters, path, box: BoxPoint | None = None) -> None:
    Path(path).write_text(
        json.dumps(parameters_to_dict(params, box), indent=2, sort_keys=True) + "\n"
    )


def load_parameters(path) -> FilterParameters:
    return parameters_from_dict(read_json(path))


def _block_to_dict(m: np.ndarray) -> dict:
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [_pair(c) for c in m.reshape(-1)],
    }


def _block_from_dict(doc: dict) -> np.ndarray:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    entries = [_from_pair(p) for p in doc["entries"]]
    if len(entries) != rows * cols:
        raise InvariantError(
            f"block declares {rows}x{cols} but carries {len(entries)} entries"
        )
    return np.array(entries, dtype=complex).reshape(rows, cols)


def realization_to_dict(r: Realization) -> dict:
    return {
        "n": r.outputs,
        "state_dim": r.state_dim,
        "a": _block_to_dict(r.a),
        "b": _block_to_dict(r.b),
        "c": _block_to_dict(r.c),
        "d": _block_to_dict(r.d),
    }


def realization_from_dict(doc: dict) -> Realization:
    try:
        blocks = {k: _block_from_dict(doc[k]) for k in ("a", "b", "c", "d")}
        state_dim = int(doc["state_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantError(f"malformed realization document: {exc}") from exc
    for name, block in blocks.items():
        if not np.isfinite(block).all():
            raise InvariantError(f"block '{name}' has a non-finite entry")
    r = Realization(**blocks)
    if r.state_dim != state_dim:
        raise InvariantError(
            f"document claims state_dim={state_dim} but blocks give {r.state_dim}"
        )
    return r


def save_realization(r: Realization, path) -> None:
    Path(path).write_text(
        json.dumps(realization_to_dict(r), indent=2, sort_keys=True) + "\n"
    )


def load_realization(path) -> Realization:
    return realization_from_dict(read_json(path))


def report_to_dict(checks: list[CheckReport], seed: int, points: int, tol: float) -> dict:
    return {
        "seed": seed,
        "points": points,
        "tolerance": tol,
        "passed": all(c.passed for c in checks),
        "checks": [
            {
                "name": c.name,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "sample_count": c.sample_count,
                "seed": c.seed,
                "resampled": c.resampled,
                "wall_ms": c.wall_ms,
            }
            for c in checks
        ],
    }


# Characters that numpy's reader takes for whitespace inside a cell where the
# line loop does not: the line breaks of str.splitlines other than "\n"
# (reading text already maps "\r" to "\n"), and "\x1f", which float() does
# not strip.
_LOOP_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029")


def save_signal(x, path) -> None:
    """Write one complex sample per line as ``re,im``."""
    x = np.ascontiguousarray(x, dtype=complex).reshape(-1)
    text = ("%r,%r\n" * x.size) % tuple(x.view(float).tolist())
    Path(path).write_text(text or "\n")


def load_signal(path) -> np.ndarray:
    """Read one ``re,im`` sample per line; a missing file raises ``FormatError``.

    numpy's C reader parses the file; a file it rejects or does not read as
    two columns (whitespace-only lines, ``1_0``-style digits, a malformed
    line) goes through the line loop, which accepts what Python's
    ``float`` accepts and names the first bad line.
    """
    text = _read_text(path)
    if not text or text.isspace():
        return np.array([], dtype=complex)
    cells = None
    if not any(c in text for c in _LOOP_ONLY):
        # read the file again: numpy streams it, where a StringIO of the text
        # would hold a second, wider copy of it
        try:
            with open(path) as stream:
                cells = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
        except (OSError, ValueError):
            pass
    if cells is not None and cells.shape[1] == 2:
        return np.ascontiguousarray(cells).view(complex).reshape(-1)
    samples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def format_eval_csv(rows: list[tuple[complex, np.ndarray]]) -> str:
    """Evaluation rows as CSV: ``z_re, z_im`` then row-major entry re/im pairs."""
    lines = []
    for z, value in rows:
        cells = [repr(complex(z).real), repr(complex(z).imag)]
        for c in np.asarray(value, dtype=complex).reshape(-1):
            cells.append(repr(float(c.real)))
            cells.append(repr(float(c.imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_eval_csv(rows: list[tuple[complex, np.ndarray]], path) -> None:
    Path(path).write_text(format_eval_csv(rows))


def load_box(path, n: int, m: int, rho: float) -> BoxPoint:
    """Read box coordinates from a JSON file (flat array or ``{"box": [...]}``)."""
    doc = read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("box")
    if not isinstance(doc, list):
        raise InvariantError(f"{path}: box file must hold a flat array of coordinates")
    try:
        coords = np.array([float(x) for x in doc], dtype=float)
    except (TypeError, ValueError):
        raise InvariantError(f"{path}: box coordinates must be numbers") from None
    if coords.size != m * 2 * n:
        raise InvariantError(
            f"{path}: box file has {coords.size} coordinates, expected {m * 2 * n}"
        )
    return BoxPoint(n=n, rho=rho, coords=coords.reshape(m, 2 * n))
