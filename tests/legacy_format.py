"""The dense realization-file form that versions before the sparse blocks wrote.

Every block lists all ``rows*cols`` entries as ``[re, im]`` pairs in
row-major order and carries no ``index``.  The loader still reads this
form; these helpers write it so that the tests keep covering that path.
"""

import numpy as np

from wfk import io as wio


def dense_block(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[complex(c).real, complex(c).imag] for c in m.reshape(-1)],
    }


def dense_document(r) -> dict:
    doc = wio.realization_to_dict(r)
    doc.update((name, dense_block(getattr(r, name))) for name in ("a", "b", "c", "d"))
    return doc
