"""Span tracer for the wfk layers, installed from outside the package.

``install`` wraps the named layer functions of ``wfk`` and rebinds each
wrapper under every name the package binds the original to (``wfk.X``,
``wfk.cli.X``, module globals used by other functions), so intra-package
calls are traced too.  Functions that are not named get no span, so
their time counts toward the self time of the named function that called
them.  The ``io`` file readers and writers are wrapped without a span,
to count the bytes they move.  Nothing in the package source changes.

Each wrapped call records one span ``(name, start, end, parent, op)`` in
flat arrays, which keeps millions of spans to a few tens of megabytes.
Self time is the span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

_READERS = ("load_signal", "load_parameters", "load_realization", "load_box")
_WRITERS = ("save_signal", "save_parameters", "save_realization", "save_eval_csv")


def _path_arg(args, kwargs, position):
    if "path" in kwargs:
        return kwargs["path"]
    return args[position] if len(args) > position else None


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span store with per-name call, self-time and error totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("I")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.op_id = -1
        # Set while a negative-control op runs; its residuals are expected
        # to be large and are kept out of the residual gauge.
        self.negative_control = False
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, float] = defaultdict(float)
        self.wrapped: set[str] = set()
        self._bindings: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append([idx, 0.0])
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, name: str, failed: bool) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if failed:
            self.errors[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        if name == "cli.main":
            def label(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.main.{argv[0]}" if argv else "cli.main"
        else:
            def label(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs)
            tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, failed=True)
                raise
            tracer._close(span, failed=False)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, wfk, names) -> None:
        """Wrap each ``layer.function`` in ``names`` with a span.

        A layer or function missing from the package is skipped.
        """
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "wfk" or key.startswith("wfk."))]
        observed = [f"io.{attr}" for attr in _READERS + _WRITERS]
        for name in list(names) + [n for n in observed if n not in names]:
            layer, attr = name.split(".", 1)
            module = sys.modules.get(f"{wfk.__name__}.{layer}")
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn):
                continue
            if name in names:
                self.wrapped.add(name)
                wrapper = self.wrap(name, fn)
            else:
                wrapper = _observer(self, _OBSERVERS[name], fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._bindings.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._bindings):
            setattr(ns, key, fn)
        self._bindings.clear()

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names are indexed by ``name``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_ids, dtype=np.uint32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            op=np.frombuffer(self.ops, dtype=np.int32),
        )


def _observer(tracer, observe, fn):
    """Wrap ``fn`` to call ``observe`` after it returns, without a span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _observe_stein(tracer, args, kwargs, result):
    if tracer.negative_control:
        return
    key = "realization.stein_certificate.residual_max"
    tracer.gauges[key] = max(tracer.gauges[key], float(result.max_block_residual))


def _reader(tracer, args, kwargs, result):
    tracer.gauges["io.bytes_read"] += _file_size(_path_arg(args, kwargs, 0))


def _writer(tracer, args, kwargs, result):
    tracer.gauges["io.bytes_written"] += _file_size(_path_arg(args, kwargs, 1))


_OBSERVERS = {"realization.stein_certificate": _observe_stein}
_OBSERVERS.update({f"io.{name}": _reader for name in _READERS})
_OBSERVERS.update({f"io.{name}": _writer for name in _WRITERS})
