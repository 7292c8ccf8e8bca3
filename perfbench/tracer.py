"""Outside-in span tracing: wrap module attributes, record spans in memory.

The tracer replaces named module attributes with timing wrappers for the
duration of a ``with tracer.installed():`` block and restores the exact
original objects afterwards, also when the block raises.  A name that a
module no longer has is skipped and reported by ``missing_names``; metrics
built on it are then reported as missing, never as zero.

Each span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  An optional annotator per name turns the call's
arguments and result into a small dict of attributes (sizes, flags) that is
stored beside the span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable

import numpy as np

Annotator = Callable[[tuple, dict, object], dict]


class Tracer:
    """Span recorder for a fixed set of ``(module, attribute)`` targets."""

    def __init__(self, targets: dict[str, Annotator | None]):
        """``targets`` maps ``"package.module.attr"`` to an annotator or None."""
        self.targets = dict(targets)
        self.spans: list[list] = []  # [name, start, end, parent]
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.missing_names: set[str] = set()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark code (a call into a layer)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, annotate: Annotator | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self.attrs[idx] = annotate(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for dotted, annotate in self.targets.items():
                mod_name, attr = dotted.rsplit(".", 1)
                module = importlib.import_module(mod_name)
                if not hasattr(module, attr):
                    self.missing_names.add(dotted)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(dotted, original, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns: name ids, names, start, end, parent."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name_id": np.array([ids[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write the spans out as one ``.npz`` file."""
        np.savez_compressed(path, **self.arrays())
