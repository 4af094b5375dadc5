"""In-memory spans recorded around the benchmark's calls into safeflight.

A span is (name, start, end, parent, op): times from time.perf_counter, the
index of the enclosing span or -1, and the operation id it belongs to (-1 in
set-up). Spans are appended to a list and only written out at the end, so
recording costs one tuple per call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one attribute lookup, callables are not wrapped."""

    def span(self, name: str):
        return _NO_SPAN

    def wrap(self, name: str, fn):
        return fn


class Tracer:
    """Tracing on: every span and wrapped call appends one tuple to `spans`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        """fn with one span per call, parented to the span open at call time."""
        spans, stack = self.spans, self._stack

        def traced(*args):
            start = time.perf_counter()
            out = fn(*args)
            end = time.perf_counter()
            spans.append((name, start, end, stack[-1] if stack else -1, self.op))
            return out

        return traced

    def durations(self) -> dict[str, np.ndarray]:
        """Span durations in seconds, grouped by name."""
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return {k: np.asarray(v) for k, v in out.items()}

    def self_times(self) -> dict[str, np.ndarray]:
        """Per-span duration minus the time covered by its direct children."""
        child = np.zeros(len(self.spans))
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child[k])
        return {k: np.asarray(v) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
