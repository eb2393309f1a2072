"""Spans and counts recorded around the benchmark's calls into ergobound.

A span is ``(name, start, end, parent, run id)``; its name is
``<layer>.<operation>`` for calls into a package module and a plain word for
the benchmark's own grouping spans.  Spans and counts stay in memory and are
written out once, when the pass ends.  :class:`NullTracer` has the same
interface and records nothing, so untraced passes pay almost no overhead.
"""

from __future__ import annotations

import contextlib
import json
import time

LAYERS = ("sim", "wasserstein", "bounds", "linalg", "model", "stability", "asymptotics", "cli")


class Tracer:
    """In-memory span and counter recorder for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name: str, value: float) -> None:
        """Keep the largest value seen under ``name``."""
        self.counts[name] = max(self.counts.get(name, value), value)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start) - inner
        return out

    def dump(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class NullTracer:
    """Tracing off: the :class:`Tracer` interface, recording nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass

    def high(self, name: str, value: float) -> None:
        pass
