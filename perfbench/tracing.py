"""Call-site wrappers: a span tracer and an attribute patcher.

The benchmark never edits the program.  It replaces module attributes at the
places the program looks them up (``clinrel.harness.vectorize`` is the name
``prepare_folds`` calls, ``clinrel.learners.multiclass.smo_train`` the name
``ova_train`` calls) and restores them when the run ends.

A span is (name, start, end, parent).  Spans nest in call order, so a span's
self time is its duration minus the durations of its direct children.  Spans
of hot, tiny calls (kernel rows) are only aggregated; all others are also
kept and written to the trace file when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter


class Patcher:
    """Replaces attributes for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))


class Tracer:
    """In-memory spans with inclusive and self time per span name."""

    def __init__(self) -> None:
        self.started = clock()
        self.kept: list[list] = []  # [id, name, start, end, parent]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [id, child_time]
        self._next_id = 0
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name: str, fn, args=(), kwargs=None, keep: bool = True):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        frame = [span_id, 0.0]
        self._open.append(frame)
        start = clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = clock()
            self._open.pop()
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += duration
            if keep:
                self.kept.append([span_id, name, start, end, parent])

    def span(self, owner, attr: str, name, patcher: Patcher, on_result=None, keep: bool = True) -> None:
        """Trace every call made through ``owner.attr``.

        ``name`` is a string or a function of the call's arguments;
        ``on_result(tracer, result, args, kwargs)`` records counts.
        """

        def make(original):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                label = name if isinstance(name, str) else name(args, kwargs)
                result = self.call(label, original, args, kwargs, keep)
                if on_result is not None:
                    on_result(self, result, args, kwargs)
                return result

            return traced

        patcher.wrap(owner, attr, make)

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": {k: float(v) for k, v in self.calls.items()},
            "counts": dict(self.counts),
        }

    def write(self, path: Path, meta: dict) -> None:
        """One JSON line of metadata, one per kept span, one of aggregates."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for span_id, name, start, end, parent in self.kept:
                out.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start": start - self.started, "end": end - self.started,
                }) + "\n")
            out.write(json.dumps({"aggregate": self.snapshot(), "peaks": dict(self.peaks)}) + "\n")
