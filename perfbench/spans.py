"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent)`` around one public call into a
layer, recorded from the benchmark's side of the call.  Spans stay in
memory while the run measures and are written once, at exit.  A
span's *self time* is its duration minus the durations of its direct
children (the recorder is single-threaded, so children never overlap),
so the self times of a span's subtree add up to its duration exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanLog:
    """Append-only list of spans with a stack of open parents."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its id."""
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(float("nan"))
        self._open.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield sid
        finally:
            self.end[sid] = time.perf_counter()
            self._open.pop()

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def subtree(self, root: int) -> list[int]:
        """``root`` and every span below it (ids are in start order)."""
        inside = {root}
        for sid in range(root + 1, len(self.names)):
            if self.parent[sid] in inside:
                inside.add(sid)
        return sorted(inside)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over ``root``'s subtree."""
        ids = self.subtree(root)
        child_sum: dict[int, float] = defaultdict(float)
        for sid in ids:
            if sid != root:
                child_sum[self.parent[sid]] += self.duration(sid)
        out: dict[str, float] = defaultdict(float)
        for sid in ids:
            out[self.names[sid]] += self.duration(sid) - child_sum[sid]
        return dict(out)

    def child_durations(self, root: int) -> dict[str, float]:
        """Total duration per name of ``root``'s direct children."""
        out: dict[str, float] = defaultdict(float)
        for sid in self.subtree(root):
            if self.parent[sid] == root:
                out[self.names[sid]] += self.duration(sid)
        return dict(out)

    def write(self, path) -> None:
        """Write every span to ``path`` as one JSON document."""
        rows = [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in zip(self.names, self.start, self.end,
                                      self.parent)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
