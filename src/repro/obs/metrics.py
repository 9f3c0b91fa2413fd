"""Counters, gauges, and histograms for the runtimes (S17).

A small process-local metrics substrate — deliberately not a client
for any external system.  The executor, the kernel-timing harness, and
the benchmark drivers all write into a :class:`MetricsRegistry`:

* :class:`Counter` — monotone float total (``tasks.retired.GEQRT``,
  ``scheduler.lock_seconds``);
* :class:`Gauge` — last-value-wins with min/max and an optional
  ``(t, value)`` sample series (ready-queue depth over time);
* :class:`Histogram` — fixed upper-bound buckets plus running
  count/sum/min/max (per-kernel wall-time distributions).

Get-or-create goes through one registry lock and each metric guards
its own mutation with a private lock; these are bookkeeping paths
(once per task / once per timed call), not inner loops.
``registry.render()`` gives a terminal summary, ``registry.to_dict()``
a JSON-ready snapshot.
"""

from __future__ import annotations

import json
import math
import os
import threading
import weakref
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_SECONDS_BUCKETS"]

# Fork safety: a registry (or metric) lock held by another thread at
# fork time is copied *locked* into the child, where no thread exists
# to release it — the first child-side inc()/observe() deadlocks
# forever.  Process-wide registries (``PLAN_METRICS``) make this easy
# to hit once worker processes fork under concurrent publishers, so
# every live registry re-creates its locks in the child.  Child-side
# metric *values* keep whatever snapshot the fork took; only the locks
# are replaced.
_LIVE_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _reinit_locks_after_fork() -> None:  # pragma: no cover - exercised
    for reg in list(_LIVE_REGISTRIES):   # in a forked child (tests fork)
        reg._lock = threading.Lock()
        for m in reg._metrics.values():
            m._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)

#: default histogram buckets for durations in seconds (~30 us .. 30 s)
DEFAULT_SECONDS_BUCKETS = tuple(
    round(base * 10.0 ** exp, 10)
    for exp in range(-5, 2)
    for base in (3.0, 10.0)
)


@dataclass
class Counter:
    """Monotonically increasing total (integer or float)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """Last-value gauge with extrema and an optional sample series."""

    name: str
    value: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: list[tuple[float, float]] = field(default_factory=list)
    keep_samples: bool = True
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set(self, value: float, t: float | None = None) -> None:
        value = float(value)
        with self._lock:
            self.value = value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self.keep_samples and t is not None:
                self.samples.append((float(t), value))

    def to_dict(self) -> dict:
        d = {"type": "gauge", "value": self.value}
        if self.max >= self.min:
            d["min"], d["max"] = self.min, self.max
        if self.samples:
            d["samples"] = [list(s) for s in self.samples]
        return d


@dataclass
class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``buckets`` are inclusive upper bounds; an implicit ``+inf``
    overflow bucket catches the rest.
    """

    name: str
    buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(float(b) for b in self.buckets))
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, ub in enumerate(self.buckets):
                if value <= ub:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        d = {"type": "histogram", "count": self.count, "sum": self.sum,
             "mean": self.mean,
             "bucket_edges": list(self.buckets),
             "buckets": [list(b) for b in zip(self.buckets, self.counts)],
             "overflow": self.counts[-1]}
        if self.count:
            d["min"], d["max"] = self.min, self.max
        return d


class MetricsRegistry:
    """Thread-safe, get-or-create home for named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        _LIVE_REGISTRIES.add(self)

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = cls(name=name, **kwargs)
                self._metrics[name] = m
            elif not isinstance(m, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(m).__name__}, not {cls.__name__}")
            return m

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str, keep_samples: bool = True) -> Gauge:
        return self._get_or_create(name, Gauge, keep_samples=keep_samples)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        kwargs = {} if buckets is None else {"buckets": tuple(buckets)}
        return self._get_or_create(name, Histogram, **kwargs)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric, sorted by name."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: m.to_dict() for name, m in items}

    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = 1) -> str:
        """Deterministic JSON: metric names *and* keys inside each
        metric are emitted sorted, so two identically populated
        registries render byte-for-byte the same — snapshot files and
        CI diffs stay stable across runs and dict insertion orders."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, title: str = "metrics") -> str:
        """Plain-text summary, one block per metric."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines = [f"== {title} =="]
        for name, m in items:
            if isinstance(m, Counter):
                v = m.value
                lines.append(f"{name:<40s} {v:g}")
            elif isinstance(m, Gauge):
                extra = (f"  (min {m.min:g}, max {m.max:g})"
                         if m.max >= m.min else "")
                lines.append(f"{name:<40s} {m.value:g}{extra}")
            else:
                lines.append(
                    f"{name:<40s} n={m.count}  sum={m.sum:.6g}  "
                    f"mean={m.mean:.6g}"
                    + (f"  min={m.min:.3g}  max={m.max:.3g}" if m.count
                       else ""))
                lines.extend(_histogram_rows(m))
        return "\n".join(lines)


def _histogram_rows(h: Histogram, width: int = 30) -> list[str]:
    """ASCII bar rows for a histogram's non-empty buckets."""
    rows = []
    peak = max(h.counts) if h.count else 0
    if not peak:
        return rows
    labels = [f"<= {ub:g}" for ub in h.buckets] + ["> (overflow)"]
    for label, c in zip(labels, h.counts):
        if not c:
            continue
        bar = "#" * max(1, round(width * c / peak))
        rows.append(f"    {label:>14s}  {c:>7d}  {bar}")
    return rows
