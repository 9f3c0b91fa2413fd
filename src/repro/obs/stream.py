"""Streaming telemetry: the live structured event bus (S21).

The tracer and metrics registry (PR 1) observe a run *after* it
finishes — spans and histograms are read back once the executor
returns.  This module adds the third leg: a bounded, thread-safe
**event bus** that both executors publish typed :class:`Event`
records into *while the factorization runs*, so the ``--progress``
dashboard, the background
:class:`~repro.obs.sampler.Sampler`, and (next) per-job telemetry
channels of a factorization service can all watch one stream.

Design points:

* **Bounded ring buffer.**  Publishing never blocks and never grows
  memory without bound: the bus keeps the last ``capacity`` events and
  overwrites the oldest beyond that (``bus.dropped`` counts the
  overwritten ones).  Readers poll with :meth:`EventBus.events_since`
  using the monotone sequence number and learn exactly how many events
  they missed.
* **Zero-cost off switch.**  The executors take ``bus=None`` (or
  :data:`NULL_BUS`, whose ``enabled`` is ``False``) and skip all
  publishing work — the hot path carries no locking, no allocation,
  not even a timestamp read (measured: see docs/performance.md,
  "telemetry overhead").
* **Typed events.**  One small :class:`Event` record per occurrence:
  task start/done, group dispatch, ready-frontier size, run
  start/done.  Events serialize to compact dicts (defaults
  elided) for the JSONL sink in :mod:`repro.obs.export`.
* **One publishing process.**  The process transport's parent
  publishes every event itself, at dispatch and at retirement, so the
  bus never crosses a process boundary.

:class:`LiveState` is the standard consumer: a lock-protected
reduction of the stream into "what is happening right now" — done
counts per kernel, busy workers, ready-frontier depth, cumulative
flops — consumed by the sampler and the progress renderers.  It
pulls: :meth:`LiveState.connect` remembers the bus, and the readers
drain the ring on their own cadence, so the publisher pays only the
ring append.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass, fields

__all__ = [
    "Event",
    "EventBus",
    "NullBus",
    "NULL_BUS",
    "LiveState",
    "EVENT_KINDS",
]

#: the event vocabulary: the executors publish run, group and
#: frontier events; ``task_start``/``task_done`` stay readable in
#: older logs
EVENT_KINDS = (
    "run_start",    #: total= task count, count= workers
    "run_done",     #: value= wall seconds
    "task_start",   #: tid, kernel, worker
    "task_done",    #: tid, kernel, worker, value= kernel seconds
    "group_start",  #: tid= first member, kernel, worker, count= size
    "group_done",   #: tid, kernel, worker, count, value= group seconds
    "frontier",     #: value= ready-queue depth after a retirement
)

# Fork safety: a bus or LiveState lock held mid-publish at fork time
# is copied *locked* into the child, deadlocking the child's first
# publish/view forever.  Every live instance re-creates its locks in
# forked children (ring contents survive as the fork's snapshot).
_LIVE_LOCKED: "weakref.WeakSet" = weakref.WeakSet()


def _reinit_locks_after_fork() -> None:  # pragma: no cover - exercised
    for obj in list(_LIVE_LOCKED):       # in a forked child (tests fork)
        obj._lock = threading.Lock()
        if hasattr(obj, "_pump_lock"):
            obj._pump_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


#: default ring capacity.  4096 records hold every event of the
#: standard bench case several times over while keeping the slot array
#: small enough to live in L2 next to the working tiles; full-fidelity
#: sinks for paper-size runs (a 60x20 grid retires ~50k tasks) should
#: pass an explicit larger capacity or drain with ``events_since``.
_DEFAULT_CAPACITY = 4096


@dataclass(slots=True)
class Event:
    """One telemetry occurrence.

    Unused coordinate fields keep their defaults (``-1`` / ``""`` /
    ``0``); :meth:`to_dict` elides them so JSONL lines stay compact.
    ``t`` is seconds since the publishing bus's epoch; ``seq`` is the
    bus-assigned monotone sequence number.
    """

    kind: str
    t: float = 0.0
    seq: int = -1
    tid: int = -1
    kernel: str = ""
    worker: int = -1
    count: int = 1
    total: int = 0
    value: float = 0.0
    #: problem family of the run (``"qr"``, ``"cholesky"``, ``"lu"``);
    #: stamped on ``run_start`` so trace analyzers can label reports
    problem: str = ""

    def to_dict(self) -> dict:
        """Compact dict: ``kind``/``t``/``seq`` always, the rest only
        when they differ from the field default."""
        out = {"kind": self.kind, "t": self.t, "seq": self.seq}
        for f in fields(self):
            if f.name in out:
                continue
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "Event":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


class EventBus:
    """Bounded, thread-safe ring buffer of :class:`Event` records.

    Publishers call :meth:`publish` (one short lock); readers poll
    :meth:`events_since` with their last-seen sequence number.
    """

    enabled: bool = True

    def __init__(self, capacity: int = _DEFAULT_CAPACITY,
                 epoch: float | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.epoch = time.perf_counter() if epoch is None else float(epoch)
        #: compact event records in Event field order (tuples, not
        #: Event objects: cheap to write on the publisher's hot path)
        self._buf: list[tuple | None] = [None] * self.capacity
        self._seq = 0
        self._lock = threading.Lock()
        _LIVE_LOCKED.add(self)

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the bus epoch (monotonic, lock-free)."""
        return time.perf_counter() - self.epoch

    def publish(self, kind: str, *, t: float | None = None, tid: int = -1,
                kernel: str = "", worker: int = -1,
                count: int = 1, total: int = 0, value: float = 0.0,
                problem: str = "") -> int:
        """Append one event; never blocks, never raises for full buffers.

        Returns the event's sequence number.  The keyword parameters
        mirror the :class:`Event` fields exactly (deliberately no
        ``**kwargs``: the executor hot path publishes hundreds of
        events per run and explicit parameters keep each call free of
        throwaway dicts).  The ring stores compact records and
        :meth:`events_since` materializes :class:`Event` objects on
        read, so the publisher pays well under a microsecond per
        event.
        """
        if t is None:
            t = time.perf_counter() - self.epoch
        with self._lock:
            seq = self._seq
            self._buf[seq % self.capacity] = (
                kind, t, seq, tid, kernel, worker, count, total, value,
                problem)
            self._seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        """Total events ever published."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events overwritten by the ring before any possible read."""
        return max(0, self._seq - self.capacity)

    def events_since(self, seq: int) -> tuple[list[Event], int]:
        """Events with sequence number ``>= seq`` still in the ring.

        Returns ``(events, next_seq)``; pass ``next_seq`` back on the
        next poll.  If the ring lapped the reader the gap is implicit:
        ``events[0].seq - seq`` events were missed.
        """
        with self._lock:
            hi = self._seq
            lo = max(int(seq), hi - self.capacity)
            recs = [self._buf[i % self.capacity] for i in range(lo, hi)]
        # materialize outside the lock — record order matches the
        # Event field order
        return [Event(*r) for r in recs], hi

    def snapshot(self) -> list[Event]:
        """Every event still in the ring, oldest first."""
        return self.events_since(0)[0]


class NullBus(EventBus):
    """Event bus disabled: ``enabled`` is ``False`` and publishing is a
    no-op.  The executors check ``enabled`` once up front and skip all
    telemetry work, so passing :data:`NULL_BUS` (or ``None``) keeps the
    hot path untouched."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1, epoch=0.0)

    def publish(self, kind, *, t=None, **fields):  # pragma: no cover - trivial
        return None


#: shared do-nothing bus; pass this (or ``None``) to disable streaming
NULL_BUS = NullBus()


# ----------------------------------------------------------------------
# the standard consumer: reduce the stream to "now"
# ----------------------------------------------------------------------

class LiveState:
    """Running reduction of a bus stream into current-progress state.

    Connect to a bus with :meth:`connect`; every field is maintained
    under one lock and read via :meth:`view` (a consistent dict
    snapshot) by the sampler and the progress renderers.

    Parameters
    ----------
    total : int
        Expected task count (``run_start`` events update it too).
    nb : int or None
        Tile size; when given, ``task_done``/``group_done`` events
        accumulate nominal flops (Table 1 weights x ``nb^3/3``) so the
        sampler can report cumulative GFLOP/s.
    """

    def __init__(self, total: int = 0, nb: int | None = None) -> None:
        self.total = int(total)
        self.nb = nb
        self._flops_of: dict[str, float] = {}
        if nb is not None:
            from ..kernels.costs import Kernel, kernel_flops
            self._flops_of = {k.value: kernel_flops(k, nb) for k in Kernel}
        self._bus: EventBus | None = None
        self._cursor = 0
        self._pump_lock = threading.Lock()  # serializes ring drains
        self._lock = threading.Lock()
        _LIVE_LOCKED.add(self)
        self.started = 0
        self.done = 0
        self.flops = 0.0
        self.frontier = 0
        self.workers = 0
        self.kernel_done: dict[str, int] = {}
        self.worker_kernel: dict[int, str] = {}
        self.last_t = 0.0
        self.run_started = False
        self.run_finished = False

    # ------------------------------------------------------------------
    def connect(self, bus: EventBus) -> "LiveState":
        """Remember the bus; :meth:`pump` (called automatically by
        :meth:`view`) drains and reduces the events published since
        the last pump.  The publisher pays only the ring append; the
        reduction runs in warm-cache batches on the reader's thread.
        Measured against a synchronous per-event subscriber on the
        batched 512x512 case this halves the telemetry overhead — see
        docs/performance.md ("telemetry overhead")."""
        self._bus = bus
        self._cursor = 0
        return self

    def pump(self) -> int:
        """Reduce events published since the last pump.

        Returns the number of events consumed; 0 when no bus is
        connected.  If the ring lapped us the gap is skipped — counts
        derived from ``done`` events will undercount, which the
        ``run_done`` totals correct at the end of the run."""
        if self._bus is None:
            return 0
        # serialize concurrent readers (sampler + renderer both view()):
        # a racing drain would apply the same events twice
        with self._pump_lock:
            events, self._cursor = self._bus.events_since(self._cursor)
            for ev in events:
                self.on_event(ev)
        return len(events)

    def on_event(self, ev: Event) -> None:
        with self._lock:
            self.last_t = ev.t
            kind = ev.kind
            if kind == "task_done" or kind == "group_done":
                n = ev.count
                self.done += n
                if ev.kernel:
                    self.kernel_done[ev.kernel] = (
                        self.kernel_done.get(ev.kernel, 0) + n)
                    self.flops += self._flops_of.get(ev.kernel, 0.0) * n
                if ev.worker >= 0:
                    self.worker_kernel[ev.worker] = ""
            elif kind == "task_start" or kind == "group_start":
                self.started += ev.count
                if ev.worker >= 0:
                    self.worker_kernel[ev.worker] = ev.kernel
            elif kind == "frontier":
                self.frontier = int(ev.value)
            elif kind == "run_start":
                self.run_started = True
                if ev.total:
                    self.total = ev.total
                if ev.count:
                    self.workers = ev.count
            elif kind == "run_done":
                self.run_finished = True

    # ------------------------------------------------------------------
    @property
    def busy_workers(self) -> int:
        with self._lock:
            return sum(1 for k in self.worker_kernel.values() if k)

    def view(self) -> dict:
        """Consistent snapshot of every field.

        The pending events are pumped first, so a view is always
        current as of the call."""
        self.pump()
        with self._lock:
            return {
                "total": self.total,
                "started": self.started,
                "done": self.done,
                "flops": self.flops,
                "frontier": self.frontier,
                "workers": self.workers,
                "busy_workers": sum(
                    1 for k in self.worker_kernel.values() if k),
                "kernel_done": dict(self.kernel_done),
                "worker_kernel": dict(self.worker_kernel),
                "last_t": self.last_t,
                "run_started": self.run_started,
                "run_finished": self.run_finished,
            }
