"""Span-based tracing of real kernel executions (S17, S23).

A :class:`Tracer` records one :class:`Span` per retired group of
tasks — in the sequential executor a factor task or the stretch of
updates that follows it, in the transports a stacked group: which
kernel ran on which tile coordinates, for which member tasks, on which
worker, and the three wall-clock timestamps of its life cycle —
*submit* (ready), *start* (kernel entry), *finish* (kernel return).  All timestamps come from :func:`time.perf_counter`
and are stored relative to the tracer's epoch, so a capture starts
near ``t = 0``.  The runtimes record through one
:class:`~repro.runtime.lifecycle.Lifecycle`.

The recorder is a single lock-protected append; the executor's hot
path pays nothing when tracing is off because it is handed
:data:`NULL_TRACER` (or ``None``) and skips the calls entirely —
``NullTracer.enabled`` is ``False`` and every method is a no-op.

The distributed extension (S23) crosses the process boundary of the
shared-memory pool: a :class:`DistributedTracer` merges the parent
scheduler's dispatch/retire stamps with worker-side child spans
(*deserialize* / *kernel* / *publish*) that each worker ships back
with its end-of-run acknowledgement on the pool's completion queue,
aligned onto the parent's ``perf_counter`` timeline by an NTP-style
clock handshake (:func:`estimate_clock_sync`, one :class:`ClockSync`
per worker).
Every retired group becomes one :class:`TaskPhases` record — six
telescoping phases whose sum equals the group's wall-clock latency
*by construction* — plus a regular :class:`Span`, so everything that
consumes a plain tracer (``analyze_tracer``, Chrome export, overlay
diffs) keeps working unchanged.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..dag.tasks import KERNEL_CODES

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TaskPhases",
    "PHASES",
    "ClockSync",
    "estimate_clock_sync",
    "DistributedTracer",
]


@dataclass(slots=True)
class Span:
    """One executed group of tasks: identity, placement, wall-clock times.

    Attributes
    ----------
    tid : int
        Id of the group's first member (index into the graph's task
        list).
    name : str
        Human label: the task's, e.g. ``"TSMQR(3,1,1,2)"``, for a
        group of one, ``"TSMQR[x12]"`` for a group of twelve.
    kernel : str
        Kernel class name (``GEQRT`` ... ``TTMQR``).
    row, piv, col, j : int or None
        Tile coordinates of the first member (``piv``/``j`` are
        ``None`` for kernels that do not use them).
    worker : int
        Worker index (0-based).  0 for sequential runs.
    submit, start, finish : float
        Seconds since the tracer's epoch.  ``start``/``finish`` bound
        the group's measured kernel window; ``submit`` is the mean of
        the members' ready stamps, so ``queue_delay * count`` is their
        summed queue wait.
    count : int
        Tasks the span covers (the group size) — per-task figures
        normalize by it.
    aborted : bool
        The group was in flight when its run aborted (worker death or
        a propagated error); ``finish`` is the abort time, not a kernel
        return.
    tids : tuple of int
        The member task ids.
    """

    tid: int
    name: str
    kernel: str
    row: int
    piv: Optional[int]
    col: int
    j: Optional[int]
    worker: int
    submit: float
    start: float
    finish: float
    count: int = 1
    aborted: bool = False
    tids: tuple = ()

    @property
    def duration(self) -> float:
        """Kernel wall time in seconds (``finish - start``)."""
        return self.finish - self.start

    @property
    def queue_delay(self) -> float:
        """Seconds spent between submission and kernel entry."""
        return self.start - self.submit


def group_identity(graph, tids) -> tuple:
    """``(tid, name, kernel, row, piv, col, j)`` of the group ``tids``
    of ``graph``, read from its columns: the first member's id and
    tile coordinates, its label for a group of one and
    ``"KERNEL[xK]"`` for a group of ``K``."""
    t = int(tids[0])
    kernel = KERNEL_CODES[graph.codes[t]].value
    piv, j = int(graph.pivs[t]), int(graph.js[t])
    name = graph.label(t) if len(tids) == 1 else f"{kernel}[x{len(tids)}]"
    return (t, name, kernel, int(graph.rows[t]), None if piv < 0 else piv,
            int(graph.cols[t]), None if j < 0 else j)


@dataclass
class Tracer:
    """Thread-safe recorder of :class:`Span` objects.

    The runtimes call :meth:`record_group` (one short lock) once per
    retired group, naming the worker that ran it.  The span buffer is
    append-only; read it via :attr:`spans` after the run.
    """

    enabled: bool = True
    epoch: float = field(default_factory=time.perf_counter)
    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic, lock-free)."""
        return time.perf_counter() - self.epoch

    def record_group(self, graph, tids, submit: float, start: float,
                     finish: float, worker: int = 0,
                     aborted: bool = False) -> Span:
        """Append the span of the group ``tids`` of ``graph``; returns it.

        Labelled from the graph columns (:func:`group_identity`), so no
        :class:`~repro.dag.tasks.Task` object is built.  ``aborted``
        closes a span whose group never finished.
        """
        span = Span(*group_identity(graph, tids), worker=worker,
                    submit=submit, start=start, finish=finish,
                    count=len(tids), aborted=aborted, tids=tuple(tids))
        with self._lock:
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    @property
    def worker_count(self) -> int:
        """Number of worker lanes: the highest recorded worker + 1."""
        return max((s.worker for s in self.spans), default=-1) + 1

    def makespan(self) -> float:
        """``max(finish) - min(submit)`` over the capture (0 if empty)."""
        if not self.spans:
            return 0.0
        return (max(s.finish for s in self.spans)
                - min(s.submit for s in self.spans))

    def busy_fraction(self) -> float:
        """Fraction of worker-time inside kernels (1.0 = no idling)."""
        span = self.makespan()
        nw = self.worker_count
        if span <= 0 or nw == 0:
            return 1.0
        return sum(s.duration for s in self.spans) / (nw * span)


class NullTracer(Tracer):
    """Tracing disabled: every call is a no-op and records nothing.

    The executor checks :attr:`enabled` once up front and skips all
    per-task tracing work, so the hot path carries no extra locking or
    allocation; these methods exist only so a ``NullTracer`` is also
    safe to call directly.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False, epoch=0.0)

    def now(self) -> float:  # pragma: no cover - trivial
        return 0.0

    def record_group(self, graph, tids, submit, start, finish, worker=0,
                     aborted=False):
        return None


#: shared do-nothing tracer; pass this (or ``None``) to disable tracing
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# distributed tracing: lifecycle phases, clock alignment (S23)
# ----------------------------------------------------------------------

#: the lifecycle phases, in timeline order.  Each is the interval
#: between two adjacent boundaries of a :class:`TaskPhases` record, so
#: their sum telescopes to the group's wall-clock latency exactly.
PHASES = ("queued", "dispatched", "deserialized", "computing",
          "published", "retired")


@dataclass(slots=True)
class TaskPhases:
    """Lifecycle boundaries of one group of tasks, on the parent's timeline.

    Seven monotone timestamps (seconds since the tracer epoch) split a
    group's life into the six :data:`PHASES`:

    ======================  ==========================================
    ``queued``              ``ready → dispatch`` — sat in the parent's
                            ready frontier / prefetch budget
    ``dispatched``          ``dispatch → recv`` — descriptor pickling +
                            queue transfer + worker wake-up
    ``deserialized``        ``recv → start`` — worker-side unpack and
                            pre-kernel bookkeeping
    ``computing``           ``start → finish`` — the kernel itself
    ``published``           ``finish → publish`` — completion message +
                            telemetry enqueue on the worker
    ``retired``             ``publish → retire`` — done-queue transit
                            back + parent bookkeeping
    ======================  ==========================================

    ``ready`` is the mean of the members' ready stamps.  Worker-side
    boundaries (``recv``/``start``/``finish``/``publish``) are
    clock-aligned via the worker's :class:`ClockSync` and clamped
    monotone, so any alignment residual is absorbed into the adjacent
    phase rather than producing negative durations — the telescoping
    identity ``sum(phases) == latency`` holds exactly.

    For executors without a process boundary (sequential, threaded,
    batched) the degenerate mapping is ``ready = dispatch = submit``,
    ``recv = start``, ``publish = finish = retire``: everything lands
    in ``queued`` and ``computing``, which keeps reports comparable
    across all modes.

    The process transport ships several groups to a worker in one
    work message, paid for once: the message's first group carries
    its descriptor transit and its last group the completion publish
    and the retirement, each whole; a later group's wait for the
    earlier ones is ``queued`` — scheduling delay, not IPC.  So the
    per-phase sums over a run equal the true per-message costs.

    Two overlap rules keep the IPC phases honest on a saturated box:
    descriptor transit counts only from the later of the dispatch
    stamp and the worker's idle stamp (a descriptor prefetched while
    the worker was still computing waited deliberately), and the
    publish-to-retire gap excludes time the worker spent computing
    subsequent messages (the parent's completion processing was
    displaced by useful work, and that wait already shows up as the
    successors' ``queued`` delay).  Both overlaps are scheduling, not
    IPC; ``retired`` reports only transit + wake-up + bookkeeping.
    """

    tid: int
    name: str
    kernel: str
    worker: int
    ready: float
    dispatch: float
    recv: float
    start: float
    finish: float
    publish: float
    retire: float
    count: int = 1
    aborted: bool = False
    #: worker-side boundaries actually measured (False = parent-only
    #: fallback: the group aborted, or a worker died and no worker half
    #: of its run arrived)
    measured: bool = True
    #: the member task ids (``tid`` is the first)
    tids: tuple = ()

    # ------------------------------------------------------------------
    @property
    def queued(self) -> float:
        return self.dispatch - self.ready

    @property
    def dispatched(self) -> float:
        return self.recv - self.dispatch

    @property
    def deserialized(self) -> float:
        return self.start - self.recv

    @property
    def computing(self) -> float:
        return self.finish - self.start

    @property
    def published(self) -> float:
        return self.publish - self.finish

    @property
    def retired(self) -> float:
        return self.retire - self.publish

    @property
    def latency(self) -> float:
        """Wall-clock life of the group: ``retire - ready``."""
        return self.retire - self.ready

    @property
    def overhead(self) -> float:
        """Everything but the kernel: ``latency - computing``."""
        return self.latency - self.computing

    def phase(self, name: str) -> float:
        if name not in PHASES:
            raise KeyError(f"unknown phase {name!r} (choose from {PHASES})")
        return getattr(self, name)

    def to_dict(self) -> dict:
        d = {"tid": self.tid, "name": self.name, "kernel": self.kernel,
             "worker": self.worker, "count": self.count,
             "aborted": self.aborted, "measured": self.measured,
             "latency": self.latency}
        d.update({p: self.phase(p) for p in PHASES})
        return d


@dataclass(frozen=True)
class ClockSync:
    """One worker's ``perf_counter`` offset against the parent clock.

    ``offset`` is ``worker_clock - parent_clock`` at the estimate's
    midpoint; a worker stamp ``t_w`` maps onto the parent timeline as
    ``t_w - offset``.  ``residual`` is the uncertainty bound of that
    mapping (half the best round-trip — the classical NTP argument:
    the true offset lies within ±``rtt/2`` of the midpoint estimate).
    ``drift`` is the offset's rate of change per second against the
    previous estimate of the same worker (0 on the first sync).
    ``at`` is the parent ``perf_counter`` of the estimate.
    """

    worker: int
    offset: float
    residual: float
    rtt: float
    samples: int
    at: float
    drift: float = 0.0

    def aligned(self, t_worker: float) -> float:
        """Map a worker ``perf_counter`` stamp onto the parent clock."""
        return t_worker - self.offset

    def to_dict(self) -> dict:
        return {"worker": self.worker, "offset_s": self.offset,
                "residual_s": self.residual, "rtt_s": self.rtt,
                "samples": self.samples, "drift": self.drift}


def estimate_clock_sync(worker: int,
                        samples: list[tuple[float, float, float]],
                        prev: ClockSync | None = None) -> ClockSync:
    """NTP-style offset estimate from ping round-trips.

    Each sample is ``(t_send, t_worker, t_recv)``: parent
    ``perf_counter`` at ping send and reply receipt bracketing the
    worker's own stamp.  The minimum-RTT sample is the least
    contaminated by queue latency, so it alone provides the estimate:
    ``offset = t_worker - (t_send + t_recv) / 2`` with residual
    ``rtt / 2``.  ``prev`` (the same worker's previous estimate)
    yields the drift rate.
    """
    if not samples:
        raise ValueError("need at least one ping sample")
    t_send, t_worker, t_recv = min(samples, key=lambda s: s[2] - s[0])
    rtt = max(0.0, t_recv - t_send)
    mid = (t_send + t_recv) / 2.0
    offset = t_worker - mid
    drift = 0.0
    if prev is not None and mid > prev.at:
        drift = (offset - prev.offset) / (mid - prev.at)
    return ClockSync(worker=worker, offset=offset, residual=rtt / 2.0,
                     rtt=rtt, samples=len(samples), at=mid, drift=drift)


@dataclass
class DistributedTracer(Tracer):
    """Tracer that merges parent and worker spans on one timeline.

    The process pool drives it in three stages:

    1. :meth:`set_clock` after each run's sync handshake (one
       :class:`ClockSync` per worker, re-estimated every run so drift
       on a persistent pool stays bounded);
    2. during the run, :meth:`record_parent` per retired group
       (parent stamps); at the run's end, :meth:`add_worker_spans`
       once per worker with the rows it shipped behind its last
       completion (worker stamps, worker clock);
    3. :meth:`finalize` once every worker acknowledged the run's end
       — the run's parent and worker halves are snapshotted onto a
       backlog and the pending maps cleared (nothing accumulates
       across runs on a persistent pool).  The actual merge into
       :class:`TaskPhases` + :class:`Span` records is *lazy*: it runs
       on the first read of :attr:`phases` / :attr:`spans`, keeping
       the per-run tracing cost inside ``factor()`` to stamp capture
       alone.

    It is also a perfectly valid plain :class:`Tracer`: handed to the
    threaded or batched executor it records ordinary spans and
    :attr:`phases` stays empty (reports fall back to the degenerate
    two-phase view).
    """

    clocks: dict[int, ClockSync] = field(default_factory=dict)
    _parent: dict[int, tuple] = field(default_factory=dict, repr=False)
    _wspans: dict[int, tuple] = field(default_factory=dict, repr=False)
    #: finalized-but-unmerged runs: (parent, wspans, offsets) snapshots
    _backlog: list[tuple] = field(default_factory=list, repr=False)
    _phases: list[TaskPhases] = field(default_factory=list, repr=False)
    _merge_lock: threading.Lock = field(default_factory=threading.Lock,
                                        repr=False)

    @property
    def phases(self) -> list[TaskPhases]:
        """Merged lifecycle records (drains any finalized backlog)."""
        if self._backlog:
            self._drain_backlog()
        return self._phases

    @property
    def spans(self) -> list[Span]:
        if self._backlog:
            self._drain_backlog()
        return self._spans_store

    @spans.setter
    def spans(self, value: list[Span]) -> None:
        # the dataclass __init__ assigns the field through this setter
        self._spans_store = value

    # ------------------------------------------------------------------
    def set_clock(self, sync: ClockSync) -> None:
        with self._lock:
            self.clocks[sync.worker] = sync

    @property
    def max_residual(self) -> float:
        """Worst clock-alignment uncertainty across workers (seconds)."""
        with self._lock:
            return max((c.residual for c in self.clocks.values()),
                       default=0.0)

    def aligned(self, worker: int, t_worker: float) -> float:
        """A worker ``perf_counter`` stamp as seconds since the epoch."""
        sync = self.clocks.get(worker)
        off = sync.offset if sync is not None else 0.0
        return t_worker - off - self.epoch

    # ------------------------------------------------------------------
    def add_worker_spans(self, worker: int, rows) -> None:
        """Worker ``worker``'s half of a run (worker clock).

        One ``(tid, start, finish, recv, publish, free)`` row per
        executed group, keyed by its first member ``tid``: the kernel
        window ``start``/``finish``, and the stamps of the work message
        that carried it — its receipt ``recv``, its completion
        ``publish`` and the worker's idle stamp ``free`` before it.
        """
        with self._lock:
            for tid, *stamps in rows:
                self._wspans[tid] = (worker, *stamps)

    def record_parent(self, graph, tids, ready: float, dispatch: float,
                      retire: float, worker: int, dt: float = 0.0,
                      aborted: bool = False) -> None:
        """Parent-side half of the group ``tids`` of ``graph``:
        scheduler stamps (epoch-relative).

        ``dt`` is the worker-reported kernel seconds, used only as the
        fallback when the worker half never arrives (a worker died,
        which breaks the pool before any worker acknowledges the run's
        end).

        Lock-free: only the scheduler thread writes parent halves (one
        dict store, atomic under the GIL), and :meth:`finalize` swaps
        the map out under the lock before reading it.
        """
        self._parent[int(tids[0])] = (graph, tuple(tids), ready, dispatch,
                                      retire, worker, dt, aborted)

    # ------------------------------------------------------------------
    def finalize(self) -> int:
        """Close out one run; returns the number of tasks captured.

        Snapshots the run's parent/worker halves (plus the clock
        offsets in force) onto a merge backlog and clears the pending
        maps — a persistent pool calls this once per run, so per-run
        bookkeeping never outlives the run.  The O(tasks) merge is
        deferred to the first read of :attr:`phases` / :attr:`spans`,
        keeping ``finalize`` O(1) inside the timed run window.
        """
        with self._lock:
            parent, self._parent = self._parent, {}
            wspans, self._wspans = self._wspans, {}
            offsets = {w: c.offset + self.epoch
                       for w, c in self.clocks.items()}
        if parent:
            self._backlog.append((parent, wspans, offsets))
        return len(parent)

    def _drain_backlog(self) -> None:
        """Merge every finalized-but-unmerged run into phases/spans.

        Worker stamps are clamped monotone against the parent
        boundaries: the telescoping phase identity holds exactly and
        any clock-alignment residual is absorbed by adjacent phases.
        Guarded by its own lock (never ``_lock``) so property reads
        from inside locked :class:`Tracer` methods cannot deadlock.
        """
        with self._merge_lock:
            while self._backlog:
                parent, wspans, offsets = self._backlog.pop(0)
                self._merge_run(parent, wspans, offsets)

    def _merge_run(self, parent: dict, wspans: dict,
                   offsets: dict) -> int:
        # the groups of each work message, in execution order, and
        # per-worker busy windows (one per message, parent clock,
        # sorted): receipt to completion publish.  Execution is
        # sequential per worker, so the windows never overlap.  Used
        # below to keep completion-notice latency honest on a
        # saturated box.
        messages: dict[tuple, list] = {}
        for tid, (w, start, finish, recv, pub, _) in wspans.items():
            messages.setdefault((w, recv, pub), []).append(
                (start, finish, tid))
        prev_finish: dict[int, Optional[float]] = {}
        last = set()
        busy: dict[int, list[tuple[float, float]]] = {}
        for (w, recv, pub), grps in messages.items():
            grps.sort()
            last.add(grps[-1][2])
            for i, (_, _, tid) in enumerate(grps):
                prev_finish[tid] = grps[i - 1][1] if i else None
            off = offsets.get(w, self.epoch)
            busy.setdefault(w, []).append((recv - off, pub - off))
        busy_starts: dict[int, list[float]] = {}
        for w, win in busy.items():
            win.sort()
            busy_starts[w] = [lo for lo, _ in win]
        new_phases: list[TaskPhases] = []
        new_spans: list[Span] = []
        for tid in sorted(parent):
            (graph, tids, ready, dispatch, retire, worker, dt,
             aborted) = parent[tid]
            ws = wspans.get(tid)
            if ws is not None and not aborted:
                widx, start, finish, recv, publish, free = ws
                off = offsets.get(widx, self.epoch)
                start -= off
                finish -= off
                prev = prev_finish[tid]
                if prev is None:
                    # the message's first group pays its transit,
                    # counted only from the later of the dispatch stamp
                    # and the worker's idle stamp: a descriptor
                    # prefetched while the worker was still computing
                    # waited deliberately, and that overlap is
                    # scheduling delay (``queued``), not IPC work
                    recv -= off
                    dispatch = recv - max(0.0, recv - max(dispatch,
                                                          free - off))
                else:
                    # a later group waited on the earlier ones: queued
                    recv = dispatch = prev - off
                if tid in last:
                    publish -= off
                    # Same rule on the way back: a completion notice
                    # that sat while its worker computed subsequent
                    # prefetched messages was overlapped with useful
                    # work (on a saturated box the parent could not
                    # have run anyway), and that wait already surfaces
                    # as the successors' queueing delay — charging it
                    # to ``retired`` too would double-count it as IPC.
                    # Subtract the worker's busy windows from the
                    # publish->retire gap and charge only the uncovered
                    # remainder (transit + parent wake-up + completion
                    # processing).
                    defer = max(0.0, retire - publish)
                    win = busy.get(widx)
                    if defer > 0.0 and win:
                        i = bisect.bisect_left(busy_starts[widx], publish)
                        while i < len(win) and win[i][0] < retire:
                            lo, hi = win[i]
                            defer -= (min(hi, retire) - max(lo, publish))
                            i += 1
                        defer = max(0.0, defer)
                    retire = publish + defer
                else:
                    # the message's last group carries its completion
                    publish = retire = finish
                measured = True
            elif aborted:
                recv = start = finish = publish = retire
                measured = False
            else:
                # worker half missing (a worker died): reconstruct the
                # kernel window from the parent-side completion (dt
                # seconds ending at retire), leaving publish/retire
                # attribution empty
                start = retire - dt
                recv, finish, publish = start, retire, retire
                measured = False
            # clamp the 7 boundaries monotone (residual absorption)
            b = [ready, dispatch, recv, start, finish, publish, retire]
            for i in range(1, 7):
                if b[i] < b[i - 1]:
                    b[i] = b[i - 1]
            t0, name, kernel, row, piv, col, j = group_identity(graph, tids)
            new_phases.append(TaskPhases(
                tid=t0, name=name, kernel=kernel,
                worker=worker, ready=b[0], dispatch=b[1], recv=b[2],
                start=b[3], finish=b[4], publish=b[5], retire=b[6],
                count=len(tids), aborted=aborted, measured=measured,
                tids=tids))
            new_spans.append(Span(
                tid=t0, name=name, kernel=kernel, row=row, piv=piv,
                col=col, j=j, worker=worker, submit=b[1], start=b[3],
                finish=b[4], count=len(tids), aborted=aborted, tids=tids))
        self._phases.extend(new_phases)
        self._spans_store.extend(new_spans)
        return len(new_phases)

    @property
    def aborted_count(self) -> int:
        return sum(1 for p in self.phases if p.aborted)
