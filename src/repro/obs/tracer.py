"""Span-based tracing of real kernel executions (S17, S23).

A :class:`Tracer` records one :class:`Span` per retired task of the
threaded (or sequential) executor: which kernel ran on which tile
coordinates, on which worker thread, and the three wall-clock
timestamps of its life cycle — *submit* (handed to the pool), *start*
(kernel entry), *finish* (kernel return).  All timestamps come from
:func:`time.perf_counter` and are stored relative to the tracer's
epoch, so a capture starts near ``t = 0``.

The recorder is a single lock-protected append; the executor's hot
path pays nothing when tracing is off because it is handed
:data:`NULL_TRACER` (or ``None``) and skips the calls entirely —
``NullTracer.enabled`` is ``False`` and every method is a no-op.

The distributed extension (S23) crosses the process boundary of the
shared-memory pool: a :class:`DistributedTracer` merges the parent
scheduler's dispatch/retire stamps with worker-side child spans
(*deserialize* / *kernel* / *publish*) shipped back over the pool's
:class:`~repro.obs.stream.BusRelay`, aligned onto the parent's
``perf_counter`` timeline by an NTP-style clock handshake
(:func:`estimate_clock_sync`, one :class:`ClockSync` per worker).
Every retired task becomes one :class:`TaskPhases` record — six
telescoping phases whose sum equals the task's wall-clock latency *by
construction* — plus a regular :class:`Span`, so everything that
consumes a plain tracer (``analyze_tracer``, Chrome export, overlay
diffs) keeps working unchanged.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dag.tasks import Task

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
    """One executed task: identity, placement, and wall-clock times.

    Attributes
    ----------
    tid : int
        Task id (index into the graph's task list).
    name : str
        Human label, e.g. ``"TSMQR(3,1,1,2)"``.
    kernel : str
        Kernel class name (``GEQRT`` ... ``TTMQR``).
    row, piv, col, j : int or None
        Tile coordinates of the task (``piv``/``j`` are ``None`` for
        kernels that do not use them).
    worker : int
        Dense worker index (0-based; the order threads first touched
        the tracer).  0 for sequential runs.
    submit, start, finish : float
        Seconds since the tracer's epoch.
    count : int
        Tasks the span covers (1 except for the inline transport's
        group spans, where it is the group size — per-task means
        normalize by it).
    aborted : bool
        The task was in flight when its run aborted (worker death or a
        propagated error); ``finish`` is the abort time, not a kernel
        return.
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

    @property
    def duration(self) -> float:
        """Kernel wall time in seconds (``finish - start``)."""
        return self.finish - self.start

    @property
    def queue_delay(self) -> float:
        """Seconds spent between submission and kernel entry."""
        return self.start - self.submit


@dataclass
class Tracer:
    """Thread-safe recorder of per-task :class:`Span` objects.

    Workers call :meth:`now` (lock-free) for timestamps and
    :meth:`record` (one short lock) once per retired task.  The span
    buffer is append-only; read it via :attr:`spans` after the run.
    """

    enabled: bool = True
    epoch: float = field(default_factory=time.perf_counter)
    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _threads: dict[int, int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic, lock-free)."""
        return time.perf_counter() - self.epoch

    def worker_index(self) -> int:
        """Dense 0-based index of the calling thread (first-touch order)."""
        ident = threading.get_ident()
        with self._lock:
            idx = self._threads.get(ident)
            if idx is None:
                idx = len(self._threads)
                self._threads[ident] = idx
            return idx

    def record(self, task: "Task", submit: float, start: float,
               finish: float, worker: int | None = None,
               count: int = 1, aborted: bool = False) -> Span:
        """Append the span of one retired ``task``; returns it.

        ``count`` marks group spans covering several tasks (batched
        backend); ``aborted`` closes a span whose task never finished.
        """
        w = self.worker_index() if worker is None else worker
        span = Span(tid=task.tid, name=str(task), kernel=task.kernel.value,
                    row=task.row, piv=task.piv, col=task.col, j=task.j,
                    worker=w, submit=submit, start=start, finish=finish,
                    count=count, aborted=aborted)
        with self._lock:
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    @property
    def worker_count(self) -> int:
        """Number of distinct threads that recorded spans."""
        with self._lock:
            n = len(self._threads)
        return max(n, max((s.worker for s in self.spans), default=-1) + 1)

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

    def worker_index(self) -> int:  # pragma: no cover - trivial
        return 0

    def record(self, task, submit, start, finish, worker=None,
               count=1, aborted=False):
        return None


#: shared do-nothing tracer; pass this (or ``None``) to disable tracing
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# distributed tracing: lifecycle phases, clock alignment (S23)
# ----------------------------------------------------------------------

#: the task lifecycle phases, in timeline order.  Each is the interval
#: between two adjacent boundaries of a :class:`TaskPhases` record, so
#: their sum telescopes to the task's wall-clock latency exactly.
PHASES = ("queued", "dispatched", "deserialized", "computing",
          "published", "retired")


@dataclass(slots=True)
class TaskPhases:
    """Lifecycle boundaries of one task, on the parent's timeline.

    Seven monotone timestamps (seconds since the tracer epoch) split a
    task's life into the six :data:`PHASES`:

    ======================  ==========================================
    ``queued``              ``ready → dispatch`` — sat in the parent's
                            priority heap / prefetch budget
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

    Worker-side boundaries (``recv``/``start``/``finish``/``publish``)
    are clock-aligned via the worker's :class:`ClockSync` and clamped
    monotone, so any alignment residual is absorbed into the adjacent
    phase rather than producing negative durations — the telescoping
    identity ``sum(phases) == latency`` holds exactly.

    For executors without a process boundary (sequential, threaded,
    batched) the degenerate mapping is ``ready = dispatch = submit``,
    ``recv = start``, ``publish = finish = retire``: everything lands
    in ``queued`` and ``computing``, which keeps reports comparable
    across all three modes.

    Tasks dispatched as part of a micro-batch (``--batch``, S24) share
    one descriptor: transit, deserialize, publish and retirement were
    each paid once for the whole group, so every member is charged a
    ``1/K`` slice of those windows while its ``computing`` phase is an
    even split of the group's kernel window.  The wait for *earlier
    members of the same group* is attributed to ``queued`` —
    scheduling delay, not IPC — so the four IPC phases report the
    amortized per-task cost honestly and per-phase sums over a group
    equal the group's true one-time costs.

    Two overlap rules keep the IPC phases honest on a saturated box:
    descriptor transit counts only from the later of the dispatch
    stamp and the worker's idle stamp (a descriptor prefetched while
    the worker was still computing waited deliberately), and the
    publish-to-retire gap excludes time the worker spent computing
    subsequent descriptors (the parent's completion processing was
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
    #: fallback: the span record was dropped or the worker died)
    measured: bool = True

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
        """Wall-clock life of the task: ``retire - ready``."""
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
    2. during the run, :meth:`record_parent` per retirement (parent
       stamps) while the relay's span sink feeds
       :meth:`add_worker_span` (worker stamps, worker clock);
    3. :meth:`finalize` after the relay drained — the run's parent and
       worker halves are snapshotted onto a backlog and the pending
       maps cleared (nothing accumulates across runs on a persistent
       pool).  The actual merge into :class:`TaskPhases` +
       :class:`Span` records is *lazy*: it runs on the first read of
       :attr:`phases` / :attr:`spans`, keeping the per-run tracing
       cost inside ``factor()`` to stamp capture alone.

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
    def add_worker_span(self, fields: dict) -> None:
        """Relay span sink: worker-side stamps (worker clock).

        Accepts one task (scalar fields) or a worker's batched record
        (list-valued ``tid``/``recv``/``start``/``finish``/``publish``
        of equal length).  Micro-batched records additionally carry
        ``grecv``/``gpub``/``gsize`` — the group's shared receive and
        publish stamps plus its size — which the merge uses to
        amortize the once-per-group parent-side costs; when absent the
        task is treated as its own group of one.  Called from the
        relay pump thread; malformed records are dropped rather than
        killing the pump.
        """
        try:
            w = int(fields["worker"])
            tids = fields["tid"]
            if isinstance(tids, (list, tuple)):
                n = len(tids)
                grecv = fields.get("grecv", fields["recv"])
                gpub = fields.get("gpub", fields["publish"])
                gsize = fields.get("gsize", [1] * n)
                gfree = fields.get("gfree", [0.0] * n)
                recs = list(zip(tids, fields["recv"], fields["start"],
                                fields["finish"], fields["publish"],
                                grecv, gpub, gsize, gfree))
            else:
                recs = [(tids, fields["recv"], fields["start"],
                         fields["finish"], fields["publish"],
                         fields.get("grecv", fields["recv"]),
                         fields.get("gpub", fields["publish"]),
                         fields.get("gsize", 1),
                         fields.get("gfree", 0.0))]
        except (KeyError, TypeError):
            return
        with self._lock:
            for (tid, recv, start, finish, publish,
                 grecv, gpub, gs, gfree) in recs:
                try:
                    self._wspans[int(tid)] = (
                        w, float(recv), float(start), float(finish),
                        float(publish), float(grecv), float(gpub),
                        int(gs), float(gfree))
                except (TypeError, ValueError):
                    continue

    def record_parent(self, task: "Task", ready: float, dispatch: float,
                      retire: float, worker: int, dt: float = 0.0,
                      aborted: bool = False) -> None:
        """Parent-side half of one task: scheduler stamps (epoch-relative).

        ``dt`` is the worker-reported kernel seconds, used only as the
        fallback when the worker span record never arrives.

        Lock-free: only the scheduler thread writes parent halves (one
        dict store, atomic under the GIL), and :meth:`finalize` swaps
        the map out under the lock before reading it.
        """
        self._parent[task.tid] = (task, ready, dispatch, retire,
                                  worker, dt, aborted)

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
        new_phases: list[TaskPhases] = []
        new_spans: list[Span] = []
        # per-worker busy windows (one per descriptor, parent clock,
        # sorted): the deserialize->publish span of every group the
        # worker executed.  Execution is sequential per worker, so the
        # windows never overlap.  Used below to keep completion-notice
        # latency honest on a saturated box.
        busy: dict[int, list[tuple[float, float]]] = {}
        _seen: set = set()
        for ws in wspans.values():
            if len(ws) < 9:
                continue
            key = (ws[0], ws[5], ws[6])
            if key in _seen:
                continue
            _seen.add(key)
            off = offsets.get(ws[0], self.epoch)
            busy.setdefault(ws[0], []).append((ws[5] - off, ws[6] - off))
        busy_starts: dict[int, list[float]] = {}
        for w, win in busy.items():
            win.sort()
            busy_starts[w] = [lo for lo, _ in win]
        for tid in sorted(parent):
            task, ready, dispatch, retire, worker, dt, aborted = parent[tid]
            ws = wspans.get(tid)
            if ws is not None and not aborted:
                widx, recv, start, finish, publish = ws[:5]
                if len(ws) >= 9:
                    grecv, gpub, gsize, gfree = ws[5:9]
                else:
                    grecv, gpub, gsize, gfree = recv, publish, 1, 0.0
                off = offsets.get(widx, self.epoch)
                recv -= off
                start -= off
                finish -= off
                publish -= off
                if len(ws) >= 9:
                    # group-aware attribution: the descriptor transit
                    # (dispatch -> group recv) and the retirement
                    # (group publish -> retire) were each paid once
                    # per descriptor, so charge this member a 1/K
                    # slice of each.  Transit counts only from the
                    # later of the dispatch stamp and the worker's
                    # idle stamp: a descriptor prefetched while the
                    # worker was still computing waited deliberately,
                    # and that overlap — like the wait for earlier
                    # members of the same group — is scheduling delay
                    # (``queued``), not IPC work.
                    grecv -= off
                    gpub -= off
                    gfree -= off
                    transit = max(0.0, grecv - max(dispatch, gfree))
                    dispatch = recv - transit / gsize
                    # Same rule on the way back: a completion notice
                    # that sat while its worker computed subsequent
                    # prefetched descriptors was overlapped with
                    # useful work (on a saturated box the parent
                    # could not have run anyway), and that wait
                    # already surfaces as the successors' queueing
                    # delay — charging it to ``retired`` too would
                    # double-count it as IPC.  Subtract the worker's
                    # busy windows from the publish->retire gap and
                    # charge only the uncovered remainder (transit +
                    # parent wake-up + completion processing).
                    defer = max(0.0, retire - gpub)
                    win = busy.get(widx)
                    if defer > 0.0 and win:
                        i = bisect.bisect_left(busy_starts[widx], gpub)
                        while i < len(win) and win[i][0] < retire:
                            lo, hi = win[i]
                            defer -= (min(hi, retire) - max(lo, gpub))
                            i += 1
                        defer = max(0.0, defer)
                    retire = publish + defer / gsize
                measured = True
            elif aborted:
                recv = start = finish = publish = retire
                measured = False
            else:
                # span record dropped: reconstruct the kernel window
                # from the parent-side completion (dt seconds ending
                # at retire), leaving publish/retire attribution empty
                start = retire - dt
                recv, finish, publish = start, retire, retire
                measured = False
            # clamp the 7 boundaries monotone (residual absorption)
            b = [ready, dispatch, recv, start, finish, publish, retire]
            for i in range(1, 7):
                if b[i] < b[i - 1]:
                    b[i] = b[i - 1]
            name = str(task)
            kernel = task.kernel.value
            new_phases.append(TaskPhases(
                tid=tid, name=name, kernel=kernel,
                worker=worker, ready=b[0], dispatch=b[1], recv=b[2],
                start=b[3], finish=b[4], publish=b[5], retire=b[6],
                aborted=aborted, measured=measured))
            new_spans.append(Span(
                tid=tid, name=name, kernel=kernel,
                row=task.row, piv=task.piv, col=task.col, j=task.j,
                worker=worker, submit=b[1], start=b[3], finish=b[4],
                aborted=aborted))
        self._phases.extend(new_phases)
        self._spans_store.extend(new_spans)
        return len(new_phases)

    @property
    def aborted_count(self) -> int:
        return sum(1 for p in self.phases if p.aborted)
