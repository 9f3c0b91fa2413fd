"""The process transport: groups on worker processes (S22).

The inline transport (:mod:`repro.runtime.batched`) drives every
stacked kernel from one GIL-bound Python thread.  This transport runs
the same groups on worker processes:

* **Worker processes, zero-copy tiles.**  A persistent
  :class:`ProcessPool` of worker processes operates *in place* on a
  :class:`~repro.tiles.shared_pool.SharedTilePool` — the same
  ``(p * q, nb, nb)`` slot-addressed stack the other transports use,
  in :mod:`multiprocessing.shared_memory` — through the
  :class:`~repro.runtime.group_executor.GroupExecutor`.  Only group
  descriptors (tids, kernel, tile coordinates, T slots) cross the
  queues; tile data never does.  The T store is a second shared
  segment, so apply kernels read their source ``T`` without pickling
  either.
* **One work message, one completion.**  The parent pops groups from
  the :class:`~repro.runtime.groups.FrontierCore` the moment their
  last predecessor retires, critical path first, and places them on
  the least-loaded worker; all groups bound for one worker in a
  dispatch wave travel as one ``("groups", ...)`` message and come
  back as one ``("retired", ...)`` completion.  Each worker holds at
  most a small number of in-flight tasks so priority stays meaningful
  while queue latency hides behind execution.
* **Telemetry on the parent.**  The parent records every group
  through the run's :class:`~repro.runtime.lifecycle.Lifecycle` —
  ``group_start`` at dispatch, ``group_done`` at retirement, with the
  kernel window the worker measured — so ``--progress`` and ``repro
  top`` work unchanged.  Workers publish nothing to the bus; under a
  :class:`~repro.obs.tracer.DistributedTracer` each buffers its span
  stamps and ships them with its end-of-run ``("closed", ...)``
  acknowledgement on the completion queue.  One worker is the only
  producer of its messages on that queue, so they arrive in order:
  once every worker has acknowledged, the parent holds every half.

Correctness rests on two established facts: every pair of conflicting
tile accesses is DAG-ordered (the completion round-trip through the
parent gives cross-process happens-before), and zero-padded slots are
exact for every kernel (see :mod:`repro.tiles.pool`).  A group runs
the same way whichever worker takes it and whatever else it holds, so
with either backend ``R`` is byte-equal at every batch size, worker
count and start method, and to the inline and thread transports' runs
of the same backend.  With the reference backend (the default for
complex dtypes) on exactly tiled shapes it is also byte-equal to
sequential task mode's; otherwise results match it to rounding.

Reached via ``execute_graph`` with ``ExecOptions(mode="process")`` /
``repro.api.factor(..., mode="process")`` / ``repro factor --mode
process``; reuse a :class:`ProcessPool` across runs to amortize
worker start-up (significant under the ``spawn`` start method).
"""

from __future__ import annotations

import ctypes
import os
import queue as queue_mod
import time
import traceback
from typing import Optional

import numpy as np

from ..dag.tasks import KERNEL_CODES
from ..kernels.geqrt import panel_starts
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import DistributedTracer, estimate_clock_sync
from ..tiles.layout import TiledMatrix
from ..tiles.shared_pool import SharedArray, SharedTilePool
from .executor import ExecutionContext, _prepare
from .group_executor import GroupExecutor, record_tfactors
from .groups import SIZE_BUCKETS, FrontierCore, dedup_hits, resolve_batch
from .options import ExecOptions, resolve_backend

__all__ = ["ProcessPool", "blas_threads", "execute_process"]

_CODE_TO_NAME = tuple(k.value for k in KERNEL_CODES)

#: tasks a worker may hold queued beyond the one it is executing —
#: enough to hide queue latency, small enough that the parent's
#: priority order is what actually runs.  The cap counts *tasks*, not
#: groups: a group may carry many tasks, and a group-counted cap
#: would let one worker hoard ``(1 + _PREFETCH) * batch`` tasks while
#: its siblings idle.
_PREFETCH = 2

#: seconds between liveness checks while waiting for completions
_POLL_S = 1.0

#: clock-sync pings per worker: at least ``_SYNC_PINGS`` on a worker's
#: first sync (half on a re-sync), then more until the fastest round
#: trip bounds the offset within ``_SYNC_RESIDUAL_S``, at most
#: ``_SYNC_PINGS_MAX`` in all, so a few slow replies on a loaded host
#: do not set the residual
_SYNC_PINGS = 8
_SYNC_PINGS_MAX = 64
_SYNC_RESIDUAL_S = 1e-3

#: environment knobs that size a BLAS thread pool when the library
#: initializes.  Set around worker start-up, they reach only children
#: that load BLAS afresh (spawn, forkserver); a fork child inherits the
#: parent's initialized pools, so every worker also calls
#: :func:`blas_threads` first (see docs/performance.md).
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: (set, get) thread-count symbols of the OpenBLAS builds numpy and
#: scipy bundle: 64-bit-int scipy-openblas, 32-bit, plain OpenBLAS
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas() -> list:
    """``(set, get)`` thread-count functions of every OpenBLAS mapped
    into this process.

    The libraries are found in ``/proc/self/maps`` (none where it does
    not exist) and opened with ``RTLD_NOLOAD``, so nothing that is not
    already loaded gets loaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREADS:
            if hasattr(lib, setter):
                found.append((getattr(lib, setter), getattr(lib, getter)))
                break
    return found


def blas_threads(n: Optional[int] = None) -> list[int]:
    """Set every loaded OpenBLAS to ``n`` threads (when given) and
    return each one's thread count.

    numpy and scipy each bundle their own OpenBLAS; the LAPACK tile
    kernels call scipy's.  A worker calls this with ``n=1`` before
    anything else: a fork child would otherwise keep the parent's
    thread count in both, and two workers each running a multi-thread
    BLAS pool on shared cores oversubscribe them.
    """
    libs = _loaded_openblas()
    if n is not None:
        for setter, _ in libs:
            setter(n)
    return [getter() for _, getter in libs]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class _WorkerRun:
    """One run's worker state: the mapped segments and their executor."""

    __slots__ = ("stack_sa", "tstore_sa", "ex", "trace", "spans")

    def __init__(self, stack_handle, tstore_handle, cfg: dict):
        self.stack_sa = SharedArray.attach(stack_handle)
        self.tstore_sa = SharedArray.attach(tstore_handle)
        self.ex = GroupExecutor(self.stack_sa.array, self.tstore_sa.array,
                                cfg["q"], cfg["ib"], cfg["backend"])
        self.trace = cfg.get("trace", False)
        #: (first tid, start, finish, message recv, message publish,
        #: idle) stamps, one row per executed group, shipped at endrun
        self.spans: list = []

    def close(self) -> None:
        self.ex = None  # drop every view before unmapping
        self.stack_sa.close()
        self.tstore_sa.close()


def _run_groups(state: _WorkerRun, widx: int, groups, free_t: float,
                done_q) -> None:
    """Execute one work message: groups in dispatch order.

    The groups share one queue round-trip and one ``"retired"``
    completion, which carries each group's kernel window.  A failure
    mid-message reports the failed group and everything after it as
    one ``"error"`` (the parent books them out of flight together)
    while the completed prefix still retires.
    """
    recv_t = time.perf_counter()
    done: list = []   # (tids, t0, t1) per group
    for gi, grp in enumerate(groups):
        t0 = time.perf_counter()
        try:
            state.ex.run(grp[1], *grp[2:])
        except BaseException:
            rem = tuple(t for g in groups[gi:] for t in g[0])
            done_q.put(("error", widx, rem, traceback.format_exc()))
            break
        done.append((grp[0], t0, time.perf_counter()))
    if not done:
        return
    done_q.put(("retired", widx, tuple(done)))
    if state.trace:
        # the message's stamps ride with each of its groups, so the
        # tracer charges its transit and publish once per message
        pub_t = time.perf_counter()
        state.spans.extend((tids[0], t0, t1, recv_t, pub_t, free_t)
                           for tids, t0, t1 in done)


def _worker_main(widx: int, inq, done_q) -> None:
    """Worker process loop: attach per run, execute groups, report.

    Must stay importable at module level for the ``spawn`` start
    method.  It first pins every loaded OpenBLAS to one thread
    (:func:`blas_threads`).  Every exception is shipped to the parent
    as a formatted traceback — a worker never dies on a task failure.

    Work arrives as ``("groups", groups)`` messages (see
    :func:`_run_groups`).  When the run is traced (``cfg["trace"]``)
    the worker buffers each group's kernel entry/return stamps with
    its message's receipt and completion-published stamps, and ships
    the rows with its ``("closed", widx, rows)`` acknowledgement of
    ``endrun``: behind every completion of the run on the same queue,
    so tracing costs no queue put of its own.  A ``("sync", token)``
    message answers with the worker's own clock reading
    (``("sync_ack", widx, token, t)``): the parent's NTP-style
    handshake that aligns those stamps onto its timeline.
    """
    blas_threads(1)
    state: _WorkerRun | None = None
    while True:
        # free_t marks the moment this worker went idle: any message
        # already sitting in the inbox was overlapped with useful work,
        # so the tracer charges ``dispatched`` only from max(dispatch,
        # free) — deliberate prefetch overlap is queueing, not IPC
        free_t = time.perf_counter()
        msg = inq.get()
        kind = msg[0]
        if kind == "groups":
            _run_groups(state, widx, msg[1], free_t, done_q)
        elif kind == "sync":
            done_q.put(("sync_ack", widx, msg[1], time.perf_counter()))
        elif kind == "run":
            _, stack_handle, tstore_handle, cfg = msg
            try:
                state = _WorkerRun(stack_handle, tstore_handle, cfg)
            except BaseException:
                done_q.put(("error", widx, -1, traceback.format_exc()))
                continue
            done_q.put(("ready", widx))
        elif kind == "endrun":
            rows = ()
            if state is not None:
                rows = state.spans
                state.close()
                state = None
            done_q.put(("closed", widx, rows))
        else:  # "stop"
            if state is not None:
                state.close()
            return


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

def _resolve_start_method(start_method: Optional[str]) -> str:
    import multiprocessing as mp

    if start_method is None:
        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    if start_method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {start_method!r} not available; choose from "
            f"{mp.get_all_start_methods()}")
    return start_method


class ProcessPool:
    """Persistent pool of kernel worker processes.

    Workers start lazily on the first :meth:`run` and persist across
    runs (per-run cost is two shared-memory attaches per worker),
    which matters under ``spawn`` where each worker pays a full
    interpreter + NumPy import at start-up.  Close with
    :meth:`close` or use as a context manager::

        with ProcessPool(workers=4) as pool:
            ctx1 = pool.run(plan1, tiled1)
            ctx2 = pool.run(plan2, tiled2)   # same workers

    Parameters
    ----------
    workers : int or None
        Worker process count (default ``os.cpu_count()``).
    start_method : {"fork", "spawn", "forkserver"} or None
        ``multiprocessing`` start method; ``None`` picks ``fork``
        where available (fast start-up; see docs/performance.md for
        the fork-vs-spawn trade-offs).
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        import multiprocessing as mp

        self.start_method = _resolve_start_method(start_method)
        self.workers = (int(workers) if workers is not None
                        else (os.cpu_count() or 1))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._ctx = mp.get_context(self.start_method)
        self._inqs: list = []
        self._done_q = None
        self._procs: list = []
        self._closed = False
        self._broken = False
        # per-run state, reset every run — a persistent pool must not
        # accumulate per-run bookkeeping: an observed run's in-flight
        # groups (first tid -> (tids, worker, dispatch stamp)); and the
        # previous clock estimate per worker, so re-syncs can report
        # drift
        self._pending: dict[int, tuple] = {}
        self._clock_prev: dict = {}

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_started(self) -> None:
        if self._procs:
            return
        if self._closed or self._broken:
            raise RuntimeError("process pool is closed")
        # Start the resource tracker *before* forking: children inherit
        # the running tracker's pipe, so their attach-side shared-memory
        # registrations collapse into the parent's (set-idempotent) and
        # the owner's unlink leaves it clean.  A tracker first started
        # inside a fork child would be private to it and warn about
        # "leaked" segments the parent already unlinked.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
        self._done_q = self._ctx.Queue()
        saved = {k: os.environ.get(k) for k in _BLAS_ENV}
        try:
            for k in _BLAS_ENV:
                os.environ[k] = "1"
            for widx in range(self.workers):
                inq = self._ctx.Queue()
                p = self._ctx.Process(
                    target=_worker_main, args=(widx, inq, self._done_q),
                    name=f"repro-worker-{widx}", daemon=True)
                p.start()
                self._inqs.append(inq)
                self._procs.append(p)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for inq in self._inqs:
            try:
                inq.put(("stop",))
            except Exception:
                pass
        for p in self._procs:
            p.join(timeout)
            if p.is_alive():
                p.terminate()
                p.join(1.0)
        for q in self._inqs + ([self._done_q] if self._done_q else []):
            q.close()
        self._inqs, self._procs, self._done_q = [], [], None

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        """Mark the pool broken, close it and raise ``message``."""
        self._broken = True
        self.close(timeout=0.1)
        raise RuntimeError(message)

    def _check_alive(self) -> None:
        dead = [(p.name, p.exitcode) for p in self._procs
                if not p.is_alive()]
        if dead:
            self._fail(f"worker process(es) died: {dead}; the pool is closed")

    def _recv(self, deadline: float, what: str) -> tuple:
        """The next control message; a dead worker, an ``"error"``
        reply or the ``deadline`` (``time.monotonic``) breaks the pool."""
        while True:
            try:
                msg = self._done_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                self._check_alive()
                if time.monotonic() > deadline:
                    self._fail(f"timed out waiting for {what}")
                continue
            if msg[0] == "error":
                self._fail(f"worker failed during {what}:\n{msg[3]}")
            return msg

    def _sync_clocks(self, dtracer: DistributedTracer,
                     metrics: MetricsRegistry | None) -> None:
        """NTP-style clock handshake with every worker.

        Each ping records ``(t_send, t_worker, t_recv)`` on the
        parent's ``perf_counter``; the minimum-RTT sample bounds the
        worker's clock offset to within half that round-trip.  Pinging
        goes on past the first ``_SYNC_PINGS`` until that bound is
        under ``_SYNC_RESIDUAL_S`` (or ``_SYNC_PINGS_MAX`` pings went
        out).  Runs at the start of every traced run, so a persistent
        pool re-syncs periodically and the drift since the previous
        estimate is reported alongside the offset.
        """
        for w, inq in enumerate(self._inqs):
            samples: list[tuple[float, float, float]] = []
            # first sync of a worker takes the full ping budget; later
            # re-syncs only refresh drift, so half the pings suffice
            n_pings = _SYNC_PINGS if w not in self._clock_prev \
                else _SYNC_PINGS // 2
            best_rtt = float("inf")
            for tok in range(_SYNC_PINGS_MAX):
                if tok >= n_pings and best_rtt / 2 < _SYNC_RESIDUAL_S:
                    break
                t_send = time.perf_counter()
                inq.put(("sync", tok))
                deadline = time.monotonic() + 30.0
                while True:  # skip stale messages of an aborted run
                    msg = self._recv(deadline, f"clock sync of worker {w}")
                    if msg[:3] == ("sync_ack", w, tok):
                        break
                t_recv = time.perf_counter()
                samples.append((t_send, msg[3], t_recv))
                best_rtt = min(best_rtt, t_recv - t_send)
            sync = estimate_clock_sync(w, samples,
                                       prev=self._clock_prev.get(w))
            self._clock_prev[w] = sync
            dtracer.set_clock(sync)
            if metrics is not None:
                metrics.gauge(f"procpool.clock.offset_us.w{w}",
                              keep_samples=False).set(sync.offset * 1e6)
                metrics.gauge(f"procpool.clock.residual_us.w{w}",
                              keep_samples=False).set(sync.residual * 1e6)

    def run(
        self,
        graph,
        tiled: TiledMatrix,
        options: ExecOptions | None = None,
        *,
        ib: int = 32,
        on_task_done=None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        bus=None,
    ) -> ExecutionContext:
        """Execute a factorization DAG on the worker pool.

        Parameters mirror :func:`~repro.runtime.execute_graph`.  Of
        ``options`` the pool reads ``backend`` (the factor kernels the
        workers run, :func:`~repro.runtime.options.resolve_backend`) and ``batch`` (frontier micro-batching: see
        :func:`repro.runtime.groups.resolve_batch`); its own worker
        count and start method stand.  Compatible ready tasks ship as
        one group descriptor, amortizing the queue round-trip and
        deserialization across the group; its applies run as stacked
        kernels.  Returns an
        :class:`~repro.runtime.executor.ExecutionContext` whose T
        factors were copied out of shared memory, so ``apply_q``
        replay works exactly as for the other backends.
        """
        opts = ExecOptions() if options is None else options
        bk = resolve_backend(opts.backend, "process", tiled.array.dtype)
        plan, ctx, life = _prepare(graph, tiled, bk, ib, tracer, metrics,
                                   bus, on_task_done, self.workers)
        g, metrics, ib = ctx.graph, ctx.metrics, ctx.ib
        panel_starts(tiled.nb, ib)  # validate ib >= 1 before dispatch
        n = len(g)
        if metrics is not None:
            metrics.counter(f"procpool.start_method.{self.start_method}"
                            ).inc()
            metrics.counter(f"procpool.backend.{bk.name}").inc()
        if n == 0:
            return ctx
        self._ensure_started()

        weights = g.index().weights
        batch_size = resolve_batch(opts.batch, tiled.nb,
                                   float(weights.mean()),
                                   workers=self.workers)
        if metrics is not None:
            metrics.gauge("procpool.batch.size", keep_samples=False).set(
                batch_size)
        core = FrontierCore(plan if plan is not None else g, batch_size,
                            metrics)
        da = core.da

        pool = SharedTilePool(tiled)
        tstore = SharedArray(
            GroupExecutor.tstore_shape(da.nfactor, tiled.nb, ib),
            tiled.array.dtype)
        try:
            dtracer = (ctx.tracer if isinstance(ctx.tracer,
                                                DistributedTracer)
                       else None)
            cfg = {"ib": ib, "q": tiled.q, "backend": bk.name,
                   "trace": dtracer is not None}
            for inq in self._inqs:
                inq.put(("run", pool.handle(), tstore.handle(), cfg))
            self._await("ready", self.workers)
            if dtracer is not None:
                # handshake at every run start = periodic re-sync on a
                # persistent pool; the previous estimate feeds drift
                self._sync_clocks(dtracer, metrics)
            if life is not None:
                life.run_start(self.workers)
            err: BaseException | None = None
            try:
                self._schedule(core, batch_size, metrics, life)
            except BaseException as exc:
                err = exc
            # detach the workers even after a failed run, so the pool
            # stays reusable (skip when a dead worker closed the pool).
            # Each ack trails its worker's completions on the one
            # queue, so the acks carry every worker half of the run.
            if self._procs:
                try:
                    for inq in self._inqs:
                        inq.put(("endrun",))
                    for _, w, rows in self._await("closed", self.workers):
                        if dtracer is not None:
                            dtracer.add_worker_spans(w, rows)
                except Exception as exc:
                    if err is None:
                        err = exc
            if dtracer is not None:
                dtracer.finalize()
            if err is not None:
                raise err
            if life is not None:
                life.run_done()
            # one copy of the T store out of shared memory before the
            # unlink; the context's T factors are views into it
            record_tfactors(ctx, da, np.array(tstore.array))
            pool.scatter()
        finally:
            pool.close()
            tstore.close()
        return ctx

    # ------------------------------------------------------------------
    def _await(self, expect: str, count: int,
               deadline_s: float = 60.0) -> list:
        """The next ``count`` acks of kind ``expect``."""
        deadline = time.monotonic() + deadline_s
        acks: list = []
        while len(acks) < count:
            msg = self._recv(deadline, f"worker {expect!r} acks")
            # anything else is a stale completion from an aborted run
            if msg[0] == expect:
                acks.append(msg)
        return acks

    def _schedule(self, core, batch_size, metrics, life) -> None:
        """Rolling ready-frontier over the core, in micro-batches.

        Tasks are dispatched the moment their last predecessor
        retires, highest bottom-level first, grouped with up to
        ``batch_size - 1`` compatible (same-kernel) ready peers per
        group, to the worker with the least outstanding *weight*
        (Table-1 units).  The in-flight cap counts constituent
        *tasks*, not groups, so one giant group can never hoard a
        multiple of the intended prefetch depth while other workers
        starve: ``1 + _PREFETCH`` tasks for unbatched dispatch, two
        groups' worth (``2 * batch_size``) when batching — with a
        refill hysteresis that tops a worker up only once it is down
        to its final group, letting ready successors pool into full
        groups between refills.

        Each group is recorded into ``life`` at dispatch and at
        retirement, its kernel window placed so the work message's
        last group ends at the retirement; a group still in flight
        when the run aborts is closed as aborted.
        """
        da, weights = core.da, core.weights
        codes, src = da.codes, da.src
        n = len(codes)
        W = self.workers
        # each task's ready stamp, and the in-flight groups by first
        # tid (emptied when the run ends)
        pending = self._pending
        pending.clear()
        ready_at = None
        if life is not None:
            ready_at = np.zeros(n)
            ready_at[core.sources] = time.perf_counter()
        load = [0] * W          # in-flight tasks (the capacity unit)
        wload = [0.0] * W       # in-flight weight (the placement key)
        outstanding = 0
        completed = 0
        abort_exc: BaseException | None = None
        # batch == 1: the classic rolling frontier — dispatch the
        # moment a worker has room, _PREFETCH tasks deep.  batch > 1:
        # keep the pipeline two groups deep with a refill *hysteresis*
        # — top a worker up only once it is down to its last group's
        # worth of tasks, so ready successors pool in the frontier
        # between refills and form full groups instead of draining one
        # by one as singletons (transit stays hidden behind the
        # in-flight group).
        cap = 1 + _PREFETCH if batch_size == 1 else 2 * batch_size
        refill_at = cap - batch_size
        track_batch = metrics is not None and batch_size > 1

        def _encode(code, tids) -> tuple:
            return (tuple(tids), int(code)) + tuple(
                tuple(col.tolist()) for col in da.take(tids))

        def dispatch() -> None:
            nonlocal outstanding
            # one stamp per dispatch wave — groups popped in the same
            # wave leave the scheduler together
            t_disp = time.perf_counter() if life is not None else 0.0
            # groups bound for the same worker in this dispatch wave
            # share ONE work message: the heavy apply group and the
            # lone factor task popped next to it share a single queue
            # round-trip and a single completion.
            out: dict[int, list] = {}
            while len(core) and abort_exc is None:
                cands = [i for i in range(W) if load[i] <= refill_at]
                if not cands:
                    break
                w = min(cands, key=lambda i: (wload[i], load[i]))
                code, tids = core.pop(limit=cap - load[w])
                if life is not None:
                    pending[tids[0]] = (tids, w, t_disp)
                    life.group_start(code, tids, w)
                out.setdefault(w, []).append(_encode(code, tids))
                k = len(tids)
                load[w] += k
                wload[w] += float(weights[tids].sum())
                outstanding += k
                if metrics is not None:
                    metrics.counter("procpool.dispatched").inc(k)
                    if track_batch:
                        metrics.counter("procpool.batch.groups").inc()
                        metrics.histogram(
                            "procpool.batch.group_size",
                            buckets=SIZE_BUCKETS).observe(k)
                        if k > 1 and int(src[tids[0]]) >= 0:
                            hits = dedup_hits(src[tids])
                            if hits:
                                metrics.counter(
                                    "procpool.batch.dedup_hits").inc(hits)
            for w, groups in out.items():
                self._inqs[w].put(("groups", tuple(groups)))
                if track_batch:
                    metrics.counter("procpool.batch.descriptors").inc()

        def book_out(w: int, tids) -> None:
            nonlocal outstanding
            load[w] -= len(tids)
            wload[w] -= float(weights[list(tids)].sum())
            outstanding -= len(tids)

        try:
            dispatch()
            if life is not None:
                life.frontier(len(core), outstanding + len(core))
            while completed < n:
                if abort_exc is not None and outstanding == 0:
                    break
                try:
                    msg = self._done_q.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    self._check_alive()
                    continue
                kind = msg[0]
                if kind == "retired":
                    # one completion for a whole work message
                    _, w, parts = msg
                    all_tids = [t for tids, _, _ in parts for t in tids]
                    book_out(w, all_tids)
                    completed += len(all_tids)
                    if abort_exc is not None:
                        continue  # left in flight: closed as aborted
                    newly = core.retire(all_tids)
                    if life is not None:
                        now = time.perf_counter()
                        ready_at[newly] = now
                        shift = now - parts[-1][2]
                        try:
                            for tids, t0, t1 in parts:
                                _, _, t_disp = pending.pop(tids[0])
                                ids = np.asarray(tids, dtype=np.int64)
                                life.group_done(
                                    int(codes[tids[0]]), ids, w, t0 + shift,
                                    t1 + shift, ready_at[ids],
                                    dispatch=t_disp)
                        except BaseException as exc:
                            abort_exc = exc
                    if abort_exc is None:
                        dispatch()
                    if life is not None:
                        life.frontier(len(core), outstanding + len(core))
                elif kind == "error":
                    _, w, tids, tb = msg
                    book_out(w, tids)
                    completed += len(tids)
                    if abort_exc is None:
                        abort_exc = RuntimeError(
                            f"task {tids[0]} "
                            f"({_CODE_TO_NAME[int(codes[tids[0]])]}) "
                            f"failed in worker {w}:\n{tb}")
                # "ready"/"closed" acks never interleave with completions
        finally:
            # close the groups of an aborted run (worker death, error,
            # observer exception) that never retired: tagged, never
            # dropped
            if pending:
                now = time.perf_counter()
                for tids, w, t_disp in pending.values():
                    life.group_aborted(tids, w, ready_at[tids], t_disp, now)
                pending.clear()
        if abort_exc is not None:
            raise abort_exc


def execute_process(
    graph,
    tiled: TiledMatrix,
    options: ExecOptions | None = None,
    *,
    ib: int = 32,
    on_task_done=None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    bus=None,
) -> ExecutionContext:
    """Run a factorization DAG on worker processes (one-shot helper).

    Usually reached via ``execute_graph`` with
    ``ExecOptions(mode="process")``.  Runs on ``options.pool`` when
    given, else on an ephemeral :class:`ProcessPool` of
    ``options.workers`` workers started with ``options.start_method``
    — reuse a pool when factoring repeatedly, especially under
    ``spawn``.
    """
    opts = ExecOptions() if options is None else options
    kw = dict(ib=ib, on_task_done=on_task_done, tracer=tracer,
              metrics=metrics, bus=bus)
    if opts.pool is not None:
        return opts.pool.run(graph, tiled, opts, **kw)
    with ProcessPool(workers=opts.workers,
                     start_method=opts.start_method) as p:
        return p.run(graph, tiled, opts, **kw)
