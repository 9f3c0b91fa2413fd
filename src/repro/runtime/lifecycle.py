"""The one lifecycle recorder every transport reports through.

A run's observers — the span :class:`~repro.obs.tracer.Tracer`, the
:class:`~repro.obs.metrics.MetricsRegistry`, the live
:class:`~repro.obs.stream.EventBus` and the ``on_task_done`` callback
— all consume the same few facts: the run started, a group of
same-kernel tasks was handed to a worker, that group ran from one
stamp to another, the ready frontier changed, the run ended.
:class:`Lifecycle` takes those facts from the sequential executor
(a factor task, or one stretch of its updates, per group) and from the
inline, thread and process transports,
and feeds each observer from them, so no transport wires an observer
by hand.

Every group is recorded once, as the unit the kernels ran it:

* one span covering its measured window, carrying its member count
  and member ids and labelled from the graph columns (no
  :class:`~repro.dag.tasks.Task` object is built unless
  ``on_task_done`` asks for them);
* one ``group_start`` / ``group_done`` bus event pair;
* one ``kernel.seconds.<KERNEL>`` observation of the window, and
  ``tasks.retired.<KERNEL>`` advanced by the member count;
* with ready stamps, each member's queue wait, from the moment it
  became ready to the group's start, in
  ``scheduler.queue_wait_seconds``.

No window is split across a group's members: stacked kernels leave
no per-task boundaries, so none are made up.

:func:`~repro.runtime.executor.execute_graph` builds no recorder when
nothing observes a run, so an unobserved run pays only the transports'
``is None`` tests per group.
"""

from __future__ import annotations

import threading

import numpy as np

from ..dag.tasks import KERNEL_CODES

__all__ = ["Lifecycle"]

_NAMES = tuple(k.value for k in KERNEL_CODES)

#: queue-wait histogram bucket edges (seconds) — ready-to-start delays
#: range from microseconds (idle worker grabs immediately) to whole
#: milliseconds (deep frontier, few workers)
_WAIT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class Lifecycle:
    """Records a run's groups into its tracer, registry, bus and
    ``on_task_done`` observer.

    All stamps handed in are raw :func:`time.perf_counter` readings
    on the caller's clock; the tracer re-bases them onto its epoch.
    Thread-safe: the thread transport records from every worker, and
    one lock serializes the done count and ``on_task_done``, so the
    observer sees the counts ``1..n`` in order.
    """

    __slots__ = ("graph", "tracer", "metrics", "bus", "on_task_done",
                 "total", "done", "_lock")

    def __init__(self, graph, tracer, metrics, bus, on_task_done):
        self.graph, self.tracer, self.metrics = graph, tracer, metrics
        self.bus, self.on_task_done = bus, on_task_done
        self.total = len(graph)
        #: tasks of the groups recorded so far
        self.done = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def run_start(self, workers: int) -> None:
        if self.bus is not None:
            self.bus.publish("run_start", total=self.total, count=workers,
                             problem=getattr(self.graph, "problem", "")
                             or "")

    def group_start(self, code: int, tids, worker: int) -> None:
        """The group ``tids`` (one ``code`` kernel) went to ``worker``."""
        if self.bus is not None:
            self.bus.publish("group_start", tid=int(tids[0]),
                             kernel=_NAMES[code], count=len(tids),
                             worker=worker)

    def group_done(self, code: int, tids, worker: int, start: float,
                   finish: float, ready=None, dispatch=None) -> None:
        """The group ``tids`` ran on ``worker`` from ``start`` to
        ``finish``.

        ``ready`` holds each member's ready stamp (``None``: ready at
        ``start``, the sequential and inline transports, which never
        queue a ready task); the span's ``submit`` is their mean, so
        ``queue_delay * count`` is the members' summed wait.
        ``dispatch`` is the process transport's dispatch stamp: with a
        :class:`~repro.obs.tracer.DistributedTracer` it records the
        parent half of the group's six-phase record.
        """
        k, name, dt = len(tids), _NAMES[code], finish - start
        waits = None if ready is None else np.maximum(start - ready, 0.0)
        tracer = self.tracer
        if tracer is not None:
            submit = start if waits is None else start - float(waits.mean())
            self._trace(tids, worker, submit, start, finish, dispatch, dt)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"tasks.retired.{name}").inc(k)
            metrics.histogram(f"kernel.seconds.{name}").observe(dt)
            if waits is not None:
                h = metrics.histogram("scheduler.queue_wait_seconds",
                                      buckets=_WAIT_BUCKETS)
                for w in waits.tolist():
                    h.observe(w)
        if self.bus is not None:
            self.bus.publish("group_done", tid=int(tids[0]), kernel=name,
                             count=k, worker=worker, value=dt)
        with self._lock:
            base = self.done
            self.done = base + k
            if self.on_task_done is not None:
                tasks = self.graph.tasks
                for i, tid in enumerate(np.asarray(tids).tolist()):
                    self.on_task_done(tasks[tid], base + i + 1, self.total)

    def group_aborted(self, tids, worker: int, ready, dispatch: float,
                      at: float) -> None:
        """Close the span of a group that was in flight when its run
        aborted at ``at``: tagged ``aborted``, never dropped, and not
        counted as retired."""
        if self.tracer is not None:
            submit = min(float(np.mean(ready)), dispatch)
            self._trace(tids, worker, submit, dispatch, at, dispatch, 0.0,
                        aborted=True)

    def _trace(self, tids, worker, submit, start, finish, dispatch, dt,
               aborted=False) -> None:
        tracer, ep = self.tracer, self.tracer.epoch
        if isinstance(tids, np.ndarray):
            tids = tids.tolist()
        if dispatch is not None and hasattr(tracer, "record_parent"):
            tracer.record_parent(self.graph, tids, submit - ep,
                                 dispatch - ep, finish - ep, worker, dt=dt,
                                 aborted=aborted)
        else:
            tracer.record_group(self.graph, tids, submit - ep, start - ep,
                                finish - ep, worker=worker, aborted=aborted)

    def frontier(self, ready: int, depth: int) -> None:
        """After a retirement: ``ready`` tasks wait in the frontier,
        ``depth`` counts them plus those in flight."""
        if self.bus is not None:
            self.bus.publish("frontier", value=float(ready), count=depth)

    def run_done(self) -> None:
        if self.bus is not None:
            self.bus.publish("run_done", count=self.done,
                             value=self.bus.now())
