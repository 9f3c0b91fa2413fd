"""Worker-failure model (S18, paper §5 future work).

"...or even resource failures, is a challenging but crucial task to
fully benefit from future platforms with a huge number of cores."

This module simulates fail-stop worker losses under list scheduling
with task re-execution: when a worker dies, its in-flight task is lost
and immediately re-queued (tiled QR tasks are idempotent at the model
level — inputs are consumed only at successful completion, matching a
checkpoint-on-write runtime).  The recovery benchmark measures how much
makespan each elimination tree loses per failure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..dag.tasks import TaskGraph
from ..sim.simulate import SimResult, _resolve, bottom_levels

__all__ = ["Failure", "simulate_with_failures"]


@dataclass(frozen=True)
class Failure:
    """A fail-stop event: worker ``worker`` dies at time ``time``."""

    worker: int
    time: float


def simulate_with_failures(
    graph: TaskGraph,
    processors: int,
    failures: list[Failure],
) -> SimResult:
    """List scheduling with fail-stop workers and task re-execution.

    Failures are detected immediately: the victim's in-flight task is
    re-queued at the failure instant and the worker never receives work
    again.  Without failures the schedule is
    :func:`~repro.sim.simulate.simulate_bounded`'s, start, finish and
    worker alike: every event of one instant retires (failures first,
    then completions in task order) before any dispatch, and idle
    workers are taken lowest index first.

    Parameters
    ----------
    processors : int
        Initial worker count; at least one worker must survive.
    failures : list of Failure
        Fail-stop events (a worker listed twice dies at the earliest
        time).

    Returns
    -------
    SimResult
        ``start``/``finish`` reflect each task's *successful* run;
        ``worker`` its surviving executor.
    """
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    death: dict[int, float] = {}
    for f in failures:
        if not (0 <= f.worker < processors):
            raise ValueError(f"failure references worker {f.worker}")
        death[f.worker] = min(death.get(f.worker, np.inf), f.time)
    if len(death) >= processors:
        raise ValueError("at least one worker must survive")

    g, idx = _resolve(graph)
    n = idx.n
    prio = -bottom_levels(graph)
    w = idx.weights
    succ_ptr, succ_adj = idx.succ_ptr, idx.succ_adj
    start = np.zeros(n)
    finish = np.zeros(n)
    worker = np.full(n, -1, dtype=np.int64)
    indeg = idx.indegree

    ready = [(prio[tid], tid) for tid in np.flatnonzero(indeg == 0).tolist()]
    heapq.heapify(ready)
    alive = set(range(processors)) - {wk for wk, t in death.items() if t <= 0}
    # popped from the end: lowest worker first, as in simulate_bounded
    idle = sorted(alive, reverse=True)
    current: dict[int, int] = {}  # worker -> in-flight task

    # event heap of (time, kind, key, worker): kind 0 = failure (key =
    # worker), kind 1 = completion (key = tid), so one instant retires
    # its failures first, then its completions in tid order
    events: list[tuple[float, int, int, int]] = []
    for wk, t in death.items():
        if t > 0:
            heapq.heappush(events, (t, 0, wk, wk))

    now = 0.0
    done = 0
    while done < n:
        while ready and idle:
            _, tid = heapq.heappop(ready)
            wk = idle.pop()
            current[wk] = tid
            start[tid] = now
            heapq.heappush(events, (now + w[tid], 1, tid, wk))
        if not events:
            raise RuntimeError("deadlock: no events pending, work remains")
        # every event of the next instant before dispatching again
        now = events[0][0]
        while events and events[0][0] == now:
            _, kind, tid, wk = heapq.heappop(events)
            if kind == 0:  # failure: re-queue the lost task
                if wk in alive:
                    alive.discard(wk)
                    if wk in idle:
                        idle.remove(wk)
                    lost = current.pop(wk, None)
                    if lost is not None:
                        heapq.heappush(ready, (prio[lost], lost))
                continue
            # a completion the worker's failure already cancelled
            if current.get(wk) != tid or wk not in alive:
                continue
            del current[wk]
            finish[tid] = now
            worker[tid] = wk
            idle.append(wk)
            done += 1
            for s in succ_adj[succ_ptr[tid]:succ_ptr[tid + 1]].tolist():
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (prio[s], s))
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if n else 0.0,
                     processors=processors, worker=worker)
