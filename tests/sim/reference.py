"""The loops the simulators replaced, kept as their test oracles.

``reference_unbounded`` and ``reference_bottom_levels`` walk Task
objects one at a time, where :mod:`repro.sim.simulate` now reduces
level by level over the graph index.  The bounded, heterogeneous,
fail-stop and distributed schedulers are the heap loops its one
list-scheduling core replaced, each with its own ready and running
heaps.  The tests compare start, finish and worker arrays against
them byte for byte.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.dag.tasks import TaskGraph
from repro.ext.distributed import DistributedLayout
from repro.ext.failures import Failure
from repro.kernels.costs import Kernel
from repro.sim.priorities import priority_vector
from repro.sim.simulate import SimResult, _resolve, bottom_levels


def reference_unbounded(graph: TaskGraph) -> SimResult:
    """ASAP: each task starts when its last dependency finishes."""
    n = len(graph.tasks)
    start = np.zeros(n)
    finish = np.zeros(n)
    for t in graph.tasks:
        s = 0.0
        for d in t.deps:
            f = finish[d]
            if f > s:
                s = f
        start[t.tid] = s
        finish[t.tid] = s + t.weight
    makespan = float(finish.max()) if n else 0.0
    return SimResult(graph=graph, start=start, finish=finish,
                     makespan=makespan)


def reference_bottom_levels(graph: TaskGraph) -> np.ndarray:
    """Longest weighted path from each task to a sink."""
    n = len(graph.tasks)
    bl = np.zeros(n)
    succ = graph.successors()
    for t in reversed(graph.tasks):
        m = 0.0
        for s in succ[t.tid]:
            if bl[s] > m:
                m = bl[s]
        bl[t.tid] = m + t.weight
    return bl


def reference_bounded(
    graph: TaskGraph,
    processors: int,
    priority: str | np.ndarray = "critical-path",
) -> SimResult:
    """Identical workers: the worker freed last runs the next task."""
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    n = len(graph.tasks)
    if isinstance(priority, str):
        prio = priority_vector(graph, priority)
    else:
        prio = np.asarray(priority, dtype=float)
    start = np.zeros(n)
    finish = np.zeros(n)
    worker = np.full(n, -1, dtype=np.int64)
    indeg = np.zeros(n, dtype=np.int64)
    succ = graph.successors()
    for t in graph.tasks:
        indeg[t.tid] = len(t.deps)
    ready: list[tuple[float, int]] = []
    for t in graph.tasks:
        if indeg[t.tid] == 0:
            heapq.heappush(ready, (prio[t.tid], t.tid))
    running: list[tuple[float, int, int]] = []
    idle = list(range(processors - 1, -1, -1))
    now = 0.0
    done = 0
    while done < n:
        while ready and idle:
            _, tid = heapq.heappop(ready)
            w = idle.pop()
            start[tid] = now
            finish[tid] = now + graph.tasks[tid].weight
            worker[tid] = w
            heapq.heappush(running, (finish[tid], tid, w))
        if not running:
            raise RuntimeError("deadlock: no running tasks but work remains")
        now, tid, w = heapq.heappop(running)
        completions = [(tid, w)]
        while running and running[0][0] == now:
            _, tid2, w2 = heapq.heappop(running)
            completions.append((tid2, w2))
        for tid2, w2 in completions:
            done += 1
            idle.append(w2)
            for s in succ[tid2]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (prio[s], s))
    makespan = float(finish.max()) if n else 0.0
    return SimResult(graph=graph, start=start, finish=finish,
                     makespan=makespan, processors=processors, worker=worker)


def reference_heterogeneous(
    graph: TaskGraph,
    speeds: list[float],
    priority: str = "critical-path",
) -> SimResult:
    """Per-worker speeds: the fastest idle worker, lowest index among
    equals, runs a task of weight ``w`` for ``w / speed``."""
    if not speeds:
        raise ValueError("need at least one worker")
    if any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive; drop failed workers instead")
    n = len(graph.tasks)
    if priority == "critical-path":
        prio = -bottom_levels(graph)
    elif priority == "fifo":
        prio = np.arange(n, dtype=float)
    else:
        raise ValueError(f"unknown priority {priority!r}")

    start = np.zeros(n)
    finish = np.zeros(n)
    worker = np.full(n, -1, dtype=np.int64)
    indeg = np.array([len(t.deps) for t in graph.tasks], dtype=np.int64)
    succ = graph.successors()

    ready: list[tuple[float, int]] = [
        (prio[t.tid], t.tid) for t in graph.tasks if indeg[t.tid] == 0
    ]
    heapq.heapify(ready)
    # idle workers sorted fastest-first: heap of (-speed, worker)
    idle = [(-s, w) for w, s in enumerate(speeds)]
    heapq.heapify(idle)
    running: list[tuple[float, int, int]] = []
    now = 0.0
    done = 0
    while done < n:
        while ready and idle:
            _, tid = heapq.heappop(ready)
            negs, w = heapq.heappop(idle)
            start[tid] = now
            finish[tid] = now + graph.tasks[tid].weight / (-negs)
            worker[tid] = w
            heapq.heappush(running, (finish[tid], tid, w))
        if not running:
            raise RuntimeError("deadlock: no running tasks but work remains")
        now, tid, w = heapq.heappop(running)
        batch = [(tid, w)]
        while running and running[0][0] == now:
            _, t2, w2 = heapq.heappop(running)
            batch.append((t2, w2))
        for t2, w2 in batch:
            done += 1
            heapq.heappush(idle, (-speeds[w2], w2))
            for s in succ[t2]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, (prio[s], s))
    return SimResult(graph=graph, start=start, finish=finish,
                     makespan=float(finish.max()) if n else 0.0,
                     processors=len(speeds), worker=worker)


def reference_with_failures(
    graph: TaskGraph,
    processors: int,
    failures: list[Failure],
) -> SimResult:
    """Fail-stop workers: an instant's failures retire before its
    completions, and a dead worker's task is re-queued."""
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


def reference_distributed(
    graph: TaskGraph,
    layout: DistributedLayout,
    workers_per_node: int,
    tile_comm_cost: float = 0.0,
) -> SimResult:
    """Owner-computes: per-node ready queues and worker pools, and a
    cross-node stacked kernel pays ``tile_comm_cost``."""
    if workers_per_node < 1:
        raise ValueError(
            f"need at least one worker per node, got {workers_per_node}")
    n = len(graph.tasks)
    prio = -bottom_levels(graph)
    stacked = (Kernel.TSQRT, Kernel.TTQRT, Kernel.TSMQR, Kernel.TTMQR)

    def duration(t) -> float:
        w = t.weight
        if t.kernel in stacked and layout.crosses(t.row, t.piv):
            w += tile_comm_cost
        return w

    home = [layout.owner(t.row) for t in graph.tasks]
    start = np.zeros(n)
    finish = np.zeros(n)
    worker = np.full(n, -1, dtype=np.int64)
    indeg = np.array([len(t.deps) for t in graph.tasks], dtype=np.int64)
    succ = graph.successors()

    # per-node ready queues and idle pools
    ready: list[list[tuple[float, int]]] = [[] for _ in range(layout.nodes)]
    for t in graph.tasks:
        if indeg[t.tid] == 0:
            heapq.heappush(ready[home[t.tid]], (prio[t.tid], t.tid))
    idle = [list(range(workers_per_node)) for _ in range(layout.nodes)]
    running: list[tuple[float, int, int, int]] = []  # (fin, tid, node, w)
    now = 0.0
    done = 0
    while done < n:
        for node in range(layout.nodes):
            while ready[node] and idle[node]:
                _, tid = heapq.heappop(ready[node])
                w = idle[node].pop()
                start[tid] = now
                finish[tid] = now + duration(graph.tasks[tid])
                worker[tid] = node * workers_per_node + w
                heapq.heappush(running, (finish[tid], tid, node, w))
        if not running:
            raise RuntimeError("deadlock: nothing running, work remains")
        now, tid, node, w = heapq.heappop(running)
        batch = [(tid, node, w)]
        while running and running[0][0] == now:
            _, t2, n2, w2 = heapq.heappop(running)
            batch.append((t2, n2, w2))
        for t2, n2, w2 in batch:
            done += 1
            idle[n2].append(w2)
            for s in succ[t2]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready[home[s]], (prio[s], s))
    return SimResult(graph=graph, start=start, finish=finish,
                     makespan=float(finish.max()) if n else 0.0,
                     processors=layout.nodes * workers_per_node,
                     worker=worker)
