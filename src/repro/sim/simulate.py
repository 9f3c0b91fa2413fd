"""Discrete-event simulation of tiled-QR task graphs (S11).

This replaces the SimGrid-based simulator the authors built (footnote
1 of the paper): it handles dependencies across tiles exactly and
supports both unbounded processors (critical-path analysis, the
paper's Tables 3-5) and a bounded processor count with list scheduling
(the experimental-performance reproduction, Tables 6-9 / Figures 1, 6).

The hot loops run on the graph's :class:`~repro.dag.index.GraphIndex`
— CSR predecessor/successor arrays and a topological level
decomposition — rather than per-task Python object walks.  The
unbounded pass is one ``np.maximum.reduceat`` per level.  Bounded
simulation is inherently sequential: :func:`_list_schedule` is its one
event loop, and :func:`simulate_bounded` and the worker models of
:mod:`repro.ext` (per-worker speeds, fail-stop workers, per-node
ready queues) only set it up.  Results are bit-for-bit identical to
the original per-task implementations, which live on as the test
oracles in ``tests/sim/reference.py``.

Every entry point accepts either a :class:`~repro.dag.tasks.TaskGraph`
or a :class:`~repro.planner.Plan` (whose prebuilt index is reused).
The ASAP schedule and the bottom levels are computed once per graph
index (:attr:`~repro.dag.index.GraphIndex.memo`) and handed out
read-only, so the analytics, the critical-path priority and the Plan
share one pass each.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

import numpy as np

from ..dag.index import GraphIndex
from ..dag.tasks import TaskGraph

__all__ = ["SimResult", "simulate_unbounded", "simulate_bounded",
           "bottom_levels", "zero_out_table"]


def _resolve(graph) -> tuple[TaskGraph, GraphIndex]:
    """Accept a TaskGraph or anything Plan-shaped (``.graph`` + ``.index``)."""
    if isinstance(graph, TaskGraph):
        return graph, graph.index()
    g = getattr(graph, "graph", None)
    idx = getattr(graph, "index", None)
    if isinstance(g, TaskGraph) and idx is not None:
        idx = idx() if callable(idx) else idx
        if isinstance(idx, GraphIndex):
            return g, idx
    raise TypeError(
        f"expected a TaskGraph or a Plan, got {type(graph).__name__}")


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    graph : TaskGraph
    start, finish : ndarray of float
        Per-task times, indexed by task id.
    makespan : float
        ``max(finish)`` — the critical path length when unbounded.
    processors : int or None
        ``None`` for the unbounded-processor run.
    worker : ndarray of int or None
        Worker assignment (bounded runs only).
    """

    graph: TaskGraph
    start: np.ndarray
    finish: np.ndarray
    makespan: float
    processors: int | None = None
    worker: np.ndarray | None = None

    def zero_out_table(self) -> np.ndarray:
        return zero_out_table(self.graph, self.finish)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _asap(idx: GraphIndex) -> tuple[np.ndarray, np.ndarray]:
    """ASAP start and finish times: one ``reduceat`` per level."""
    n = idx.n
    w = idx.weights
    start = np.zeros(n)
    finish = np.zeros(n)
    order, lp = idx.order, idx.level_ptr
    if n:
        src = order[lp[0]:lp[1]]
        finish[src] = w[src]  # level 0: no dependencies, start at 0
    for lvl in range(1, len(lp) - 1):
        seg = order[lp[lvl]:lp[lvl + 1]]
        a, b = idx.fwd_pred_ptr[lp[lvl]], idx.fwd_pred_ptr[lp[lvl + 1]]
        # every task past level 0 has >= 1 predecessor, so no segment
        # of the reduceat is empty
        s = np.maximum.reduceat(finish[idx.fwd_pred_adj[a:b]],
                                idx.fwd_pred_ptr[lp[lvl]:lp[lvl + 1]] - a)
        np.maximum(s, 0.0, out=s)
        start[seg] = s
        finish[seg] = s + w[seg]
    return start, finish


def _bottom_levels(idx: GraphIndex) -> np.ndarray:
    """Bottom levels: one ``reduceat`` per level, sinks first."""
    w = idx.weights
    bl = w.copy()  # sinks: bottom level is the task's own weight
    nodes, sp = idx.rev_nodes, idx.rev_seg_ptr
    for si in range(len(sp) - 1):
        seg = nodes[sp[si]:sp[si + 1]]
        a, b = idx.rev_succ_ptr[sp[si]], idx.rev_succ_ptr[sp[si + 1]]
        m = np.maximum.reduceat(bl[idx.rev_succ_adj[a:b]],
                                idx.rev_succ_ptr[sp[si]:sp[si + 1]] - a)
        np.maximum(m, 0.0, out=m)
        bl[seg] = m + w[seg]
    return bl


def simulate_unbounded(graph) -> SimResult:
    """ASAP schedule with unbounded processors.

    Every task starts the instant its last dependency finishes, so the
    makespan equals the critical path length of the DAG.  One
    ``reduceat`` pass per topological level over the graph index,
    memoized on the index: every call on the same graph shares the
    read-only ``start`` and ``finish`` arrays.  (The memo holds arrays
    only, never the result: a result refers to its graph, and the
    cycle would keep dropped graphs alive until a full collection.)

    Parameters
    ----------
    graph : TaskGraph or Plan
    """
    g, idx = _resolve(graph)
    times = idx.memo.get("asap")
    if times is None:
        times = idx.memo["asap"] = tuple(_read_only(a) for a in _asap(idx))
    start, finish = times
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if idx.n else 0.0)


def bottom_levels(graph) -> np.ndarray:
    """Length of the longest weighted path from each task to a sink.

    The classical critical-path priority for list scheduling: a task
    with a larger bottom level is more urgent.  Memoized on the graph
    index; the returned array is read-only.
    """
    _, idx = _resolve(graph)
    bl = idx.memo.get("bottom_levels")
    if bl is None:
        bl = idx.memo["bottom_levels"] = _read_only(_bottom_levels(idx))
    return bl


def _priority(graph, n: int, priority: str | np.ndarray) -> np.ndarray:
    """A policy name's priority vector, or an explicit vector checked."""
    if isinstance(priority, str):
        from .priorities import priority_vector  # local: avoids cycle

        return priority_vector(graph, priority)
    prio = np.asarray(priority, dtype=float)
    if prio.shape != (n,):
        raise ValueError(
            f"priority vector has shape {prio.shape}, expected ({n},)")
    return prio


def _ints(a: np.ndarray) -> array:
    """``a`` as a C array of int64, indexed without numpy scalars."""
    return array("q", np.asarray(a, dtype=np.int64).tobytes())


def _list_schedule(
    idx: GraphIndex,
    prio: np.ndarray,
    pools: list[list[int]],
    *,
    weights: np.ndarray | None = None,
    speed: list[float] | None = None,
    home: np.ndarray | None = None,
    lowest_first: bool = False,
    deaths: dict[float, list[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The list-scheduling loop every bounded simulator runs on.

    Whenever a worker is idle and its ready queue holds a task, the
    task of lowest ``(priority, tid)`` starts on it; a task of weight
    ``w`` takes ``w / speed`` on its worker.  The tasks that finish at
    one instant retire together, in tid order, before anything is
    dispatched again.  The ready queues hold each task's rank in one
    ``(priority, tid)`` sort, so they compare plain ints, and running
    tasks wait in per-finish-time buckets under a heap of distinct
    times.

    Parameters
    ----------
    idx : GraphIndex
    prio : ndarray
        Per-task priority, lower dispatches first.
    pools : list of list of int
        The idle workers of each ready queue.  A pool is a stack taken
        from the end, so the worker freed last runs next; with
        ``lowest_first`` it is a min-heap, so the lowest idle worker id
        runs next.
    weights : ndarray, optional
        Per-task weights in place of ``idx.weights``.
    speed : list of float, optional
        Per-worker speed, indexed by worker id (default 1.0).
    home : ndarray of int, optional
        Each task's ready queue, an index into ``pools`` (default:
        every task in the one queue).
    deaths : dict, optional
        Fail-stop times, ``{time: [worker, ...]}``.  At ``time`` the
        workers leave their pools before that instant's completions
        retire, and a task running on one is queued again.

    Returns
    -------
    start, finish, worker : ndarray
        Each task's last dispatch: its start, finish and worker.
    """
    n = idx.n
    order = np.argsort(prio, kind="stable")  # ties stay in tid order
    rank_a = np.empty(n, dtype=np.int64)
    rank_a[order] = np.arange(n)
    indeg_a = idx.indegree
    src = np.flatnonzero(indeg_a == 0)
    if home is None:
        ready = [np.sort(rank_a[src]).tolist()]  # sorted: a valid heap
        rq_of = ready * n
    else:
        ready = [np.sort(rank_a[src[home[src] == q]]).tolist()
                 for q in range(len(pools))]
        rq_of = [ready[h] for h in home.tolist()]
    # compact C arrays, not lists: no Python object per element
    tid_of, rank = _ints(order), _ints(rank_a)
    succ_ptr, succ_adj = _ints(idx.succ_ptr), _ints(idx.succ_adj)
    indeg = indeg_a.tolist()
    w = idx.weights if weights is None else np.asarray(weights, float)
    dur = array("d", w.tobytes())
    wpool = {wk: pool for pool in pools for wk in pool}
    if speed is None:
        speed = [1.0] * (max(wpool, default=-1) + 1)
    take, put = ((heapq.heappop, heapq.heappush) if lowest_first
                 else (list.pop, list.append))
    deaths = dict(deaths or {})
    start = [0.0] * n
    worker = [-1] * n
    buckets: dict[float, list[int]] = {t: [] for t in deaths}
    times = sorted(buckets)  # the distinct event times, a heap
    queues = list(zip(ready, pools))
    now = 0.0
    done = 0
    while done < n:
        for rq, pool in queues:
            while rq and pool:
                tid = tid_of[heapq.heappop(rq)]
                wk = take(pool)
                f = now + dur[tid] / speed[wk]
                start[tid] = now
                worker[tid] = wk
                b = buckets.get(f)
                if b is None:
                    buckets[f] = [tid]
                    heapq.heappush(times, f)
                else:
                    b.append(tid)
        if not times:
            raise RuntimeError("deadlock: no running tasks but work remains")
        now = heapq.heappop(times)
        for wk in deaths.pop(now, ()):
            pool = wpool[wk]
            if wk in pool:  # idle: it never runs again
                pool.remove(wk)
                continue
            # busy: its task is lost and queued again
            t = next(t for b in buckets.values() for t in b
                     if worker[t] == wk)
            buckets[start[t] + dur[t] / speed[wk]].remove(t)
            heapq.heappush(rq_of[t], rank[t])
        batch = buckets.pop(now)
        batch.sort()
        done += len(batch)
        for tid in batch:
            wk = worker[tid]
            put(wpool[wk], wk)
            for s in succ_adj[succ_ptr[tid]:succ_ptr[tid + 1]]:
                d = indeg[s] - 1
                indeg[s] = d
                if not d:
                    heapq.heappush(rq_of[s], rank[s])
    start_a = np.array(start, dtype=np.float64)
    worker_a = np.array(worker, dtype=np.int64)
    # the same IEEE operations the loop made, one array at a time
    finish = start_a + w / np.asarray(speed, dtype=np.float64)[worker_a]
    return start_a, finish, worker_a


def simulate_bounded(
    graph,
    processors: int,
    priority: str | np.ndarray = "critical-path",
) -> SimResult:
    """List scheduling on ``processors`` identical workers.

    Ready tasks are dispatched to idle workers in priority order; this
    models PLASMA's dynamic scheduler with a greedy non-preemptive
    policy.  The lowest worker starts first; after that, the worker
    freed last takes the next task (:func:`_list_schedule`).

    Parameters
    ----------
    graph : TaskGraph or Plan
    processors : int
        Number of workers (the paper's 48 cores).
    priority : str or ndarray
        A policy name from :data:`repro.sim.priorities.PRIORITIES`
        (default ``"critical-path"``: largest bottom level first, task
        id as tie-break) or an explicit per-task priority vector
        (lower dispatches first).
    """
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    g, idx = _resolve(graph)
    start, finish, worker = _list_schedule(
        idx, _priority(graph, idx.n, priority),
        [list(range(processors - 1, -1, -1))])
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if idx.n else 0.0,
                     processors=processors, worker=worker)


def zero_out_table(graph: TaskGraph, finish: np.ndarray) -> np.ndarray:
    """The paper's Table-3-style view: when each sub-diagonal tile is zeroed.

    Entry ``(i, k)`` is the finish time of the TSQRT/TTQRT task that
    zeroes tile ``(i, k)``; zero elsewhere.
    """
    table = np.zeros((graph.p, graph.q))
    for (i, k), tid in graph.zero_task.items():
        table[i, k] = finish[tid]
    return table
