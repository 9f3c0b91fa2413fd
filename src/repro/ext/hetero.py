"""Heterogeneous-speed list scheduling (S18, paper §5 future work).

"The design of robust algorithms, capable of achieving efficient
performance despite variations in processor speeds, or even resource
failures" — this module provides the simulation instrument: a bounded
list scheduler where each worker has its own speed (a task of weight
``w`` takes ``w / speed`` on that worker); dropping a worker from the
list models a failed core.  The ablation benchmark
``benchmarks/bench_ablation_hetero.py`` uses it to compare how
gracefully the elimination trees tolerate slow cores.
"""

from __future__ import annotations

import numpy as np

from ..dag.tasks import TaskGraph
from ..sim.simulate import SimResult, _list_schedule, _priority, _resolve

__all__ = ["simulate_heterogeneous"]


def simulate_heterogeneous(
    graph: TaskGraph,
    speeds: list[float],
    priority: str = "critical-path",
) -> SimResult:
    """List scheduling on workers with per-worker speeds.

    Ready tasks are dispatched in priority order; among idle workers the
    fastest is chosen (a standard heterogeneous-list heuristic), the
    lowest index among equally fast ones.

    Parameters
    ----------
    graph : TaskGraph or Plan
    speeds : list of float
        One positive speed per worker (1.0 = nominal; 0 disallowed —
        drop the worker from the list to model a failure).
    priority : str
        A policy name from :data:`repro.sim.priorities.PRIORITIES`.
    """
    if not speeds:
        raise ValueError("need at least one worker")
    if any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive; drop failed workers instead")
    g, idx = _resolve(graph)
    # the core's workers are numbered fastest first, so its lowest idle
    # id is the fastest idle worker
    by_speed = sorted(range(len(speeds)), key=lambda w: (-speeds[w], w))
    start, finish, worker = _list_schedule(
        idx, _priority(graph, idx.n, priority), [list(range(len(speeds)))],
        speed=[speeds[w] for w in by_speed], lowest_first=True)
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if idx.n else 0.0,
                     processors=len(speeds),
                     worker=np.array(by_speed, dtype=np.int64)[worker])
