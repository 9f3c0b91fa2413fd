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

from dataclasses import dataclass

import numpy as np

from ..dag.tasks import TaskGraph
from ..sim.simulate import SimResult, _list_schedule, _resolve, bottom_levels

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
    workers are taken in the same order.

    Parameters
    ----------
    graph : TaskGraph or Plan
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
    # a worker dead from t <= 0 never joins; the others die on time
    deaths: dict[float, list[int]] = {}
    for wk, t in sorted(death.items()):
        if t > 0:
            deaths.setdefault(t, []).append(wk)
    idle = [wk for wk in range(processors - 1, -1, -1)
            if death.get(wk, np.inf) > 0]
    start, finish, worker = _list_schedule(idx, -bottom_levels(graph), [idle],
                                           deaths=deaths)
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if idx.n else 0.0,
                     processors=processors, worker=worker)
