"""The lifecycle contract: every mode records each group once.

Sequential (groups of one), inline, thread and process runs all
report through one :class:`~repro.runtime.lifecycle.Lifecycle`, so the
tracer, the metrics registry, the event bus and ``on_task_done`` see
the same groups: the spans' member lists partition the tasks, each
span is its group's measured window, and every count of retired
tasks agrees with the graph.
"""

import numpy as np
import pytest

from repro.api import plan
from repro.dag.tasks import KERNEL_CODES
from repro.obs import DistributedTracer, EventBus, MetricsRegistry, Tracer
from repro.obs.analyze import overhead_report
from repro.obs.tracer import PHASES
from repro.runtime import ExecOptions, ProcessPool, execute_graph
from repro.tiles import TiledMatrix

NB = 16

#: every transport, as ExecOptions fields (process pools by worker count)
MODES = {
    "sequential": {"mode": "task"},
    "inline": {"mode": "batched"},
    "thread-2": {"mode": "task", "workers": 2},
    "thread-3": {"mode": "task", "workers": 3},
    "process-1": {"mode": "process", "workers": 1},
    "process-2": {"mode": "process", "workers": 2},
}


@pytest.fixture(scope="module")
def pools():
    with ProcessPool(workers=1, start_method="fork") as p1, \
            ProcessPool(workers=2, start_method="fork") as p2:
        yield {1: p1, 2: p2}


@pytest.fixture(scope="module")
def pl():
    return plan(6, 4, "greedy", "TT")


def run(pl, pools, mode, tracer, **observers):
    kw = dict(MODES[mode])
    if kw["mode"] == "process":
        kw["pool"] = pools[kw["workers"]]
    a = np.random.default_rng(7).standard_normal((pl.p * NB, pl.q * NB))
    return execute_graph(pl, TiledMatrix(a, NB), ExecOptions(**kw), ib=4,
                         tracer=tracer, **observers)


@pytest.mark.parametrize("mode", MODES)
class TestLifecycleContract:
    def test_every_observer_sees_each_group_once(self, pl, pools, mode):
        n = len(pl.graph)
        tracer, metrics, bus, seen = Tracer(), MetricsRegistry(), \
            EventBus(capacity=65536), []
        run(pl, pools, mode, tracer, metrics=metrics, bus=bus,
            on_task_done=lambda t, done, total: seen.append(
                (t.tid, done, total)))
        spans = tracer.spans
        # the members partition the tasks
        assert sorted(t for s in spans for t in s.tids) == list(range(n))
        assert all(s.count == len(s.tids) and s.tid == s.tids[0]
                   for s in spans)
        # each span is its group's measured window: one kernel-seconds
        # observation per span, summing to the spans' durations
        for k in {s.kernel for s in spans}:
            mine = [s for s in spans if s.kernel == k]
            h = metrics.get(f"kernel.seconds.{k}")
            assert h.count == len(mine)
            assert h.sum == pytest.approx(sum(s.duration for s in mine),
                                          rel=1e-9)
            assert all(s.finish >= s.start for s in mine)
        # every count of retired tasks is the task count
        events = bus.snapshot()
        done = [e for e in events if e.kind == "group_done"]
        assert len(done) == len(spans)
        assert sum(e.count for e in done) == n
        assert sum(metrics.get(f"tasks.retired.{k.value}").value
                   for k in KERNEL_CODES
                   if f"tasks.retired.{k.value}" in metrics) == n
        assert overhead_report(tracer).tasks == n
        # on_task_done: every task once, done counts 1..n in order
        assert sorted(t for t, _, _ in seen) == list(range(n))
        assert [d for _, d, _ in seen] == list(range(1, n + 1))
        assert {total for _, _, total in seen} == {n}
        # the run's bracket
        assert events[0].kind == "run_start" and events[0].total == n
        assert events[-1].kind == "run_done" and events[-1].count == n
        assert {e.kind for e in events} <= {"run_start", "group_start",
                                            "group_done", "frontier",
                                            "run_done"}
        # queue waits are never negative
        assert all(s.submit <= s.start for s in spans)
        waits = metrics.get("scheduler.queue_wait_seconds")
        if waits is not None:
            assert waits.count == n and waits.min >= 0.0

    def test_critical_path_share(self, pl, pools, mode):
        tracer = (DistributedTracer() if mode.startswith("process")
                  else Tracer())
        run(pl, pools, mode, tracer)
        rep = overhead_report(tracer, graph=pl)
        assert rep.tasks == len(pl.graph)
        assert rep.critical_path_overhead_share is not None
        assert 0.0 <= rep.critical_path_overhead_share <= 1.0


@pytest.mark.parametrize("workers", [1, 2])
def test_distributed_records_telescope(pl, pools, workers):
    tracer = DistributedTracer()
    run(pl, pools, f"process-{workers}", tracer)
    phases = tracer.phases
    assert sorted(t for p in phases for t in p.tids) == \
        list(range(len(pl.graph)))
    for p in phases:
        assert p.measured and not p.aborted
        b = [p.ready, p.dispatch, p.recv, p.start, p.finish, p.publish,
             p.retire]
        assert b == sorted(b)
        assert sum(p.phase(name) for name in PHASES) == pytest.approx(
            p.latency, abs=1e-12)
