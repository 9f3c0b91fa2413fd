"""Tests for the fail-stop worker-failure model."""

import pytest

from repro.dag import build_dag
from repro.ext.failures import Failure, simulate_with_failures
from repro.schemes import greedy
from repro.sim import simulate_bounded


@pytest.fixture
def graph():
    return build_dag(greedy(8, 3), "TT")


def assert_same_schedule(a, b, workers=True):
    """Byte-identical start and finish (and worker) arrays."""
    assert a.start.tobytes() == b.start.tobytes()
    assert a.finish.tobytes() == b.finish.tobytes()
    if workers:
        assert a.worker.tobytes() == b.worker.tobytes()


class TestNoFailures:
    def test_matches_bounded(self, graph):
        """Without failures the model is simulate_bounded: same
        retirement of equal-time completions, same idle order."""
        for g in (graph, build_dag(greedy(15, 6), "TT")):
            for P in (1, 3, 8, 48):
                assert_same_schedule(simulate_with_failures(g, P, []),
                                     simulate_bounded(g, P))


class TestWithFailures:
    def test_all_tasks_complete(self, graph):
        res = simulate_with_failures(graph, 4, [Failure(0, 10.0)])
        assert (res.finish > 0).all()
        assert (res.worker >= 0).all()

    def test_dead_worker_gets_no_tasks_after_death(self, graph):
        t_fail = 10.0
        res = simulate_with_failures(graph, 4, [Failure(2, t_fail)])
        for t in graph.tasks:
            if res.worker[t.tid] == 2:
                assert res.finish[t.tid] <= t_fail + 1e-9

    def test_failure_increases_makespan(self, graph):
        base = simulate_with_failures(graph, 3, []).makespan
        failed = simulate_with_failures(graph, 3, [Failure(0, 5.0)]).makespan
        assert failed >= base

    def test_early_failure_equals_fewer_workers(self, graph):
        """A worker dead from t=0 is just a smaller machine."""
        a = simulate_with_failures(graph, 4, [Failure(3, 0.0)]).makespan
        b = simulate_with_failures(graph, 3, []).makespan
        assert a == b

    def test_dependencies_hold_under_failures(self, graph):
        res = simulate_with_failures(
            graph, 4, [Failure(0, 8.0), Failure(1, 30.0)])
        for t in graph.tasks:
            for d in t.deps:
                assert res.start[t.tid] >= res.finish[d] - 1e-9

    def test_lost_task_reexecuted(self, graph):
        """Kill a worker mid-task; the task must still complete
        (on another worker or later)."""
        # worker 0 gets a GEQRT at t=0 finishing at 4; kill it at t=2
        res = simulate_with_failures(graph, 2, [Failure(0, 2.0)])
        assert (res.worker == 1).all()  # only worker 1 survives t>=2
        assert res.makespan >= graph.total_weight()  # all redone serially

    def test_multiple_failures(self, graph):
        res = simulate_with_failures(
            graph, 5, [Failure(0, 3.0), Failure(1, 7.0), Failure(2, 7.0)])
        assert (res.finish > 0).all()

    def test_validation(self, graph):
        with pytest.raises(ValueError, match="references worker"):
            simulate_with_failures(graph, 2, [Failure(5, 1.0)])
        with pytest.raises(ValueError, match="survive"):
            simulate_with_failures(graph, 2, [Failure(0, 1.0),
                                              Failure(1, 2.0)])
        with pytest.raises(ValueError, match="processor"):
            simulate_with_failures(graph, 0, [])

    def test_duplicate_failure_earliest_wins(self, graph):
        a = simulate_with_failures(graph, 3, [Failure(0, 5.0),
                                              Failure(0, 50.0)])
        b = simulate_with_failures(graph, 3, [Failure(0, 5.0)])
        assert a.makespan == b.makespan
