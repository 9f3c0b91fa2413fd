"""Tests for heterogeneous-speed scheduling (paper §5 extension)."""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.ext import simulate_heterogeneous
from repro.schemes import greedy
from repro.sim import simulate_bounded


@pytest.fixture
def graph():
    return build_dag(greedy(10, 4), "TT")


class TestHeterogeneous:
    def test_uniform_speeds_match_bounded(self, graph):
        """Uniform speeds reproduce simulate_bounded's start and finish
        arrays byte for byte (worker ids follow another convention)."""
        for P in (1, 3, 8, 48):
            het = simulate_heterogeneous(graph, [1.0] * P)
            hom = simulate_bounded(graph, P)
            assert het.start.tobytes() == hom.start.tobytes()
            assert het.finish.tobytes() == hom.finish.tobytes()

    def test_faster_machine_not_slower(self, graph):
        slow = simulate_heterogeneous(graph, [1.0, 1.0])
        fast = simulate_heterogeneous(graph, [2.0, 2.0])
        assert fast.makespan <= slow.makespan
        assert np.isclose(fast.makespan, slow.makespan / 2)

    def test_one_slow_core_degrades_gracefully(self, graph):
        base = simulate_heterogeneous(graph, [1.0] * 4).makespan
        degraded = simulate_heterogeneous(graph, [1.0, 1.0, 1.0, 0.25]).makespan
        assert degraded >= base
        # adding even a slow core beats dropping it entirely? not
        # guaranteed by list scheduling, but it must beat 1 core:
        assert degraded <= simulate_heterogeneous(graph, [1.0]).makespan

    def test_single_worker_weighted_total(self, graph):
        ms = simulate_heterogeneous(graph, [0.5]).makespan
        assert np.isclose(ms, graph.total_weight() / 0.5)

    def test_dependencies_respected(self, graph):
        res = simulate_heterogeneous(graph, [1.0, 0.3, 2.0])
        for t in graph.tasks:
            for d in t.deps:
                assert res.start[t.tid] >= res.finish[d] - 1e-9

    def test_task_durations_scaled(self, graph):
        speeds = [1.0, 4.0]
        res = simulate_heterogeneous(graph, speeds)
        for t in graph.tasks:
            w = speeds[int(res.worker[t.tid])]
            assert np.isclose(res.finish[t.tid] - res.start[t.tid], t.weight / w)

    def test_bad_inputs(self, graph):
        with pytest.raises(ValueError):
            simulate_heterogeneous(graph, [])
        with pytest.raises(ValueError):
            simulate_heterogeneous(graph, [1.0, 0.0])
        with pytest.raises(ValueError):
            simulate_heterogeneous(graph, [1.0], priority="magic")

    def test_greedy_tolerates_slowdown_better_than_flat(self):
        """The tree with shorter cp has more slack to absorb a slow core
        on tall grids — the §5 robustness question, quantified."""
        from repro.schemes import flat_tree
        speeds = [1.0, 1.0, 1.0, 0.2]
        g_graph = build_dag(greedy(24, 4), "TT")
        f_graph = build_dag(flat_tree(24, 4), "TT")
        g = simulate_heterogeneous(g_graph, speeds).makespan
        f = simulate_heterogeneous(f_graph, speeds).makespan
        assert g <= f
