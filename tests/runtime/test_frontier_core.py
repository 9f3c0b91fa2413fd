"""The frontier core: its drain order and the thread transport's use of it.

``drain_groups`` is the inline transport's schedule (memoized as
``Plan.level_groups()``): the core drained with unbounded groups, each
group retired as soon as it pops.  These tests check the properties
every transport relies on — on QR, LU and Cholesky DAGs, the latter
two being otherwise unexercised numerically — and the core's priority
bookkeeping as the thread transport drives it.
"""

import numpy as np
import pytest

from repro.api import plan
from repro.dag.tasks import KERNEL_CODES
from repro.obs.metrics import MetricsRegistry
from repro.problems import build_cholesky_dag, build_lu_dag
from repro.runtime import ExecOptions, FrontierCore, drain_groups, execute_graph
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix

NB = 8

GRAPHS = {
    "qr-greedy-TT": lambda: plan(9, 5, "greedy", "TT").graph,
    "qr-flat-TS": lambda: plan(7, 4, "flat-tree", "TS").graph,
    "lu": lambda: build_lu_dag(6, 6),
    "cholesky": lambda: build_cholesky_dag(6),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


class TestDrainOrder:
    def test_covers_every_task_exactly_once(self, graph):
        tids = np.concatenate([t for _, t in drain_groups(graph)])
        assert sorted(tids.tolist()) == list(range(len(graph.tasks)))

    def test_each_group_holds_one_kernel(self, graph):
        for code, tids in drain_groups(graph):
            kinds = {graph.tasks[t].kernel for t in tids.tolist()}
            assert kinds == {KERNEL_CODES[code]}

    def test_predecessors_sit_in_earlier_groups(self, graph):
        position = {}
        for gi, (_, tids) in enumerate(drain_groups(graph)):
            for t in tids.tolist():
                position[t] = gi
        for t in graph.tasks:
            for d in t.deps:
                assert position[d] < position[t.tid]

    def test_group_members_are_mutually_independent(self, graph):
        # with every predecessor strictly earlier, two members of one
        # group can only be dependent if one is a predecessor of the
        # other — check ancestry directly
        succ = graph.successors()
        for _, tids in drain_groups(graph):
            members = set(tids.tolist())
            stack = [s for t in members for s in succ[t]]
            seen = set()
            while stack:
                t = stack.pop()
                assert t not in members, "group member reachable from another"
                if t not in seen:
                    seen.add(t)
                    stack.extend(succ[t])

    def test_memoized_on_plan_and_fewer_groups_than_levels(self):
        pl = plan(16, 16, "greedy", "TT")
        groups = pl.level_groups()
        assert pl.level_groups() is groups
        # no level barrier: fewer groups than (level, kernel) pairs
        idx = pl.index
        level_kernel = {(int(idx.level[t.tid]), t.kernel)
                        for t in pl.graph.tasks}
        assert len(groups) < len(level_kernel)

    def test_accepts_graph_or_plan(self):
        pl = plan(4, 3, "fibonacci")
        assert len(drain_groups(pl)) > 0 and len(drain_groups(pl.graph)) > 0
        with pytest.raises(TypeError):
            drain_groups(object())


class TestCorePriority:
    def test_inversions_counted_in_the_core(self):
        """Bottom-level keys make the core skip older ready tasks; each
        such pop counts as an avoided priority inversion."""
        pl = plan(12, 6, "greedy")
        m = MetricsRegistry()
        core = FrontierCore(pl, batch=1, metrics=m)
        while len(core):
            _, tids = core.pop()
            core.retire(tids)
        assert m.counter("scheduler.priority_inversions_avoided").value > 0

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("shape", [(12, 6, "TT"), (16, 4, "TS")])
    def test_inversion_check_matches_a_full_scan(self, shape, batch):
        """The oldest ready task is the first push not yet popped: the
        check agrees, pop by pop, with a scan of every ready task."""
        p, q, family = shape
        core = FrontierCore(plan(p, q, "greedy", family), batch=batch)
        fr = core.frontier
        while len(core):
            _, head = fr._best()
            oldest = min(e[1] for buckets in fr._buckets.values()
                         for heap in buckets.values() for e in heap)
            assert fr.inverted() == (oldest < head[1])
            _, tids = core.pop()
            core.retire(tids)

    def test_fifo_core_on_raw_graph_never_inverts(self):
        g = plan(12, 6, "greedy").graph
        m = MetricsRegistry()
        core = FrontierCore(g, batch=3, metrics=m)
        while len(core):
            _, tids = core.pop()
            core.retire(tids)
        assert m.counter("scheduler.priority_inversions_avoided").value == 0

    def test_retire_releases_each_task_once(self):
        g = plan(6, 4, "greedy").graph
        core = FrontierCore(g, batch=4)
        released = list(core.sources.tolist())
        while len(core):
            _, tids = core.pop()
            released += core.retire(tids).tolist()
        assert sorted(released) == list(range(len(g.tasks)))


class TestThreadTransportPriority:
    def test_priority_order_is_bit_exact(self, rng):
        """With a Plan the core reorders ready tasks by bottom level;
        the thread transport's result must still match the sequential
        reference bit for bit (exactly tiled, reference kernels)."""
        a = np.asarray(random_matrix(rng, 96, 48, np.float64))
        work, seq = a.copy(), a.copy()
        ctx = execute_graph(plan(12, 6, "greedy"), TiledMatrix(work, NB),
                            ExecOptions(workers=4), ib=4,
                            metrics=MetricsRegistry())
        execute_graph(plan(12, 6, "greedy").graph, TiledMatrix(seq, NB),
                      ib=4)
        assert np.array_equal(work, seq)
        m = ctx.metrics
        assert m.counter("scheduler.priority_inversions_avoided").value > 0
