"""Tests for the dataflow DAG builder (Section 2.1 dependency rules)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import AccessTable, build_dag, resolve_hazards
from repro.kernels.costs import Kernel, total_weight
from repro.schemes import flat_tree, greedy, plasma_tree
from tests.conftest import random_elimination_list


def find(graph, kernel, row=None, piv=None, col=None, j=None):
    out = []
    for t in graph.tasks:
        if t.kernel is not kernel:
            continue
        if row is not None and t.row != row:
            continue
        if piv is not None and t.piv != piv:
            continue
        if col is not None and t.col != col:
            continue
        if j is not None and t.j != j:
            continue
        out.append(t)
    return out


def depends(graph, a, b):
    """True if task ``a`` transitively depends on task ``b``."""
    seen = set()
    stack = [a.tid]
    while stack:
        t = stack.pop()
        if t == b.tid:
            return True
        if t in seen:
            continue
        seen.add(t)
        stack.extend(graph.tasks[t].deps)
    return False


#: resources are plain integers
A, B, C, X, Y, Z = range(6)


def resolved(reads, writes):
    """Dependency lists :func:`resolve_hazards` infers for tasks with
    the given per-task read and write resources."""
    ptr, adj = resolve_hazards(AccessTable.from_lists(reads, writes))
    return [adj[ptr[t]:ptr[t + 1]].tolist() for t in range(len(reads))]


class TestResolveHazards:
    def test_raw(self):
        assert resolved([(), (X,)], [(X,), ()]) == [[], [0]]

    def test_war(self):
        deps = resolved([(), (X,), (X,), ()], [(X,), (), (), (X,)])
        assert deps[3] == [0, 1, 2]  # last writer, then readers in order

    def test_waw_clears_readers(self):
        deps = resolved([(), (X,), (), ()], [(X,), (), (X,), (X,)])
        assert deps[2] == [0, 1]
        assert deps[3] == [2]

    def test_fresh_resource(self):
        assert resolved([(Y,), ()], [(), (Z,)]) == [[], []]

    def test_order_and_first_occurrence(self):
        # reads before writes, each write's last writer before its
        # readers; the repeated writer 0 keeps its first position
        deps = resolved([(), (B,), (C,)],
                        [(A, B, C), (), (C, A, B)])
        assert deps[2] == [0, 1]

    def test_own_accesses_ignored(self):
        # a task that reads and writes one resource never depends on
        # itself, and a later reader sees it as the writer
        assert resolved([(X,), (X,)], [(X,), ()]) == [[], [0]]

    def test_empty(self):
        assert resolved([], []) == []


class TestPaperDependencies:
    """The exact dependency set listed in Section 2.1 for one TT
    elimination elim(i, piv, k) on a 2-column matrix."""

    @pytest.fixture
    def graph(self):
        return build_dag(flat_tree(2, 2), "TT")

    def test_geqrt_before_unmqr(self, graph):
        g = find(graph, Kernel.GEQRT, row=0, col=0)[0]
        u = find(graph, Kernel.UNMQR, row=0, col=0, j=1)[0]
        assert g.tid in u.deps

    def test_geqrt_both_rows_before_ttqrt(self, graph):
        t = find(graph, Kernel.TTQRT, row=1, col=0)[0]
        g0 = find(graph, Kernel.GEQRT, row=0, col=0)[0]
        g1 = find(graph, Kernel.GEQRT, row=1, col=0)[0]
        assert g0.tid in t.deps and g1.tid in t.deps

    def test_ttqrt_before_ttmqr(self, graph):
        t = find(graph, Kernel.TTQRT, row=1, col=0)[0]
        m = find(graph, Kernel.TTMQR, row=1, col=0, j=1)[0]
        assert t.tid in m.deps

    def test_unmqr_both_rows_before_ttmqr(self, graph):
        m = find(graph, Kernel.TTMQR, row=1, col=0, j=1)[0]
        u0 = find(graph, Kernel.UNMQR, row=0, col=0, j=1)[0]
        u1 = find(graph, Kernel.UNMQR, row=1, col=0, j=1)[0]
        assert u0.tid in m.deps and u1.tid in m.deps

    def test_v_nodep_relaxation(self, graph):
        """TTQRT must NOT wait for the UNMQR reads of its tiles — the
        [12] relaxation without which Table 3 is unattainable."""
        t = find(graph, Kernel.TTQRT, row=1, col=0)[0]
        for u in find(graph, Kernel.UNMQR, col=0):
            assert not depends(graph, t, u)

    def test_ttmqr_triggers_next_geqrt(self, graph):
        m = find(graph, Kernel.TTMQR, row=1, col=0, j=1)[0]
        g = find(graph, Kernel.GEQRT, row=1, col=1)[0]
        assert m.tid in g.deps


class TestTSFamily:
    def test_only_pivots_triangularized(self):
        g = build_dag(flat_tree(5, 2), "TS")
        geqrts = find(g, Kernel.GEQRT)
        assert {(t.row, t.col) for t in geqrts} == {(0, 0), (1, 1)}

    def test_squares_use_ts_kernels(self):
        g = build_dag(flat_tree(5, 2), "TS")
        assert len(find(g, Kernel.TSQRT)) == 4 + 3
        assert len(find(g, Kernel.TTQRT)) == 0

    def test_plasma_ts_merges_use_tt(self):
        """Domain heads are triangular when merged, so the merge
        eliminations fall back to TT kernels even in the TS family."""
        g = build_dag(plasma_tree(6, 1, 3), "TS")
        # two domains (rows 0-2, 3-5); merge elim(3, 0) must be TT
        tts = find(g, Kernel.TTQRT)
        assert [(t.row, t.piv) for t in tts] == [(3, 0)]
        assert len(find(g, Kernel.TSQRT)) == 4

    def test_geqrt_before_tsqrt(self):
        g = build_dag(flat_tree(3, 1), "TS")
        ge = find(g, Kernel.GEQRT, row=0, col=0)[0]
        ts = find(g, Kernel.TSQRT, row=1, col=0)[0]
        assert ge.tid in ts.deps

    def test_tsqrt_chain_serialized(self):
        """TSQRTs sharing the pivot row must serialize."""
        g = build_dag(flat_tree(4, 1), "TS")
        t1 = find(g, Kernel.TSQRT, row=1)[0]
        t2 = find(g, Kernel.TSQRT, row=2)[0]
        t3 = find(g, Kernel.TSQRT, row=3)[0]
        assert depends(g, t2, t1)
        assert depends(g, t3, t2)


class TestGraphStructure:
    def test_topological_order(self):
        g = build_dag(greedy(10, 5), "TT")
        for t in g.tasks:
            assert all(d < t.tid for d in t.deps)

    def test_zero_task_complete(self):
        g = build_dag(greedy(7, 3), "TT")
        expected = {(i, k) for k in range(3) for i in range(k + 1, 7)}
        assert set(g.zero_task) == expected

    def test_task_counts_tt(self):
        p, q = 6, 3
        g = build_dag(greedy(p, q), "TT")
        n_geqrt = len(find(g, Kernel.GEQRT))
        assert n_geqrt == sum(p - k for k in range(q))
        n_ttqrt = len(find(g, Kernel.TTQRT))
        assert n_ttqrt == sum(p - 1 - k for k in range(q))

    def test_networkx_export(self):
        nx_graph = build_dag(greedy(5, 2), "TT").to_networkx()
        import networkx
        assert networkx.is_directed_acyclic_graph(nx_graph)

    def test_rescale(self):
        g = build_dag(flat_tree(3, 2), "TT")
        g2 = g.rescale({k: 1.0 for k in Kernel})
        assert g2.total_weight() == len(g2.tasks)
        assert len(g2.tasks) == len(g.tasks)

    def test_str_rendering(self):
        g = build_dag(flat_tree(2, 1), "TT")
        labels = [str(t) for t in g.tasks]
        assert "GEQRT(1,1)" in labels
        assert "TTQRT(2,1,1)" in labels


class TestTotalWeightInvariant:
    """Section 2.2: total weight = 6pq^2 - 2q^3 for ANY valid list and
    EITHER kernel family."""

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["TT", "TS"]))
    @settings(max_examples=80, deadline=None)
    def test_property_invariant(self, p, q, seed, family):
        q = min(p, q)
        rng = np.random.default_rng(seed)
        el = random_elimination_list(rng, p, q)
        g = build_dag(el, family)
        assert g.total_weight() == total_weight(p, q)

    def test_schemes_invariant(self):
        for p, q in [(8, 4), (15, 6), (10, 10)]:
            for family in ("TT", "TS"):
                g = build_dag(greedy(p, q), family)
                assert g.total_weight() == total_weight(p, q)
