"""Tests for the distributed-memory model extension."""

import pytest

from repro.dag import build_dag
from repro.ext import (DistributedLayout, communication_volume,
                       distributed_graph, simulate_distributed)
from repro.schemes import binary_tree, flat_tree, greedy
from repro.sim import simulate_bounded, simulate_unbounded


class TestLayout:
    def test_block_owner(self):
        lay = DistributedLayout(p=8, nodes=2, kind="block")
        assert [lay.owner(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_block_uneven(self):
        lay = DistributedLayout(p=7, nodes=3, kind="block")
        assert [lay.owner(i) for i in range(7)] == [0, 0, 0, 1, 1, 1, 2]

    def test_cyclic_owner(self):
        lay = DistributedLayout(p=6, nodes=3, kind="cyclic")
        assert [lay.owner(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_crosses(self):
        lay = DistributedLayout(p=8, nodes=2)
        assert not lay.crosses(0, 3)
        assert lay.crosses(3, 4)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            DistributedLayout(p=4, nodes=0)
        with pytest.raises(ValueError):
            DistributedLayout(p=4, nodes=2, kind="diagonal")
        with pytest.raises(ValueError):
            DistributedLayout(p=4, nodes=2).owner(4)

    def test_single_node_never_crosses(self):
        lay = DistributedLayout(p=16, nodes=1)
        assert not any(lay.crosses(i, j) for i in range(16) for j in range(16))


class TestVolume:
    def test_single_node_zero(self):
        vol = communication_volume(greedy(8, 3),
                                   DistributedLayout(p=8, nodes=1))
        assert vol == {"messages": 0, "tiles": 0, "cross_eliminations": 0}

    def test_flat_tree_block_locality(self):
        """Block layout: FlatTree crosses nodes only for rows owned by
        other nodes than the panel's — but BinaryTree's high merge
        levels always cross."""
        lay = DistributedLayout(p=16, nodes=4, kind="block")
        ft = communication_volume(flat_tree(16, 1), lay)
        bt = communication_volume(binary_tree(16, 1), lay)
        # flat tree: pivot row 0; rows 4..15 cross -> 12 crossings
        assert ft["cross_eliminations"] == 12
        # binary tree: within-node reductions are free, merges cross
        assert bt["cross_eliminations"] == 3
        assert bt["tiles"] < ft["tiles"]

    def test_binary_tree_prefers_block_layout(self):
        """Binary reductions localize their low levels under a block
        layout; a cyclic layout forces every level to cross nodes."""
        el = binary_tree(16, 4)
        block = communication_volume(el, DistributedLayout(16, 4, "block"))
        cyclic = communication_volume(el, DistributedLayout(16, 4, "cyclic"))
        assert block["tiles"] < cyclic["tiles"]

    def test_message_accounting(self):
        # single cross-node elimination in col 0 of a q=3 matrix:
        # 1 panel message + 2 update messages
        from repro.schemes.elimination import Elimination, EliminationList
        el = EliminationList(2, 1, [Elimination(1, 0, 0)])
        lay = DistributedLayout(p=2, nodes=2)
        vol = communication_volume(
            EliminationList(2, 1, [Elimination(1, 0, 0)]), lay)
        assert vol["messages"] == 1


class TestDistributedGraph:
    def test_zero_cost_identity(self):
        g = build_dag(greedy(8, 3), "TT")
        g2 = distributed_graph(g, DistributedLayout(8, 2), 0.0)
        assert simulate_unbounded(g2).makespan == simulate_unbounded(g).makespan

    def test_cost_increases_cp(self):
        g = build_dag(binary_tree(16, 4), "TT")
        lay = DistributedLayout(16, 4)
        cps = [simulate_unbounded(distributed_graph(g, lay, c)).makespan
               for c in (0.0, 2.0, 8.0)]
        assert cps == sorted(cps) and cps[0] < cps[-1]

    def test_local_tasks_unchanged(self):
        g = build_dag(flat_tree(8, 2), "TT")
        g2 = distributed_graph(g, DistributedLayout(8, 2), 5.0)
        for t, t2 in zip(g.tasks, g2.tasks):
            if t.piv is None or t.piv // 4 == t.row // 4:
                assert t2.weight == t.weight
            else:
                assert t2.weight == t.weight + 5.0

    @pytest.mark.parametrize("spec", ["lu(p=8,q=4)", "cholesky(t=8)"])
    def test_keeps_problem_family(self, spec):
        """A reweighted LU/Cholesky graph must not come back labelled
        ``qr``: analytics would then attach the QR Theorem 1(3)
        bound to it."""
        from repro.api import plan
        from repro.obs.analyze import analyze_sim

        g = plan(spec).graph
        g2 = distributed_graph(g, DistributedLayout(8, 2), 0.0)
        assert g2.problem == g.problem != "qr"
        bounds = analyze_sim(simulate_unbounded(g2)).bounds
        assert bounds == analyze_sim(simulate_unbounded(g)).bounds
        assert "paper_cp_lower_bound" not in bounds

    def test_flat_tree_pays_for_its_global_pivot(self):
        """Under a block layout, FlatTree's single pivot row touches
        every other node's rows *serially*, so its disadvantage GROWS
        with communication cost, while BinaryTree and the hierarchical
        PlasmaTree (BS = rows-per-node) localize all but log2(nodes)
        merges — the trade-off motivating the trees of [8, 11]."""
        lay = DistributedLayout(16, 4)
        base_ft = simulate_unbounded(build_dag(flat_tree(16, 1), "TT")).makespan
        base_bt = simulate_unbounded(build_dag(binary_tree(16, 1), "TT")).makespan
        assert base_bt < base_ft  # without communication, binary wins
        cost = 50.0
        d_ft = simulate_unbounded(distributed_graph(
            build_dag(flat_tree(16, 1), "TT"), lay, cost)).makespan
        d_bt = simulate_unbounded(distributed_graph(
            build_dag(binary_tree(16, 1), "TT"), lay, cost)).makespan
        assert d_ft / d_bt > base_ft / base_bt  # gap widens with comm
        from repro.schemes import plasma_tree
        d_pt = simulate_unbounded(distributed_graph(
            build_dag(plasma_tree(16, 1, 4), "TT"), lay, cost)).makespan
        assert d_pt < d_ft
        assert abs(d_pt - d_bt) <= cost  # within one cross-node merge
        vol_pt = communication_volume(plasma_tree(16, 1, 4), lay)
        vol_bt = communication_volume(binary_tree(16, 1), lay)
        vol_ft = communication_volume(flat_tree(16, 1), lay)
        assert vol_pt["tiles"] <= vol_bt["tiles"] < vol_ft["tiles"]


class TestSimulateDistributed:
    def test_single_node_matches_bounded(self):
        """One node reproduces simulate_bounded's start and finish
        arrays byte for byte (worker ids follow another convention)."""
        g = build_dag(greedy(8, 3), "TT")
        lay = DistributedLayout(p=8, nodes=1)
        for P in (1, 3, 8, 48):
            a = simulate_distributed(g, lay, workers_per_node=P)
            b = simulate_bounded(g, P)
            assert a.start.tobytes() == b.start.tobytes()
            assert a.finish.tobytes() == b.finish.tobytes()

    def test_owner_computes_placement(self):
        g = build_dag(greedy(8, 2), "TT")
        lay = DistributedLayout(p=8, nodes=2)
        res = simulate_distributed(g, lay, workers_per_node=2)
        for t in g.tasks:
            node = int(res.worker[t.tid]) // 2
            assert node == lay.owner(t.row)

    def test_dependencies_respected(self):
        g = build_dag(greedy(12, 4), "TT")
        lay = DistributedLayout(p=12, nodes=3)
        res = simulate_distributed(g, lay, workers_per_node=2,
                                   tile_comm_cost=3.0)
        for t in g.tasks:
            for d in t.deps:
                assert res.start[t.tid] >= res.finish[d] - 1e-9

    def test_comm_cost_slows_cross_node_trees(self):
        g = build_dag(binary_tree(16, 2), "TT")
        lay = DistributedLayout(p=16, nodes=4)
        fast = simulate_distributed(g, lay, 4, tile_comm_cost=0.0).makespan
        slow = simulate_distributed(g, lay, 4, tile_comm_cost=10.0).makespan
        assert slow > fast

    def test_no_worker_double_booking(self):
        g = build_dag(greedy(10, 3), "TT")
        lay = DistributedLayout(p=10, nodes=2)
        res = simulate_distributed(g, lay, workers_per_node=2)
        spans = {}
        for t in g.tasks:
            spans.setdefault(int(res.worker[t.tid]), []).append(
                (res.start[t.tid], res.finish[t.tid]))
        for w, lst in spans.items():
            lst.sort()
            for (s1, f1), (s2, f2) in zip(lst, lst[1:]):
                assert s2 >= f1 - 1e-12

    def test_more_nodes_can_hurt_with_comm(self):
        """Splitting a fixed worker budget across nodes adds
        communication: 1x8 never loses to 4x2 once transfers cost."""
        g = build_dag(greedy(16, 4), "TT")
        one = simulate_distributed(g, DistributedLayout(16, 1), 8,
                                   tile_comm_cost=8.0).makespan
        four = simulate_distributed(g, DistributedLayout(16, 4), 2,
                                    tile_comm_cost=8.0).makespan
        assert one <= four

    def test_validation(self):
        g = build_dag(greedy(4, 2), "TT")
        with pytest.raises(ValueError):
            simulate_distributed(g, DistributedLayout(4, 2), 0)
