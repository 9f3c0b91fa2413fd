"""Distributed-memory model (S18, paper §5 future work).

"Extending [the model] to fully distributed architectures would lay the
ground to the design of MPI implementations of the new algorithms."
This module provides that model layer: tile rows are distributed over
``nodes`` memories (block or cyclic layout), every stacked kernel whose
two rows live on different nodes pays a per-tile transfer surcharge,
and the elimination trees can then be compared by *communication
volume* as well as by critical path.

The qualitative outcome (see ``benchmarks/bench_ablation_distributed``):
with a block layout, FlatTree localizes all but ``O(q)`` eliminations
inside nodes, while BinaryTree/Greedy cross node boundaries on every
merge level — the same locality-vs-parallelism trade-off that motivates
the hierarchical trees of Demmel et al. [8] and Hadri et al. [11].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.costs import Kernel
from ..schemes.elimination import EliminationList
from ..sim.simulate import SimResult, _list_schedule, _resolve, bottom_levels

__all__ = [
    "DistributedLayout",
    "communication_volume",
    "distributed_graph",
    "simulate_distributed",
]

#: the two-row kernels, which pay a transfer when their rows are remote
_STACKED_CODES = [KERNEL_CODES.index(k) for k in (
    Kernel.TSQRT, Kernel.TTQRT, Kernel.TSMQR, Kernel.TTMQR)]


@dataclass(frozen=True)
class DistributedLayout:
    """Row-block distribution of a ``p x q`` tile grid.

    Attributes
    ----------
    p : int
        Number of tile rows.
    nodes : int
        Number of distributed memories.
    kind : {"block", "cyclic"}
        ``block`` gives node ``n`` rows ``[n*ceil(p/nodes), ...)``;
        ``cyclic`` deals rows round-robin (``i % nodes``).
    """

    p: int
    nodes: int
    kind: str = "block"

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.kind not in ("block", "cyclic"):
            raise ValueError(f"unknown layout kind {self.kind!r}")

    def owner(self, row: int) -> int:
        """Node owning tile row ``row``."""
        if not (0 <= row < self.p):
            raise ValueError(f"row {row} outside 0..{self.p - 1}")
        if self.kind == "cyclic":
            return row % self.nodes
        rows_per_node = -(-self.p // self.nodes)
        return row // rows_per_node

    def crosses(self, i: int, piv: int) -> bool:
        """True if rows ``i`` and ``piv`` live on different nodes."""
        return self.owner(i) != self.owner(piv)


def communication_volume(
    elims: EliminationList, layout: DistributedLayout
) -> dict[str, int]:
    """Inter-node communication of an elimination tree under ``layout``.

    Counts one message per cross-node elimination in the panel (the
    triangle exchanged by TTQRT/TSQRT) plus one per trailing update
    column (the row tiles combined by TTMQR/TSMQR), the dominant
    volume of an MPI port.

    Returns
    -------
    dict with ``messages`` (count), ``tiles`` (tile transfers) and
    ``cross_eliminations``.
    """
    messages = tiles = cross = 0
    for e in elims:
        if layout.crosses(e.row, e.piv):
            cross += 1
            trailing = elims.q - e.col - 1
            messages += 1 + trailing
            tiles += 1 + trailing
    return {"messages": messages, "tiles": tiles, "cross_eliminations": cross}


def simulate_distributed(
    graph: TaskGraph,
    layout: DistributedLayout,
    workers_per_node: int,
    tile_comm_cost: float = 0.0,
) -> SimResult:
    """Owner-computes list scheduling over node-local worker pools.

    The standard distributed-memory execution model for tiled QR: each
    task runs on the node owning the row it *writes* (the eliminated
    row for stacked kernels, the factored/updated row otherwise), on
    one of that node's ``workers_per_node`` workers; cross-node stacked
    kernels additionally pay ``tile_comm_cost`` for fetching the remote
    tile (the weights of :func:`distributed_graph`).  Each node has its
    own ready queue; priorities are the bottom levels without
    transfers.  This is the machine the paper's §5 MPI outlook
    describes, so elimination trees can be ranked under it directly.

    Parameters
    ----------
    graph : TaskGraph or Plan
    """
    if workers_per_node < 1:
        raise ValueError(
            f"need at least one worker per node, got {workers_per_node}")
    g, idx = _resolve(graph)
    pools = [list(range(node * workers_per_node,
                        (node + 1) * workers_per_node))
             for node in range(layout.nodes)]
    start, finish, worker = _list_schedule(
        idx, -bottom_levels(graph), pools,
        weights=distributed_graph(g, layout, tile_comm_cost).weights,
        home=_owners(layout, g.rows))
    return SimResult(graph=g, start=start, finish=finish,
                     makespan=float(finish.max()) if idx.n else 0.0,
                     processors=layout.nodes * workers_per_node,
                     worker=worker)


def _owners(layout: DistributedLayout, rows: np.ndarray) -> np.ndarray:
    """The node owning each of ``rows``."""
    table = [layout.owner(r) for r in range(int(rows.max(initial=-1)) + 1)]
    return np.array(table, dtype=np.int64)[rows]


def distributed_graph(
    graph: TaskGraph,
    layout: DistributedLayout,
    tile_comm_cost: float,
) -> TaskGraph:
    """Copy ``graph`` charging ``tile_comm_cost`` to cross-node kernels.

    Every stacked kernel (TSQRT/TTQRT/TSMQR/TTMQR) whose two rows live
    on different nodes pays one tile transfer on top of its Table-1
    weight; node-local kernels are unchanged.  The copy shares the
    graph's structure and problem family; it feeds the usual
    simulators, giving distributed-aware critical paths.
    """
    stacked = np.flatnonzero(np.isin(graph.codes, _STACKED_CODES))
    cross = stacked[_owners(layout, graph.rows[stacked])
                    != _owners(layout, graph.pivs[stacked])]
    w = graph.weights.copy()
    w[cross] += tile_comm_cost
    return graph.with_weights(w, name=f"{graph.name}@{layout.nodes}nodes")
