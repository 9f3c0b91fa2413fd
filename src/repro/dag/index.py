"""Flat numpy index of a task graph — the simulator's substrate (S10).

:class:`GraphIndex` extends a :class:`TaskGraph`'s predecessor CSR
(its ``dep_ptr``/``dep_adj`` columns) with everything the simulators
walk: successor adjacency, per-task weights, and a topological *level*
decomposition (level of a task = length of the longest edge path
reaching it).  All tasks of one level have every predecessor in
strictly earlier levels, so a forward (or reverse) pass over levels
can be expressed with ``np.maximum.reduceat`` over pre-gathered
segments instead of a per-task Python loop.

The index is immutable by convention: it is built from a fully
constructed graph (``TaskGraph.index()`` memoizes it) and shared by
every simulation over that graph.  Its :attr:`GraphIndex.memo` holds
the weight-dependent passes the simulators derive from it once (the
ASAP schedule, the bottom levels), as read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .tasks import TaskGraph

__all__ = ["GraphIndex", "build_index"]


def _csr_gather(ptr: np.ndarray, adj: np.ndarray,
                nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR segments of ``nodes``, preserving node order.

    Returns ``(values, counts)`` where ``values`` is the concatenation
    of ``adj[ptr[n]:ptr[n+1]]`` for each ``n`` and ``counts`` the
    per-node segment lengths.
    """
    counts = ptr[nodes + 1] - ptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=adj.dtype), counts
    out_off = np.zeros(len(nodes), dtype=np.int64)
    np.cumsum(counts[:-1], out=out_off[1:])
    idx = np.arange(total, dtype=np.int64) + np.repeat(
        ptr[nodes] - out_off, counts)
    return adj[idx], counts


@dataclass(frozen=True)
class GraphIndex:
    """CSR-style view of a :class:`~repro.dag.tasks.TaskGraph`.

    Attributes
    ----------
    n : int
        Task count.
    weights : ndarray of float64, shape (n,)
        Per-task durations.
    pred_ptr, pred_adj : ndarray of int64
        Predecessor CSR (``pred_adj[pred_ptr[t]:pred_ptr[t+1]]`` are
        ``t``'s dependencies, in emission order).
    succ_ptr, succ_adj : ndarray of int64
        Successor CSR, targets ascending within each segment.
    level : ndarray of int64, shape (n,)
        Longest-path depth of each task (sources are level 0).
    order : ndarray of int64, shape (n,)
        Task ids sorted by (level, id) — a topological order grouped
        into level segments.
    level_ptr : ndarray of int64, shape (L + 1,)
        Segment bounds of each level inside ``order``.
    fwd_pred_ptr, fwd_pred_adj : ndarray of int64
        ``pred_adj`` re-gathered to follow ``order`` (``fwd_pred_ptr``
        is aligned with positions in ``order``), so a level's
        predecessor segments are one contiguous slice.
    rev_nodes, rev_seg_ptr, rev_succ_ptr, rev_succ_adj : ndarray of int64
        Tasks *with at least one successor*, grouped by descending
        level (``rev_seg_ptr`` bounds the groups), with their successor
        segments gathered contiguously — the reverse-pass mirror of the
        forward arrays, used by ``bottom_levels``.
    memo : dict
        Passes over this index memoized by :mod:`repro.sim.simulate`
        (read-only arrays); :meth:`with_weights` starts a fresh one.
    """

    n: int
    weights: np.ndarray
    pred_ptr: np.ndarray
    pred_adj: np.ndarray
    succ_ptr: np.ndarray
    succ_adj: np.ndarray
    level: np.ndarray
    order: np.ndarray
    level_ptr: np.ndarray
    fwd_pred_ptr: np.ndarray
    fwd_pred_adj: np.ndarray
    rev_nodes: np.ndarray
    rev_seg_ptr: np.ndarray
    rev_succ_ptr: np.ndarray
    rev_succ_adj: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def indegree(self) -> np.ndarray:
        """Fresh per-task dependency counts (safe to mutate)."""
        return (self.pred_ptr[1:] - self.pred_ptr[:-1]).copy()

    def with_weights(self, weights: np.ndarray) -> "GraphIndex":
        """Shallow copy sharing every structural array, new weights.

        The level decomposition depends only on the edge set, so a
        rescaled graph (measured kernel times, Table-1 variants) can
        reuse the whole index.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n,):
            raise ValueError(
                f"weights have shape {w.shape}, expected ({self.n},)")
        return replace(self, weights=w)


def build_index(graph: "TaskGraph") -> GraphIndex:
    """Build the :class:`GraphIndex` of ``graph``.

    Reads the graph's columns; one O(tasks + edges) pass.  Prefer the
    memoized :meth:`TaskGraph.index` over calling this directly.
    """
    n = len(graph)
    weights = graph.weights
    pred_ptr, pred_adj = graph.dep_ptr, graph.dep_adj
    dep_counts = np.diff(pred_ptr)

    # successors: edges are (target asc, dep) in pred_adj; a stable
    # sort by source groups them into CSR with ascending targets,
    # matching TaskGraph.successors() order.
    succ_counts = np.bincount(pred_adj, minlength=n).astype(np.int64)
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(succ_counts, out=succ_ptr[1:])
    edge_targets = np.repeat(np.arange(n, dtype=np.int64), dep_counts)
    succ_adj = edge_targets[np.argsort(pred_adj, kind="stable")]

    # longest-path levels via Kahn frontier peeling: a task is removed
    # in round r iff the longest edge path reaching it has r edges
    level = np.zeros(n, dtype=np.int64)
    indeg = dep_counts.copy()
    frontier = np.flatnonzero(indeg == 0)
    lvl = 0
    while frontier.size:
        level[frontier] = lvl
        targets, _ = _csr_gather(succ_ptr, succ_adj, frontier)
        if targets.size:
            dec = np.bincount(targets, minlength=n)
            indeg -= dec
            frontier = np.flatnonzero((indeg == 0) & (dec > 0))
        else:
            frontier = targets
        lvl += 1

    order = np.argsort(level, kind="stable").astype(np.int64)
    nlevels = int(level.max()) + 1 if n else 0
    level_ptr = np.searchsorted(
        level[order], np.arange(nlevels + 1, dtype=np.int64)).astype(np.int64)

    fwd_pred_adj, fwd_counts = _csr_gather(pred_ptr, pred_adj, order)
    fwd_pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fwd_counts, out=fwd_pred_ptr[1:])

    # reverse pass: tasks with successors, grouped by descending level
    has_succ = np.flatnonzero(succ_counts > 0).astype(np.int64)
    rev_nodes = has_succ[np.argsort(-level[has_succ], kind="stable")]
    rev_succ_adj, rev_counts = _csr_gather(succ_ptr, succ_adj, rev_nodes)
    rev_succ_ptr = np.zeros(len(rev_nodes) + 1, dtype=np.int64)
    np.cumsum(rev_counts, out=rev_succ_ptr[1:])
    if len(rev_nodes):
        lvl_desc = level[rev_nodes]
        change = np.flatnonzero(np.diff(lvl_desc)) + 1
        rev_seg_ptr = np.concatenate(
            ([0], change, [len(rev_nodes)])).astype(np.int64)
    else:
        rev_seg_ptr = np.zeros(1, dtype=np.int64)

    return GraphIndex(
        n=n, weights=weights,
        pred_ptr=pred_ptr, pred_adj=pred_adj,
        succ_ptr=succ_ptr, succ_adj=succ_adj,
        level=level, order=order, level_ptr=level_ptr,
        fwd_pred_ptr=fwd_pred_ptr, fwd_pred_adj=fwd_pred_adj,
        rev_nodes=rev_nodes, rev_seg_ptr=rev_seg_ptr,
        rev_succ_ptr=rev_succ_ptr, rev_succ_adj=rev_succ_adj,
    )
