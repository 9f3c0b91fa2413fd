"""The frontier core: ready-group formation shared by every transport (S24).

The three parallel transports — inline (``mode="batched"``), thread
(``mode="task"``, ``workers >= 2``) and process (``mode="process"``)
— schedule a factorization DAG the same way.  :class:`FrontierCore`
holds the Plan's CSR in-degrees and the bottom-level priority keys
and releases successors with one vectorized :meth:`~FrontierCore.retire`;
:class:`GroupFrontier` is its ready set, popping *groups* of
compatible ready tasks so that one stacked kernel sequence (and, in
process mode, one queue round-trip) covers many tasks.

Compatibility is cheap to decide.  Two tasks can share a group iff
they run the same kernel; everything else is implied by readiness:

* tasks that are simultaneously ready are mutually independent (a
  dependency path would order them), so their *output* tiles are
  disjoint — any write-write or read-write pair on a tile is
  DAG-ordered, hence never co-ready;
* a newly ready task cannot conflict with an in-flight one for the
  same reason: its conflicting predecessors have all retired.

So group formation needs no pairwise tile checks at all — it is a pop
of up to ``batch`` tasks from one per-kernel ready heap, O(frontier)
total, not O(frontier²).  :func:`dispatch_arrays` flattens a graph
once into the aligned coordinate arrays the core and the group
executor (:mod:`repro.runtime.group_executor`) index, memoized on the
:class:`~repro.planner.Plan` as ``Plan.dispatch_arrays()``.

The inline transport runs groups one at a time in the calling thread,
so its order does not depend on timing: :func:`drain_groups` drains
the core once with unbounded groups, retiring each group as it pops,
and the Plan memoizes the result as ``Plan.level_groups()``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.costs import Kernel

__all__ = [
    "APPLY_CODES", "FACTOR_CODES", "DispatchArrays", "FrontierCore",
    "GroupFrontier", "dedup_hits", "dispatch_arrays", "drain_groups",
    "resolve_batch", "unwrap_graph",
]

_KERNEL_TO_CODE = {k: c for c, k in enumerate(KERNEL_CODES)}

#: the QR factor kernels: produce a T factor, run per-slice in groups
FACTOR_CODES = frozenset(
    _KERNEL_TO_CODE[k] for k in (Kernel.GEQRT, Kernel.TSQRT, Kernel.TTQRT))

#: the QR update kernels: consume a T factor, run stacked in groups
APPLY_CODES = frozenset(
    _KERNEL_TO_CODE[k] for k in (Kernel.UNMQR, Kernel.TSMQR, Kernel.TTMQR))

#: T-factor kind of each QR kernel code — the ``(row, col, kind)`` key
#: convention of ``ExecutionContext.tfactors``
KIND = {_KERNEL_TO_CODE[k]: kind for k, kind in (
    (Kernel.GEQRT, "ge"), (Kernel.UNMQR, "ge"), (Kernel.TSQRT, "ts"),
    (Kernel.TSMQR, "ts"), (Kernel.TTQRT, "tt"), (Kernel.TTMQR, "tt"))}

#: :data:`KIND` as an index over kernel codes (-1: no T factor)
_KIND_OF = np.array([("ge", "ts", "tt").index(KIND[c]) if c in KIND else -1
                     for c in range(len(KERNEL_CODES))], dtype=np.int64)

#: group-size histogram buckets (powers of two) of every transport
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: ``--batch auto`` targets at least this much estimated work per
#: descriptor, so queue latency and deserialization amortize into the
#: noise while groups stay small enough for least-loaded placement
_AUTO_TARGET_SECONDS = 1e-3

#: calibrated seconds per Table-1 weight unit at nb=64 on small-tile
#: BLAS (kernel wall-times scale ~nb³; see docs/performance.md)
_UNIT_SECONDS_NB64 = 25e-6

#: auto never exceeds this group size — beyond it, placement quality
#: and in-flight fairness cost more than the amortization returns
_AUTO_MAX = 256

#: auto target multiplier for a single worker: with no sibling workers
#: to starve, larger descriptors only amortize harder (longer V runs,
#: fewer queue round trips); measured wall-clock at 1024²/nb=64 keeps
#: improving through ~256-task descriptors, so solo aims 32x deeper
_AUTO_SOLO_FACTOR = 32.0


def resolve_batch(batch, nb: int, mean_weight: float = 5.0,
                  workers: int = 1) -> int:
    """Resolve a ``--batch`` setting to a concrete group size (>= 1).

    ``"off"`` (or 1) disables grouping; an int is used as-is;
    ``"auto"`` targets >= ~1ms of estimated work per descriptor from
    the mean Table-1 task weight and the nb³ kernel cost model — small
    tiles get large groups (the overhead-dominated regime), large
    tiles degenerate to single-task dispatch where the kernel already
    dwarfs the queue tax.  With a single worker the target deepens by
    :data:`_AUTO_SOLO_FACTOR`: grouping cannot starve a sibling
    worker, so only the amortization side of the trade remains.
    """
    if batch == "off":
        return 1
    if batch == "auto":
        est = max(mean_weight, 1.0) * _UNIT_SECONDS_NB64 * (nb / 64.0) ** 3
        target = _AUTO_TARGET_SECONDS * (
            _AUTO_SOLO_FACTOR if workers <= 1 else 1.0)
        return max(1, min(_AUTO_MAX, round(target / est)))
    size = int(batch)
    if size < 1:
        raise ValueError(f"batch must be >= 1, 'auto' or 'off', got {batch!r}")
    return size


def unwrap_graph(graph) -> tuple[TaskGraph, object]:
    """``(task graph, plan or None)`` of a TaskGraph or a Plan."""
    if isinstance(graph, TaskGraph):
        return graph, None
    g = getattr(graph, "graph", None)  # Plan-shaped object
    if not isinstance(g, TaskGraph):
        raise TypeError(
            f"expected a TaskGraph or a Plan, got {type(graph).__name__}")
    return g, graph


# ----------------------------------------------------------------------
# graph flattening (cached per Plan)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DispatchArrays:
    """A graph flattened into the aligned per-task dispatch arrays.

    ``codes`` positions follow :data:`~repro.dag.tasks.KERNEL_CODES`;
    coordinate arrays use ``-1`` where a kernel has no such coordinate.
    ``fslot`` numbers the factor tasks' T-store slots densely in tid
    order; ``src`` points each apply task at its producer's slot
    (QR kernels only — ``-1`` elsewhere).  Immutable and plan-cachable:
    building these is O(tasks).
    """

    codes: np.ndarray
    rows: np.ndarray
    pivs: np.ndarray
    cols: np.ndarray
    js: np.ndarray
    fslot: np.ndarray
    src: np.ndarray
    nfactor: int

    def __len__(self) -> int:
        return int(self.codes.size)

    def take(self, tids) -> tuple:
        """The coordinate columns of ``tids`` — rows, pivots, columns,
        ``j``, T slots, source slots — in the argument order of
        :meth:`GroupExecutor.run
        <repro.runtime.group_executor.GroupExecutor.run>`."""
        ix = np.asarray(tids, dtype=np.intp)
        return (self.rows[ix], self.pivs[ix], self.cols[ix], self.js[ix],
                self.fslot[ix], self.src[ix])


def dispatch_arrays(graph: TaskGraph) -> DispatchArrays:
    """Flatten ``graph`` into :class:`DispatchArrays` (reads its columns).

    Prefer the memoized ``Plan.dispatch_arrays()`` when a plan is
    available — persistent pools then skip the per-run flattening.
    """
    codes, n = graph.codes, len(graph)
    rows, cols = graph.rows.astype(np.int64), graph.cols.astype(np.int64)
    # factor tasks get a slot in the T store, in tid order; apply
    # tasks reference their source factor's slot by its (row, col,
    # kind) key
    key = ((rows * (int(cols.max(initial=0)) + 1) + cols) * 3
           + _KIND_OF[codes])
    factor = np.isin(codes, list(FACTOR_CODES))
    apply = np.isin(codes, list(APPLY_CODES))
    nfactor = int(factor.sum())
    fslot = np.full(n, -1, dtype=np.int64)
    fslot[factor] = np.arange(nfactor)
    slot_of = np.full(int(key.max(initial=0)) + 1, -1, dtype=np.int64)
    slot_of[key[factor]] = fslot[factor]
    src = np.full(n, -1, dtype=np.int64)
    src[apply] = slot_of[key[apply]]
    if (src[apply] < 0).any():
        raise KeyError("an apply task has no source factor task")
    return DispatchArrays(codes=codes, rows=rows,
                          pivs=graph.pivs.astype(np.int64), cols=cols,
                          js=graph.js.astype(np.int64), fslot=fslot, src=src,
                          nfactor=nfactor)


def dedup_hits(srcs) -> int:
    """Source-tile loads an apply group saves by sharing V/T runs."""
    a = np.asarray(srcs)
    return int(a.size - np.unique(a).size)


# ----------------------------------------------------------------------
# group-aware ready frontier
# ----------------------------------------------------------------------

class GroupFrontier:
    """Priority ready-frontier that pops same-kernel micro-batches.

    Ready tasks bucket by ``(kernel code, source slot)`` — the source
    is the producing factor task, so one bucket is exactly one shared
    V/T tile.  A per-code *border* heap tracks each push, keyed like
    the task itself, so the best ready task of a code is O(1) to find
    (stale border entries — tasks already popped — are skipped
    lazily, classic lazy-deletion heap).  :meth:`pop_group` selects
    the code whose border carries the globally best (minimum) key,
    then fills the group *bucket by bucket* in border order: the best
    task comes first, and the rest of its V/T bucket rides along
    before any other source is touched.  That source affinity is what
    makes the stacked apply amortize — every bucket drained whole is
    one V-run of :func:`~repro.runtime.group_executor.apply_chunks`,
    whose V tile and T are fetched once and broadcast over the run
    inside one chunk's stacked apply.  Every popped group is valid by the readiness argument in
    the module docstring: same kernel, mutually independent, disjoint
    outputs — no pairwise checks needed.

    With ``batch == 1`` (or ``src=None``, the degenerate single
    bucket per code) this reduces exactly to one priority heap per
    kernel code popping the globally best task.
    """

    __slots__ = ("_codes", "_src", "batch", "_buckets", "_border",
                 "_seq", "_n", "_popped", "_oldest")

    def __init__(self, codes: np.ndarray, batch: int = 1, src=None):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        # Python lists: push reads one element per task, and indexing
        # a list is several times cheaper than indexing an ndarray
        self._codes = np.asarray(codes).tolist()
        self._src = None if src is None else np.asarray(src).tolist()
        self.batch = batch
        #: code -> {src slot -> heap of (key, seq, tid)}
        self._buckets: dict[int, dict[int, list]] = {}
        #: code -> heap of (key, seq, src slot); one entry per push
        self._border: dict[int, list] = {}
        self._seq = 0
        self._n = 0
        #: popped flag per push, and the first push not yet popped
        self._popped = bytearray()
        self._oldest = 0

    def __len__(self) -> int:
        return self._n

    def push(self, tid: int, key: float = 0.0) -> None:
        """Add a ready task (``key`` sorts ascending — negate
        bottom-levels for critical-path-first order)."""
        code = self._codes[tid]
        s = self._src[tid] if self._src is not None else -1
        buckets = self._buckets.get(code)
        if buckets is None:
            buckets = self._buckets[code] = {}
            self._border[code] = []
        heap = buckets.get(s)
        if heap is None:
            heap = buckets[s] = []
        entry = (key, self._seq, tid)
        heapq.heappush(heap, entry)
        heapq.heappush(self._border[code], (key, self._seq, s))
        self._popped.append(0)
        self._seq += 1
        self._n += 1

    def _head(self, code: int):
        """Valid border head of ``code`` (lazily dropping stale
        entries), or ``None`` when the code has no ready tasks.

        A border entry is stale iff its task was already popped; the
        border is a superset-heap of all bucket entries, so its first
        non-stale entry always mirrors some bucket's current head.
        """
        border = self._border[code]
        buckets = self._buckets[code]
        while border:
            key, seq, s = border[0]
            heap = buckets.get(s)
            if heap and heap[0][1] == seq:
                return border[0]
            heapq.heappop(border)
        return None

    def _best(self):
        """``(code, head)`` of the globally best ready task."""
        best_code, best_head = -1, None
        for code in self._border:
            head = self._head(code)
            if head is not None and (best_head is None or head < best_head):
                best_code, best_head = code, head
        return best_code, best_head

    def inverted(self, best=None) -> bool:
        """Whether the next pop skips an older ready task — i.e. FIFO
        order would have run a different task first.  Amortized O(1)
        past :meth:`_best` (pass its answer as ``best`` when it is at
        hand): pushes are numbered in order, so the oldest ready task
        is the first push not yet popped, and that pointer only moves
        forward."""
        _, head = self._best() if best is None else best
        popped, oldest = self._popped, self._oldest
        while popped[oldest]:
            oldest += 1
        self._oldest = oldest
        return oldest < head[1]

    def pop_group(self, limit: int | None = None,
                  best=None) -> tuple[int, list[int]]:
        """Pop the best compatible group: ``(code, tids)``.

        ``limit`` additionally caps the group size (the process
        transport passes the target worker's remaining in-flight
        *task* capacity, so one giant group cannot blow past the cap
        that exists to keep priority meaningful); ``best`` is
        :meth:`_best`'s answer when the caller has it.
        """
        if not self._n:
            raise IndexError("pop from an empty frontier")
        best_code, _ = self._best() if best is None else best
        buckets = self._buckets[best_code]
        size = self.batch
        if limit is not None:
            size = max(1, min(size, limit))
        popped = self._popped
        tids: list[int] = []
        while len(tids) < size:
            head = self._head(best_code)
            if head is None:
                break
            heap = buckets[head[2]]
            while heap and len(tids) < size:
                _, seq, tid = heapq.heappop(heap)
                popped[seq] = 1
                tids.append(tid)
        self._n -= len(tids)
        return best_code, tids


# ----------------------------------------------------------------------
# the scheduler core
# ----------------------------------------------------------------------

class FrontierCore:
    """Ready frontier plus CSR in-degrees: the one scheduler core.

    Built from a :class:`~repro.planner.Plan` (memoized dispatch
    arrays, bottom-level keys: critical path first) or a bare
    :class:`~repro.dag.tasks.TaskGraph` (FIFO keys).  The sources are
    ready at construction; :meth:`pop` hands out groups and
    :meth:`retire` releases their successors.  Transports serialize
    calls (the thread transport under its lock); the core itself does
    no locking.  With ``metrics``, every pop that bypasses an older
    ready task counts into ``scheduler.priority_inversions_avoided``.
    """

    __slots__ = ("da", "weights", "frontier", "sources", "_indeg",
                 "_keys", "_succ_ptr", "_succ_adj", "_inversions")

    def __init__(self, graph, batch: int = 1, metrics=None):
        g, plan = unwrap_graph(graph)
        idx = g.index()
        self.da = (plan.dispatch_arrays() if plan is not None
                   and hasattr(plan, "dispatch_arrays")
                   else dispatch_arrays(g))
        self.weights = idx.weights
        self._keys = (None if plan is None or not hasattr(plan, "bottom_levels")
                      else (-np.asarray(plan.bottom_levels(),
                                        dtype=np.float64)).tolist())
        self._indeg = idx.indegree
        self._succ_ptr, self._succ_adj = idx.succ_ptr, idx.succ_adj
        self._inversions = (None if metrics is None else
                            metrics.counter(
                                "scheduler.priority_inversions_avoided"))
        self.frontier = GroupFrontier(self.da.codes, batch, src=self.da.src)
        self.sources = np.flatnonzero(self._indeg == 0)
        self._push(self.sources)

    def __len__(self) -> int:
        return len(self.frontier)

    def _push(self, tids: np.ndarray) -> None:
        push, keys = self.frontier.push, self._keys
        for tid in tids.tolist():
            push(tid, 0.0 if keys is None else keys[tid])

    def pop(self, limit: int | None = None) -> tuple[int, list[int]]:
        """The best ready group ``(code, tids)``; see
        :meth:`GroupFrontier.pop_group`."""
        fr = self.frontier
        if self._inversions is None:
            return fr.pop_group(limit)
        best = fr._best()  # one scan of the borders serves both
        if fr.inverted(best):
            self._inversions.inc()
        return fr.pop_group(limit, best)

    def retire(self, tids) -> np.ndarray:
        """Release the successors of retired ``tids``; returns the
        newly ready tasks (ascending), already pushed.

        One ``np.subtract.at`` over the concatenated successor slices:
        a successor fed by several retired tasks is decremented once
        per edge.
        """
        ptr, adj = self._succ_ptr, self._succ_adj
        alls = (adj[ptr[tids[0]]:ptr[tids[0] + 1]] if len(tids) == 1
                else np.concatenate([adj[ptr[t]:ptr[t + 1]] for t in tids]))
        if not alls.size:
            return alls
        np.subtract.at(self._indeg, alls, 1)
        newly = np.unique(alls[self._indeg[alls] == 0])
        self._push(newly)
        return newly


def drain_groups(graph) -> list[tuple[int, np.ndarray]]:
    """The core's group order with one executor and unbounded groups.

    Pops the best ready group, retires it at once, repeats — exactly
    what the inline transport does at run time, so the order is
    deterministic and computed once per plan (``Plan.level_groups()``).
    Returns ``(kernel code, tids)`` pairs: every task appears in
    exactly one group; each group holds one kernel, its members are
    mutually independent, and every predecessor of a member sits in an
    earlier group.
    """
    g, _ = unwrap_graph(graph)
    core = FrontierCore(graph, batch=max(1, len(g)))
    groups = []
    while len(core):
        code, tids = core.pop()
        tids = np.asarray(tids, dtype=np.int64)
        groups.append((code, tids))
        core.retire(tids)
    return groups
