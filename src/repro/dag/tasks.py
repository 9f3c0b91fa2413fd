"""Task and task-graph containers for the tiled QR kernel DAG (S10).

A :class:`Task` is one kernel invocation — ``GEQRT(i,k)``,
``UNMQR(i,k,j)``, ``TSQRT/TTQRT(i,piv,k)`` or ``TSMQR/TTMQR(i,piv,k,j)``
— with its Table-1 weight and its predecessor list.  A
:class:`TaskGraph` is the full DAG of a factorization, in a
topologically valid emission order (program order of the elimination
list), ready for the discrete-event simulator or a runtime executor.

The graph stores *columns*, not objects: one flat array per task field
plus the dependency lists in CSR form — exactly the arrays of
:meth:`TaskGraph.to_arrays`.  Every hot consumer (index, simulators,
analytics, executors) reads the columns; :attr:`TaskGraph.tasks`
materializes :class:`Task` objects only when something asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from ..kernels.costs import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from .index import GraphIndex

__all__ = ["Task", "TaskGraph"]

#: stable kernel <-> integer coding for the array form of a graph
KERNEL_CODES: tuple[Kernel, ...] = tuple(Kernel)

#: codes of the kernels that zero a tile (``TaskGraph.zero_task``)
_ZERO_CODES = [KERNEL_CODES.index(k) for k in (Kernel.TSQRT, Kernel.TTQRT)]

#: column name in :meth:`TaskGraph.to_arrays` -> (attribute, dtype)
_COLUMNS = {"kernel": ("codes", np.int8), "row": ("rows", np.int32),
            "piv": ("pivs", np.int32), "col": ("cols", np.int32),
            "j": ("js", np.int32), "weight": ("weights", np.float64),
            "dep_ptr": ("dep_ptr", np.int64),
            "dep_adj": ("dep_adj", np.int64)}


def _label(kernel: Kernel, row: int, piv: Optional[int], col: int,
           j: Optional[int]) -> str:
    """Paper-style 1-based rendering, e.g. ``TTMQR(3,1,1,2)``."""
    args = [row + 1] + ([] if piv is None else [piv + 1]) + [col + 1] + (
        [] if j is None else [j + 1])
    return f"{kernel}({','.join(map(str, args))})"


@dataclass(slots=True)
class Task:
    """One kernel invocation in the factorization DAG.

    Attributes
    ----------
    tid : int
        Dense task index (position in :attr:`TaskGraph.tasks`).
    kernel : Kernel
        Which of the six kernels.
    row : int
        The row the kernel factors/updates (for the stacked kernels,
        the *eliminated* row ``i``).
    piv : int or None
        Pivot row for the stacked kernels, ``None`` for GEQRT/UNMQR.
    col : int
        Panel column ``k``.
    j : int or None
        Target column for update kernels (``j > col``), ``None`` for
        panel kernels.
    weight : float
        Duration in model time units (Table 1 by default).
    deps : list of int
        Predecessor task ids.
    """

    tid: int
    kernel: Kernel
    row: int
    piv: Optional[int]
    col: int
    j: Optional[int]
    weight: float
    deps: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        return _label(self.kernel, self.row, self.piv, self.col, self.j)


class TaskGraph:
    """The kernel DAG of one tiled factorization, stored as columns.

    Tasks are in a topologically valid order (dependencies point to
    earlier indices).  Task ``tid``'s fields are ``codes[tid]`` (its
    position in :data:`KERNEL_CODES`), ``rows``, ``pivs``, ``cols``,
    ``js`` (``-1`` for "none") and ``weights``; its predecessors are
    ``dep_adj[dep_ptr[tid]:dep_ptr[tid + 1]]``.  The constructor takes
    them as an ``arrays`` dict in the form of :meth:`to_arrays` (none:
    an empty graph).  The columns are read-only and may be shared
    between graphs (:meth:`with_weights`).

    :attr:`tasks` builds the :class:`Task` objects on first access —
    O(tasks) Python objects, cached for the graph's lifetime — for
    object-level consumers (observers, DOT/networkx export, the
    simulators' reference oracles).  ``zero_task[(i, k)]`` maps each
    sub-diagonal tile to the id of the task that zeroes it (its
    TSQRT/TTQRT), which is what the paper's "time-step at which the
    tile is zeroed out" tables report.
    """

    def __init__(self, p: int, q: int, name: str = "", problem: str = "qr",
                 arrays: Optional[dict[str, np.ndarray]] = None):
        self.p = p
        self.q = q
        self.name = name
        #: problem family that produced this DAG ("qr", "cholesky", "lu");
        #: analytics and trace metadata label reports with it.
        self.problem = problem
        for key, (attr, dtype) in _COLUMNS.items():
            if arrays is None:
                col = np.zeros(1 if key == "dep_ptr" else 0, dtype=dtype)
            else:
                # a read-only view: the caller's array keeps its flags
                col = np.asarray(arrays[key], dtype=dtype).view()
            col.flags.writeable = False
            setattr(self, attr, col)
        self._tasks: Optional[list[Task]] = None
        self._zero_task: Optional[dict[tuple[int, int], int]] = None
        self._index: Optional["GraphIndex"] = None

    def __len__(self) -> int:
        return int(self.codes.size)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def tasks(self) -> list[Task]:
        """The tasks as :class:`Task` objects (built once, then cached)."""
        if self._tasks is None:
            ptr, adj = self.dep_ptr.tolist(), self.dep_adj.tolist()
            self._tasks = [
                Task(tid=tid, kernel=KERNEL_CODES[c], row=r,
                     piv=None if pv < 0 else pv, col=k,
                     j=None if j < 0 else j, weight=w,
                     deps=adj[ptr[tid]:ptr[tid + 1]])
                for tid, (c, r, pv, k, j, w) in enumerate(zip(
                    self.codes.tolist(), self.rows.tolist(),
                    self.pivs.tolist(), self.cols.tolist(),
                    self.js.tolist(), self.weights.tolist()))]
        return self._tasks

    def label(self, tid: int) -> str:
        """``str(self.tasks[tid])`` without building any Task object."""
        piv, j = int(self.pivs[tid]), int(self.js[tid])
        return _label(KERNEL_CODES[self.codes[tid]], int(self.rows[tid]),
                      None if piv < 0 else piv, int(self.cols[tid]),
                      None if j < 0 else j)

    @property
    def zero_task(self) -> dict[tuple[int, int], int]:
        """``{(i, k): tid}`` of the TSQRT/TTQRT that zeroes tile ``(i, k)``."""
        if self._zero_task is None:
            tids = np.flatnonzero(np.isin(self.codes, _ZERO_CODES))
            self._zero_task = dict(zip(
                zip(self.rows[tids].tolist(), self.cols[tids].tolist()),
                tids.tolist()))
        return self._zero_task

    def total_weight(self) -> float:
        """Sum of task weights (the Section-2.2 invariant ``6pq^2-2q^3``),
        added left to right in task order."""
        return sum(self.weights.tolist())

    def successors(self) -> list[list[int]]:
        """Adjacency list of successors (computed on demand)."""
        ptr, adj = self.dep_ptr.tolist(), self.dep_adj.tolist()
        succ: list[list[int]] = [[] for _ in range(len(self))]
        for tid in range(len(self)):
            for d in adj[ptr[tid]:ptr[tid + 1]]:
                succ[d].append(tid)
        return succ

    def index(self) -> "GraphIndex":
        """The memoized :class:`~repro.dag.index.GraphIndex` of this graph.

        Built on first use and reused by every simulation.
        """
        if self._index is None:
            from .index import build_index  # local: tasks <-> index

            self._index = build_index(self)
        return self._index

    # ------------------------------------------------------------------
    # flat array form (the plan cache's on-disk representation)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The graph's columns as a dict of flat (read-only) arrays.

        The inverse of :meth:`from_arrays`; ``piv``/``j`` use ``-1``
        for ``None``.  Dependency lists are stored CSR-style
        (``dep_ptr``/``dep_adj``).
        """
        return {key: getattr(self, attr)
                for key, (attr, _) in _COLUMNS.items()}

    @classmethod
    def from_arrays(cls, p: int, q: int, name: str,
                    arrays: dict[str, np.ndarray],
                    problem: str = "qr") -> "TaskGraph":
        """Rebuild a graph dumped by :meth:`to_arrays`.

        No dataflow inference — which is what makes loading a cached
        plan much cheaper than :func:`~repro.dag.build.build_dag`.
        """
        return cls(p, q, name, problem, arrays)

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (requires networkx)."""
        import networkx as nx

        g = nx.DiGraph(p=self.p, q=self.q, name=self.name)
        for t in self.tasks:
            g.add_node(t.tid, label=str(t), kernel=t.kernel.value, weight=t.weight)
        for t in self.tasks:
            for d in t.deps:
                g.add_edge(d, t.tid)
        return g

    def rescale(self, weights: dict[Kernel, float]) -> "TaskGraph":
        """Return a copy with per-kernel weights replaced.

        Used to feed *measured* kernel times (seconds) into the
        simulator for the experimental-performance reproduction.
        """
        lut = np.zeros(len(KERNEL_CODES))
        for c in np.unique(self.codes).tolist():
            lut[c] = float(weights[KERNEL_CODES[c]])
        return self.with_weights(lut[self.codes])

    def with_weights(self, weights: np.ndarray,
                     name: Optional[str] = None) -> "TaskGraph":
        """Copy sharing every structural column, with new per-task weights.

        The copy also shares this graph's index structure
        (:meth:`GraphIndex.with_weights
        <repro.dag.index.GraphIndex.with_weights>`): the level
        decomposition depends only on the edges.
        """
        w = np.array(weights, dtype=np.float64)
        if w.shape != self.weights.shape:
            raise ValueError(f"weights have shape {w.shape}, expected "
                             f"{self.weights.shape}")
        out = TaskGraph(self.p, self.q, self.name if name is None else name,
                        self.problem, {**self.to_arrays(), "weight": w})
        out._index = self.index().with_weights(out.weights)
        return out
