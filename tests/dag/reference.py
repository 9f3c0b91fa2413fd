"""The per-task DAG builders, kept as the oracle of the vectorized ones.

:class:`DataflowTracker` walks tasks one at a time through
superscalar read/write tracking, and the three ``reference_*``
builders emit the QR, LU and Cholesky tasks in program order through
it — the construction :mod:`repro.dag.build` replaced with one sort
over the whole access table.  Each returns the graph's array form
(:meth:`repro.dag.tasks.TaskGraph.to_arrays`), so a test compares the
two builders array by array, dependency order included.
"""

from __future__ import annotations

import numpy as np

from repro.dag.tasks import KERNEL_CODES
from repro.kernels.costs import KERNEL_WEIGHTS, Kernel, KernelFamily


class DataflowTracker:
    """Superscalar dependency tracking over named resources.

    ``read`` returns the dependency on the last writer; ``write``
    additionally picks up WAR dependencies on all readers since that
    writer, then installs the new writer.
    """

    def __init__(self) -> None:
        self._writer: dict[object, int] = {}
        self._readers: dict[object, list[int]] = {}

    def read(self, res: object) -> list[int]:
        deps = []
        w = self._writer.get(res)
        if w is not None:
            deps.append(w)
        return deps

    def note_read(self, res: object, tid: int) -> None:
        self._readers.setdefault(res, []).append(tid)

    def write(self, res: object) -> list[int]:
        deps = []
        w = self._writer.get(res)
        if w is not None:
            deps.append(w)
        deps.extend(self._readers.get(res, ()))
        return deps

    def note_write(self, res: object, tid: int) -> None:
        self._writer[res] = tid
        self._readers[res] = []


class _Emitter:
    """Program-order task emission through a :class:`DataflowTracker`."""

    def __init__(self) -> None:
        self.flow = DataflowTracker()
        self.rows: list[tuple] = []
        self.deps: list[list[int]] = []

    def emit(self, kernel, row, piv, col, j, reads=(), writes=()):
        tid = len(self.rows)
        deps: list[int] = []
        for res in reads:
            deps.extend(self.flow.read(res))
        for res in writes:
            deps.extend(self.flow.write(res))
        uniq: list[int] = []
        for d in deps:
            if d not in uniq:
                uniq.append(d)
        self.rows.append((kernel, row, piv, col, j))
        self.deps.append(uniq)
        for res in reads:
            self.flow.note_read(res, tid)
        for res in writes:
            self.flow.note_write(res, tid)

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.rows)
        code = {k: c for c, k in enumerate(KERNEL_CODES)}
        kernel, row, piv, col, j = (list(c) for c in zip(*self.rows)) \
            if n else ([], [], [], [], [])
        dep_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(d) for d in self.deps], out=dep_ptr[1:])
        return {
            "kernel": np.array([code[k] for k in kernel], dtype=np.int8),
            "row": np.array(row, dtype=np.int32),
            "piv": np.array([-1 if x is None else x for x in piv],
                            dtype=np.int32),
            "col": np.array(col, dtype=np.int32),
            "j": np.array([-1 if x is None else x for x in j],
                          dtype=np.int32),
            "weight": np.array([float(KERNEL_WEIGHTS[k]) for k in kernel],
                               dtype=np.float64),
            "dep_ptr": dep_ptr,
            "dep_adj": np.array([d for ds in self.deps for d in ds],
                                dtype=np.int64),
        }


def reference_qr(elims, family="TT") -> dict[str, np.ndarray]:
    """The QR kernel DAG of ``elims``, one task at a time."""
    family = KernelFamily(family)
    p, q, qq = elims.p, elims.q, min(elims.p, elims.q)
    out = _Emitter()
    by_col: list[list] = [[] for _ in range(qq)]
    for e in elims.eliminations:
        by_col[e.col].append(e)
    nr = p * q

    def _r(i, k):
        return i * q + k

    def _v(i, k, kind):
        # kind: 0 = GEQRT vectors, 1 = TT vectors, 2 = TS vectors
        return nr + (i * q + k) * 3 + kind

    for k in range(qq):
        if family is KernelFamily.TT:
            tri = {k}
            for e in by_col[k]:
                tri.add(e.row)
                tri.add(e.piv)
        else:
            tri = {e.piv for e in by_col[k]}
            tri.add(k)
        tri_rows = sorted(tri)
        for i in tri_rows:
            out.emit(Kernel.GEQRT, i, None, k, None,
                     writes=(_r(i, k), _v(i, k, 0)))
            for j in range(k + 1, q):
                out.emit(Kernel.UNMQR, i, None, k, j,
                         reads=(_v(i, k, 0),), writes=(_r(i, j),))
        for e in by_col[k]:
            if e.row in tri:
                zero, upd, vkind = Kernel.TTQRT, Kernel.TTMQR, 1
            else:
                zero, upd, vkind = Kernel.TSQRT, Kernel.TSMQR, 2
            vres = _v(e.row, k, vkind)
            out.emit(zero, e.row, e.piv, k, None,
                     writes=(_r(e.piv, k), _r(e.row, k), vres))
            for j in range(k + 1, q):
                out.emit(upd, e.row, e.piv, k, j, reads=(vres,),
                         writes=(_r(e.piv, j), _r(e.row, j)))
    return out.arrays()


def reference_lu(p: int, q: int) -> dict[str, np.ndarray]:
    """The incremental-pivoting tiled-LU DAG, one task at a time."""
    out = _Emitter()
    nr = p * q

    def _r(i, j):
        return i * q + j

    def _l(k):
        return nr + k

    def _f(i, k):
        return nr + q + i * q + k

    for k in range(min(p, q)):
        out.emit(Kernel.GETRF, k, None, k, None, writes=(_r(k, k), _l(k)))
        for j in range(k + 1, q):
            out.emit(Kernel.GESSM, k, None, k, j, reads=(_l(k),),
                     writes=(_r(k, j),))
        for i in range(k + 1, p):
            out.emit(Kernel.TSTRF, i, k, k, None,
                     writes=(_r(k, k), _r(i, k), _f(i, k)))
            for j in range(k + 1, q):
                out.emit(Kernel.SSSSM, i, k, k, j, reads=(_f(i, k),),
                         writes=(_r(k, j), _r(i, j)))
    return out.arrays()


def reference_cholesky(t: int) -> dict[str, np.ndarray]:
    """The right-looking tiled-Cholesky DAG, one task at a time."""
    out = _Emitter()

    def _r(i, j):
        return i * t + j

    for k in range(t):
        out.emit(Kernel.POTRF, k, None, k, None, writes=(_r(k, k),))
        for i in range(k + 1, t):
            out.emit(Kernel.TRSM, i, None, k, None, reads=(_r(k, k),),
                     writes=(_r(i, k),))
        for i in range(k + 1, t):
            out.emit(Kernel.SYRK, i, None, k, None, reads=(_r(i, k),),
                     writes=(_r(i, i),))
            for j in range(k + 1, i):
                out.emit(Kernel.GEMM, i, None, k, j,
                         reads=(_r(i, k), _r(j, k)), writes=(_r(i, j),))
    return out.arrays()
