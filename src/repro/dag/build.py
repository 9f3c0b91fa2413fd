"""Dataflow DAG construction from an elimination list (S10).

Tasks are emitted in elimination-list program order and dependencies
are inferred superscalar-style from read/write sets, exactly as
PLASMA's dynamic scheduler does.  Each panel tile ``(i, k)`` is split
into two logical resources:

* ``R(i, k)`` — the factor content of the tile (read-write by GEQRT,
  TSQRT, TTQRT, and by the update kernels on off-panel tiles);
* ``V(i, k, kind)`` — the write-once Householder vectors produced by a
  factor kernel and read by its update kernels.

Splitting ``V`` from ``R`` reproduces the V=NODEP dependency relaxation
of Kurzak et al. [12] that the paper applies: without it, ``TTQRT``
(which rewrites the tile) would serialize behind the ``UNMQR`` reads of
the same tile and the paper's Table 3 time-steps would not be
attainable.  It is physically sound because GEQRT's vectors live
strictly below the tile diagonal while TTQRT's live on/above it
(see :mod:`repro.kernels.ttqrt`).

The resulting dependency set is exactly the one listed in Section 2.1
for both kernel families, plus the cross-elimination serializations
implied by shared rows.

Every builder (QR here, LU and Cholesky in :mod:`repro.problems`)
works in two steps.  It first emits a *task table* (the per-task
columns of :class:`~repro.dag.tasks.TaskGraph`) and an
:class:`AccessTable` (every resource each task reads or writes); then
:func:`resolve_hazards` turns the access table into dependency lists
with one stable sort by resource, and :func:`assemble` wraps both into
the graph.  The QR and LU builders emit their tables vectorized over
*blocks*: one factor task plus its ``q - 1 - k`` updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.costs import KERNEL_WEIGHTS, Kernel, KernelFamily
from ..schemes.elimination import EliminationList
from .tasks import KERNEL_CODES, TaskGraph

__all__ = ["AccessTable", "assemble", "block_tables", "build_dag",
           "resolve_hazards"]

#: Table-1 weight of each kernel code
_WEIGHTS = np.array([float(KERNEL_WEIGHTS[k]) for k in KERNEL_CODES])

#: (factor, update) kernel codes of the three QR block kinds
_GE_BLOCK, _TT_BLOCK, _TS_BLOCK = (
    (KERNEL_CODES.index(f), KERNEL_CODES.index(u))
    for f, u in ((Kernel.GEQRT, Kernel.UNMQR), (Kernel.TTQRT, Kernel.TTMQR),
                 (Kernel.TSQRT, Kernel.TSMQR)))


@dataclass(frozen=True)
class AccessTable:
    """Every resource access of ``n`` tasks, in emission order.

    Access ``a`` is task ``tid[a]`` reading (``write[a]`` false) or
    writing resource ``res[a]`` (any integer naming a tile, a factor's
    vectors, ...).  ``tid`` is nondecreasing and each task lists its
    reads before its writes: that order is the order of the task's
    dependency list (see :func:`resolve_hazards`).
    """

    n: int
    tid: np.ndarray
    res: np.ndarray
    write: np.ndarray

    @classmethod
    def from_lists(cls, reads, writes) -> "AccessTable":
        """Table of per-task ``reads``/``writes`` resource sequences."""
        acc = [(t, r, w) for t, (rs, ws) in enumerate(zip(reads, writes))
               for r, w in [(r, False) for r in rs] + [(r, True) for r in ws]]
        tid, res, write = zip(*acc) if acc else ((), (), ())
        return cls(len(reads), np.array(tid, dtype=np.int64),
                   np.array(res, dtype=np.int64), np.array(write, dtype=bool))


def resolve_hazards(acc: AccessTable) -> tuple[np.ndarray, np.ndarray]:
    """Dependency lists of an access table, as ``(dep_ptr, dep_adj)`` CSR.

    The superscalar RAW/WAR/WAW rule of PLASMA's dynamic scheduler,
    applied to the whole table at once.  Walking a task's accesses in
    table order, a read depends on the resource's last writer; a write
    depends on the last writer, then on every reader since that writer
    (in task order).  Repeated entries keep their first occurrence.  A
    stable sort by resource lines each resource's accesses up in task
    order, so "last writer" and "readers since" are prefix scans over
    the sorted table — no per-task loop.
    """
    n, a = acc.n, acc.tid.size
    if a == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(acc.res, kind="stable")
    res, tid, write = acc.res[order], acc.tid[order], acc.write[order]
    pos = np.arange(a, dtype=np.int64)
    # first position of each access's resource, and of its (resource,
    # task) run: a task's own accesses never feed its dependencies
    new_res = np.ones(a, dtype=bool)
    new_res[1:] = res[1:] != res[:-1]
    new_run = new_res.copy()
    new_run[1:] |= tid[1:] != tid[:-1]
    first = np.maximum.accumulate(np.where(new_res, pos, 0))
    run = np.maximum.accumulate(np.where(new_run, pos, 0))
    # last write before the run, if it is on the same resource; every
    # access between it and the run is then a read
    last_w = np.maximum.accumulate(np.where(write, pos, -1))
    lw = np.where(run > 0, last_w[run - 1], -1)
    has_w = lw >= first
    lo = np.where(has_w, lw + 1, first)
    nread = np.where(write, run - lo, 0)
    # entry counts and offsets in emission order
    count = np.empty(a, dtype=np.int64)
    count[order] = has_w + nread
    off = np.zeros(a + 1, dtype=np.int64)
    np.cumsum(count, out=off[1:])
    dst = off[order]  # each sorted access's first entry
    ent = np.empty(int(off[-1]), dtype=np.int64)
    ent[dst[has_w]] = tid[lw[has_w]]
    rd = np.flatnonzero(nread)
    if rd.size:
        span = nread[rd]
        shift = np.repeat(np.cumsum(span) - span, span)
        k = np.arange(int(span.sum()), dtype=np.int64) - shift
        ent[np.repeat(dst[rd] + has_w[rd], span) + k] = tid[
            np.repeat(lo[rd], span) + k]
    # keep the first occurrence of each (task, dependency) pair
    owner = np.repeat(acc.tid, count)
    key = owner * n + ent
    by_key = np.argsort(key, kind="stable")
    dup = np.zeros(key.size, dtype=bool)
    dup[by_key[1:]] = key[by_key[1:]] == key[by_key[:-1]]
    keep = ~dup
    dep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=dep_ptr[1:])
    return dep_ptr, ent[keep]


def assemble(p: int, q: int, name: str, problem: str,
             tasks: dict[str, np.ndarray], acc: AccessTable) -> TaskGraph:
    """The graph of a task table (``kernel`` codes, ``row``, ``piv``,
    ``col``, ``j``) and its access table, with Table-1 weights."""
    dep_ptr, dep_adj = resolve_hazards(acc)
    codes = np.asarray(tasks["kernel"], dtype=np.int8)
    return TaskGraph(p, q, name, problem,
                     {**tasks, "kernel": codes, "weight": _WEIGHTS[codes],
                      "dep_ptr": dep_ptr, "dep_adj": dep_adj})


def block_tables(q: int, fcode, ucode, row, piv, col, vres,
                 ) -> tuple[dict[str, np.ndarray], AccessTable]:
    """Task and access tables of a sequence of elimination blocks.

    Block ``b`` is a factor task ``fcode[b]`` on tile ``(row, col)``
    — stacked on pivot row ``piv`` when ``piv >= 0`` — followed by its
    updates ``ucode[b]`` of columns ``j = col + 1 .. q - 1``.  The
    factor writes the pivot tile, its own tile and the write-once
    resource ``vres[b]`` (Householder vectors, LU transforms); each
    update reads ``vres[b]`` and writes the tiles of its column.  Tile
    ``(i, j)`` is resource ``i * q + j``, so ``vres`` must lie outside
    ``[0, p * q)``.
    """
    size = q - col
    blk = np.repeat(np.arange(size.size), size)
    # target column: col for the factor, then col + 1 .. q - 1; block
    # b starts at task cumsum(size)[b] - size[b] = cumsum(size)[b] - q + col
    tcol = np.arange(blk.size) - (np.cumsum(size) - q)[blk]
    factor = tcol == col[blk]
    rows, pivs, v = row[blk], piv[blk], vres[blk]
    tasks = {"kernel": np.where(factor, fcode[blk], ucode[blk]),
             "row": rows, "piv": pivs, "col": col[blk],
             "j": np.where(factor, -1, tcol)}
    # four access slots per task, reads first: the V read (updates),
    # the pivot tile (stacked blocks), the own tile, the V write
    # (factors); slot 0 is the only read
    res = np.empty((blk.size, 4), dtype=np.int64)
    res[:, 0] = res[:, 3] = v
    res[:, 1] = pivs * q + tcol
    res[:, 2] = rows * q + tcol
    valid = np.ones((blk.size, 4), dtype=bool)
    valid[:, 0] = ~factor
    valid[:, 1] = pivs >= 0
    valid[:, 3] = factor
    at = np.flatnonzero(valid)
    return tasks, AccessTable(blk.size, at >> 2, res.ravel()[at],
                              (at & 3) > 0)


def build_dag(
    elims: EliminationList,
    family: KernelFamily | str = KernelFamily.TT,
) -> TaskGraph:
    """Build the kernel DAG of an elimination list.

    Per column ``k``: one GEQRT block per triangularized row
    (ascending), then one elimination block per ``elim(row, piv, k)``
    in list order.

    Parameters
    ----------
    elims : EliminationList
        The algorithm (validated or not; invalid lists produce broken
        DAGs, so validate first when in doubt).
    family : KernelFamily
        ``TT`` — every active row is triangularized (GEQRT) each
        column and all eliminations use TTQRT/TTMQR.
        ``TS`` — only pivot rows (and the diagonal) are triangularized;
        square rows are eliminated with TSQRT/TSMQR, and rows that are
        already triangular (domain heads being merged, e.g. in
        PlasmaTree) with TTQRT/TTMQR.

    Returns
    -------
    TaskGraph
    """
    family = KernelFamily(family)
    p, q, qq = elims.p, elims.q, min(elims.p, elims.q)
    by_col: list[list] = [[] for _ in range(qq)]
    for e in elims.eliminations:
        by_col[e.col].append(e)
    # (factor, update, row, piv, col, V kind): kind 0 = GEQRT vectors,
    # 1 = TT vectors, 2 = TS vectors
    blocks = []
    for k, col_elims in enumerate(by_col):
        # triangularized rows: the diagonal, every pivot and, in TT,
        # every eliminated row (deriving the set from the list also
        # supports the banded matrices of the optimality search)
        tri = {k, *(e.piv for e in col_elims)}
        if family is KernelFamily.TT:
            tri.update(e.row for e in col_elims)
        blocks += [_GE_BLOCK + (i, -1, k, 0) for i in sorted(tri)]
        # rows already triangular are eliminated with the TT kernels
        blocks += [(_TT_BLOCK + (e.row, e.piv, k, 1)) if e.row in tri
                   else (_TS_BLOCK + (e.row, e.piv, k, 2))
                   for e in col_elims]
    fcode, ucode, row, piv, col, kind = np.array(
        blocks, dtype=np.int64).reshape(-1, 6).T
    return assemble(p, q, f"{elims.name}[{family}]", "qr", *block_tables(
        q, fcode, ucode, row, piv, col,
        vres=p * q + (row * q + col) * 3 + kind))
