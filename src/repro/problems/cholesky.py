"""Tiled Cholesky factorization DAG (Bouwmeester thesis, arxiv 1303.3182).

Right-looking tiled Cholesky of a ``t x t`` tile grid, four kernels in
the same ``nb^3/3`` time unit as the QR Table 1:

=========  ==========================================  ======
Kernel     Operation                                   Weight
=========  ==========================================  ======
``POTRF``  Cholesky of diagonal tile ``A[k][k]``          1
``TRSM``   ``A[i][k] <- A[i][k] L[k][k]^-T``              3
``SYRK``   ``A[i][i] <- A[i][i] - A[i][k] A[i][k]^T``     3
``GEMM``   ``A[i][j] <- A[i][j] - A[i][k] A[j][k]^T``     6
=========  ==========================================  ======

Total weight over the grid is exactly ``t^3`` — the classical
``n^3/3`` flops.  Dependencies are inferred superscalar-style from
per-tile read/write sets by the same
:func:`~repro.dag.build.resolve_hazards` the QR builder uses; because
each tile ``A[i][k]`` becomes read-only once its own TRSM has run, the
plain one-resource-per-tile model already yields the exact PLASMA DAG
(no V=NODEP-style relaxation is needed).

The critical path in these units is ``9t - 10`` for ``t >= 2`` (and
``1`` for ``t = 1``): the chain POTRF(0) → TRSM(1,0) → GEMM(2,1,0) →
TRSM/GEMM ... advances one column per ``3 + 6 = 9`` units.  The golden
tests pin this table and the simulator reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dag.build import AccessTable, assemble
from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.costs import CHOLESKY_KERNELS, Kernel
from ..schemes.elimination import EliminationList
from .base import Problem

__all__ = ["CholeskyProblem", "build_cholesky_dag", "cholesky_critical_path"]


def cholesky_critical_path(t: int) -> int:
    """Closed-form critical path of tiled Cholesky on ``t x t`` tiles.

    ``9t - 10`` time units for ``t >= 2``; a single POTRF (1) for
    ``t = 1``.  This is the weighted-DAG analogue of the ALAP analysis
    in Quach & Langou (arxiv 1510.05107).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    return 1 if t == 1 else 9 * t - 10


def build_cholesky_dag(t: int) -> TaskGraph:
    """Build the tiled-Cholesky kernel DAG for a ``t x t`` tile grid.

    Tasks are emitted in right-looking program order (factor panel
    ``k``, then update the trailing submatrix) and dependencies are
    inferred from per-tile read/write sets, one resource per
    lower-triangular tile.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")

    def r(i, j):
        return i * t + j

    # (kernel, row, col, j, reads, writes) in program order
    tasks = []
    for k in range(t):
        tasks.append((Kernel.POTRF, k, k, -1, (), (r(k, k),)))
        tasks += [(Kernel.TRSM, i, k, -1, (r(k, k),), (r(i, k),))
                  for i in range(k + 1, t)]
        for i in range(k + 1, t):
            tasks.append((Kernel.SYRK, i, k, -1, (r(i, k),), (r(i, i),)))
            tasks += [(Kernel.GEMM, i, k, j, (r(i, k), r(j, k)), (r(i, j),))
                      for j in range(k + 1, i)]
    kernel, row, col, j, reads, writes = zip(*tasks)
    return assemble(
        t, t, f"cholesky(t={t})", "cholesky",
        {"kernel": [KERNEL_CODES.index(x) for x in kernel], "row": row,
         "piv": [-1] * len(tasks), "col": col, "j": j},
        AccessTable.from_lists(reads, writes))


@dataclass(frozen=True, init=False)
class CholeskyProblem(Problem):
    """``cholesky(t)`` — tiled Cholesky on a ``t x t`` tile grid."""

    name = "cholesky"
    kernels = CHOLESKY_KERNELS

    t: int

    def __init__(self, t: int):
        t = int(t)
        if t < 1:
            raise ValueError(f"cholesky needs t >= 1, got t={t}")
        object.__setattr__(self, "t", t)

    @property
    def p(self) -> int:
        return self.t

    @property
    def q(self) -> int:
        return self.t

    def params(self) -> dict:
        return {"t": self.t}

    def build(self) -> tuple[Optional[EliminationList], TaskGraph]:
        return None, build_cholesky_dag(self.t)
