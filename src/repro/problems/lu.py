"""Tiled LU with incremental pivoting (PLASMA-style), as a Problem.

Four kernels in the ``nb^3/3`` time unit of the QR Table 1:

=========  ==============================================  ======
Kernel     Operation                                       Weight
=========  ==============================================  ======
``GETRF``  partial-pivoting LU of diagonal tile               2
``GESSM``  apply ``L``/pivots of GETRF to row tile            3
``TSTRF``  LU of the stacked ``[U[k][k]; A[i][k]]`` pair      3
``SSSSM``  apply TSTRF transforms to ``[A[k][j]; A[i][j]]``   6
=========  ==============================================  ======

Total weight over a square ``t x t`` grid is exactly ``2 t^3`` — the
classical ``2n^3/3`` flops.  The dependency model mirrors the QR
builder's V=NODEP relaxation (Kurzak et al.): GETRF's ``L`` factor and
each TSTRF's transform block are *write-once* resources separate from
the tile content, so the GESSM row updates proceed concurrently with
the sequential TSTRF chain down the panel — exactly PLASMA's
``dgetrf_incpiv`` DAG.

Rectangular grids (``p >= q``) are supported; the panel loop runs over
``min(p, q)`` diagonal tiles like the QR builder's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..dag.build import assemble, block_tables
from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.costs import LU_KERNELS, Kernel
from ..schemes.elimination import EliminationList
from .base import Problem

__all__ = ["LUProblem", "build_lu_dag"]

_GETRF, _GESSM, _TSTRF, _SSSSM = (KERNEL_CODES.index(k) for k in (
    Kernel.GETRF, Kernel.GESSM, Kernel.TSTRF, Kernel.SSSSM))


def build_lu_dag(p: int, q: int) -> TaskGraph:
    """Build the incremental-pivoting tiled-LU DAG for ``p x q`` tiles.

    Tasks are emitted in right-looking program order, as elimination
    blocks (:func:`~repro.dag.build.block_tables`): per panel ``k``,
    GETRF on the diagonal with its GESSM row broadcast, then for each
    sub-panel row ``i`` the TSTRF elimination with its SSSSM trailing
    updates.  GETRF's ``L`` factor ``L(k)`` and each TSTRF's transform
    block ``F(i, k)`` are the blocks' write-once resources.
    """
    if not (p >= q >= 1):
        raise ValueError(f"need p >= q >= 1, got p={p}, q={q}")
    col = np.concatenate([np.full(p - k, k) for k in range(q)])
    row = np.concatenate([np.arange(k, p) for k in range(q)])
    head = row == col
    return assemble(p, q, f"lu(p={p},q={q})", "lu", *block_tables(
        q, fcode=np.where(head, _GETRF, _TSTRF),
        ucode=np.where(head, _GESSM, _SSSSM), row=row,
        piv=np.where(head, -1, col), col=col,
        vres=p * q + np.where(head, col, q + row * q + col)))


@dataclass(frozen=True, init=False)
class LUProblem(Problem):
    """``lu(p, q, pivot="incremental")`` — tiled LU on ``p x q`` tiles.

    Only incremental (tile-local) pivoting is implemented; the
    ``pivot`` parameter names the strategy so future variants (e.g.
    partial-pivoting panels) extend the spec rather than the grammar.
    """

    name = "lu"
    kernels = LU_KERNELS

    grid_p: int
    grid_q: int
    pivot: str = "incremental"

    def __init__(self, p: int, q: Optional[int] = None,
                 pivot: str = "incremental"):
        p = int(p)
        q = p if q is None else int(q)
        if not (p >= q >= 1):
            raise ValueError(f"lu needs p >= q >= 1, got p={p}, q={q}")
        if pivot != "incremental":
            raise ValueError(
                f"unknown pivot strategy {pivot!r}; only 'incremental' "
                "is implemented")
        object.__setattr__(self, "grid_p", p)
        object.__setattr__(self, "grid_q", q)
        object.__setattr__(self, "pivot", pivot)

    @property
    def p(self) -> int:
        return self.grid_p

    @property
    def q(self) -> int:
        return self.grid_q

    def params(self) -> dict:
        return {"p": self.grid_p, "q": self.grid_q, "pivot": self.pivot}

    def build(self) -> tuple[Optional[EliminationList], TaskGraph]:
        return None, build_lu_dag(self.grid_p, self.grid_q)
