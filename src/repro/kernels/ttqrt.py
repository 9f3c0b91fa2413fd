"""``TTQRT``/``TTMQR``: zero a triangle with a triangle on top (S2).

Tile analogues of LAPACK ``?tpqrt``/``?tpmqrt`` with pentagon height
``L = n`` (fully triangular pentagon): the QR factorization of

.. math:: \\begin{pmatrix} R_{\\text{piv},k} \\\\ R_{i,k} \\end{pmatrix}

where *both* tiles are upper triangular (both rows went through
``GEQRT`` first).  The Householder vector of column ``j`` touches one
top row plus only bottom rows ``0..j``, so the vectors form an upper
triangular pattern stored in the upper triangle of tile ``(i,k)`` —
crucially leaving the strictly lower triangle (which holds the GEQRT
vectors of that tile) intact.  This disjointness is what makes the
paper's V=NODEP dependency relaxation [12] sound, and it is why
``TTQRT`` can run concurrently with ``UNMQR`` updates of the same row.
``ttqrt`` is :func:`repro.kernels.batched.ttqrt`, which also factors
stacks of tile pairs.

Costs in the paper's unit (Table 1): ``TTQRT`` = **2**, ``TTMQR`` = **6**.
"""

from __future__ import annotations

import numpy as np

from .batched import ttmqr_batched, ttqrt
from .householder import TFactor

__all__ = ["ttqrt", "ttmqr"]


def ttmqr(
    v: np.ndarray,
    t: TFactor,
    c_top: np.ndarray,
    c_bot: np.ndarray,
    adjoint: bool = True,
    side: str = "L",
) -> None:
    """Apply a TTQRT transformation to the trailing tiles of both rows.

    With ``side="L"`` updates ``[c_top; c_bot]`` in place, where
    ``c_top`` is tile ``(piv, j)`` and ``c_bot`` is tile ``(i, j)`` for
    ``j > k``; with ``side="R"`` the column-block analogue.  The
    strictly-lower part of ``v`` (GEQRT vectors sharing the tile) is
    masked out.  Runs the stacked apply
    :func:`~repro.kernels.batched.ttmqr_batched` on one-tile views.
    """
    ttmqr_batched(v[None], t, c_top[None], c_bot[None], adjoint=adjoint,
                  side=side)
