"""``TSQRT``/``TSMQR``: zero a square tile with a triangle on top (S2).

Tile analogues of LAPACK ``?tpqrt``/``?tpmqrt`` with pentagon height
``L = 0``: the QR factorization of

.. math:: \\begin{pmatrix} R_{\\text{piv},k} \\\\ A_{i,k} \\end{pmatrix}

where the top tile is already upper triangular (output of ``GEQRT``)
and the bottom tile is a full square.  Each Householder vector touches
one top row plus *all* bottom rows, so the vectors are stored as a full
tile in place of :math:`A_{i,k}`.  ``tsqrt`` is
:func:`repro.kernels.batched.tsqrt`, which also factors stacks of
tile pairs.

Costs in the paper's unit (Table 1): ``TSQRT`` = **6**, ``TSMQR`` = **12**.
"""

from __future__ import annotations

import numpy as np

from .batched import tsmqr_batched, tsqrt
from .householder import TFactor

__all__ = ["tsqrt", "tsmqr"]


def tsmqr(
    v: np.ndarray,
    t: TFactor,
    c_top: np.ndarray,
    c_bot: np.ndarray,
    adjoint: bool = True,
    side: str = "L",
) -> None:
    """Apply a TSQRT transformation to the trailing tiles of both rows.

    With ``side="L"`` updates ``[c_top; c_bot]`` in place, where
    ``c_top`` is tile ``(piv, j)`` and ``c_bot`` is tile ``(i, j)`` for
    ``j > k``; with ``side="R"`` updates ``[c_top, c_bot] @ op(Q)``
    (column blocks).  Runs the stacked apply
    :func:`~repro.kernels.batched.tsmqr_batched` on one-tile views.
    """
    tsmqr_batched(v[None], t, c_top[None], c_bot[None], adjoint=adjoint,
                  side=side)
