"""``TSQRT``/``TSMQR``: zero a square tile with a triangle on top (S2).

Tile analogues of LAPACK ``?tpqrt``/``?tpmqrt`` with pentagon height
``L = 0``: the QR factorization of

.. math:: \\begin{pmatrix} R_{\\text{piv},k} \\\\ A_{i,k} \\end{pmatrix}

where the top tile is already upper triangular (output of ``GEQRT``)
and the bottom tile is a full square.  Each Householder vector touches
one top row plus *all* bottom rows, so the vectors are stored as a full
tile in place of :math:`A_{i,k}`.

Costs in the paper's unit (Table 1): ``TSQRT`` = **6**, ``TSMQR`` = **12**.
"""

from __future__ import annotations

import numpy as np

from .batched import tsmqr_batched
from .householder import TFactor
from .stacked import factor_stacked, ts_support

__all__ = ["tsqrt", "tsmqr"]


def tsqrt(r: np.ndarray, a: np.ndarray, ib: int) -> TFactor:
    """Factor ``[R; A]`` in place, zeroing the square tile ``a``.

    Parameters
    ----------
    r : ndarray, shape (nb, nb)
        Upper triangular tile of the pivot row; receives the combined
        ``R`` factor.
    a : ndarray, shape (mb, nb)
        Square (full) tile being eliminated; overwritten with the
        Householder vectors ``V``.
    ib : int
        Inner blocking size.

    Returns
    -------
    TFactor
        ``T`` blocks for :func:`tsmqr`.
    """
    return factor_stacked(r, a, ib, ts_support)


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
