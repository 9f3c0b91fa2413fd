"""``GEQRT``/``UNMQR``: factor a tile into a triangle, apply its Q (S2).

``geqrt`` is the tile-kernel analogue of LAPACK ``?geqrt``: a blocked
Householder QR of a single ``mb x nb`` tile with inner block size
``ib``.  On exit the tile holds ``R`` in its upper triangle and the
Householder vectors ``V`` (unit lower trapezoidal) below the diagonal;
the compact-WY ``T`` factors are returned separately, one ``jb x jb``
upper triangular block per panel of ``ib`` columns.  ``unmqr`` applies
that transformation to a tile of the same row (LAPACK ``?unmqr``).
Both are the stacked kernels of :mod:`repro.kernels.batched`:
``geqrt`` is :func:`~repro.kernels.batched.geqrt` itself, which also
factors a ``(batch, mb, nb)`` stack, and ``unmqr`` calls the stacked
apply on one-tile views.

Costs in the paper's unit (``nb^3/3`` flops, Table 1): ``GEQRT`` =
**4**, ``UNMQR`` = **6**.
"""

from __future__ import annotations

import numpy as np

from .batched import geqrt, unmqr_batched
from .householder import TFactor, panel_starts

__all__ = ["TFactor", "geqrt", "panel_starts", "unmqr"]


def unmqr(
    v: np.ndarray,
    t: TFactor,
    c: np.ndarray,
    adjoint: bool = True,
    side: str = "L",
) -> None:
    """Apply the orthogonal factor of a GEQRT'd tile to ``c`` in place.

    The stacked apply :func:`~repro.kernels.batched.unmqr_batched` on
    one-tile views, so per-tile and grouped execution run the same
    arithmetic.

    Parameters
    ----------
    v : ndarray, shape (mb, nb)
        The factored tile: Householder vectors below the diagonal
        (the upper triangle — ``R`` — is ignored).
    t : TFactor
        The ``T`` blocks produced by ``geqrt``.
    c : ndarray
        Tile to update in place: ``(mb, n)`` for ``side="L"``
        (compute ``op(Q) @ c``), ``(n, mb)`` for ``side="R"``
        (compute ``c @ op(Q)``).
    adjoint : bool
        Apply ``Q^H`` (True, factorization direction) or ``Q``.
    side : {"L", "R"}
        Multiply from the left (default) or the right.
    """
    unmqr_batched(v[None], t, c[None], adjoint=adjoint, side=side)
