"""``GEQRT``/``UNMQR``: factor a tile into a triangle, apply its Q (S2).

``geqrt`` is the tile-kernel analogue of LAPACK ``?geqrt``: a blocked
Householder QR of a single ``mb x nb`` tile with inner block size
``ib``.  On exit the tile holds ``R`` in its upper triangle and the
Householder vectors ``V`` (unit lower trapezoidal) below the diagonal;
the compact-WY ``T`` factors are returned separately, one ``jb x jb``
upper triangular block per panel of ``ib`` columns.  ``unmqr`` applies
that transformation to a tile of the same row (LAPACK ``?unmqr``).

Costs in the paper's unit (``nb^3/3`` flops, Table 1): ``GEQRT`` =
**4**, ``UNMQR`` = **6**.
"""

from __future__ import annotations

import numpy as np

from .batched import unmqr_batched
from .householder import (TFactor, accumulate_t_column,
                          apply_block_reflector, panel_starts, reflector)

__all__ = ["TFactor", "geqr2", "geqrt", "panel_starts", "unmqr"]


def geqr2(a: np.ndarray, taus: np.ndarray | None = None) -> np.ndarray:
    """Unblocked Householder QR of ``a`` in place (LAPACK ``?geqr2``).

    On exit ``a`` holds ``R`` in its upper triangle and the
    (unit-diagonal-implicit) Householder vectors below it.  Returns the
    array of ``tau`` scalars (length ``min(m, n)``).
    """
    m, n = a.shape
    k = min(m, n)
    if taus is None:
        taus = np.zeros(k)
    for j in range(k):
        v, tau, beta = reflector(a[j:, j])
        taus[j] = tau
        a[j, j] = beta
        a[j + 1 :, j] = v[1:]
        if tau != 0.0 and j + 1 < n:
            # Apply H (Hermitian) to the trailing columns.
            c = a[j:, j + 1 :]
            w = v.conj() @ c
            c -= tau * np.outer(v, w)
    return taus


def geqrt(a: np.ndarray, ib: int) -> TFactor:
    """Blocked QR factorization of one tile, in place.

    Parameters
    ----------
    a : ndarray, shape (mb, nb)
        The tile; overwritten with ``V`` below the diagonal and ``R``
        on and above it.
    ib : int
        Inner block size (the paper's ``ib = 32`` for ``nb = 200``).

    Returns
    -------
    TFactor
        The ``T`` blocks needed by :func:`unmqr`.
    """
    m, n = a.shape
    k = min(m, n)
    t = TFactor(ib=ib)
    for j0, jb in panel_starts(k, ib):
        panel = a[j0:, j0 : j0 + jb]
        tblk = np.zeros((jb, jb), dtype=a.dtype)
        # vmat mirrors the panel's Householder vectors with the unit
        # diagonal made explicit, so larft-style accumulation can use
        # plain matrix products over a common row space.
        vmat = np.zeros((m - j0, jb), dtype=a.dtype)
        for jj in range(jb):
            v, tau, beta = reflector(panel[jj:, jj])
            panel[jj, jj] = beta
            panel[jj + 1 :, jj] = v[1:]
            vmat[jj, jj] = 1.0
            vmat[jj + 1 :, jj] = v[1:]
            if tau != 0.0 and jj + 1 < jb:
                c = panel[jj:, jj + 1 :]
                w = v.conj() @ c
                c -= tau * np.outer(v, w)
            accumulate_t_column(tblk, vmat, vmat[:, jj], tau, jj)
        t.blocks.append(tblk)
        # Apply the block reflector to the trailing columns of the tile.
        if j0 + jb < n:
            apply_block_reflector(vmat, tblk, a[j0:, j0 + jb :])
    return t


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
