"""Shared machinery for the stacked (two-tile) factorization kernels.

``TSQRT`` (triangle on top of *square*) and ``TTQRT`` (triangle on top
of *triangle*) both factor a stacked matrix

.. math:: \\begin{pmatrix} R \\\\ B \\end{pmatrix}

where ``R`` is the upper triangular result of a previous factorization
and ``B`` is the tile being zeroed out.  The Householder vector of
column ``j`` touches exactly one row of the top tile (row ``j``, where
the implicit leading 1 lives) plus a *support* of rows of the bottom
tile: all of them for TS, only rows ``0..j`` for TT (because ``B`` is
itself upper triangular there).  Factoring out the support rule lets
both factor kernels share one implementation, which is also how LAPACK
organizes this family (``?tpqrt`` with pentagon height ``L = 0`` or
``L = n``).  Both update kernels share the stacked apply
:func:`repro.kernels.batched.apply_stacked_batched` the same way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .householder import TFactor, panel_starts

__all__ = ["factor_stacked", "ts_support", "tt_support"]


def ts_support(j: int, mb: int) -> int:
    """Bottom-row support of column ``j`` for the TS kernels: all rows."""
    return mb


def tt_support(j: int, mb: int) -> int:
    """Bottom-row support of column ``j`` for the TT kernels: rows ``0..j``."""
    return min(j + 1, mb)


def factor_stacked(
    r: np.ndarray,
    b: np.ndarray,
    ib: int,
    support: Callable[[int, int], int],
) -> TFactor:
    """Factor ``[R; B]`` in place, annihilating ``B``.

    Parameters
    ----------
    r : ndarray, shape (>=n, n)
        Upper triangular top tile; receives the combined ``R``.  Only
        its leading ``n x n`` block is referenced.
    b : ndarray, shape (mb, n)
        Bottom tile; overwritten with the Householder vectors ``V``
        (full for TS, upper trapezoidal for TT).
    ib : int
        Inner blocking size.
    support : callable ``(j, mb) -> int``
        Number of leading bottom rows the reflector of column ``j``
        touches.

    Returns
    -------
    TFactor
        ``T`` blocks for the matching update kernel.
    """
    n = r.shape[1]
    mb = b.shape[0]
    t = TFactor(ib=ib)
    for j0, jb in panel_starts(n, ib):
        smax = support(j0 + jb - 1, mb)
        # Explicit Householder vectors of this panel (bottom parts only;
        # the top parts are the canonical basis vectors e_{j0+c} and
        # never overlap, so T accumulation needs only the bottom parts).
        vmat = np.zeros((smax, jb), dtype=b.dtype)
        tblk = np.zeros((jb, jb), dtype=b.dtype)
        for jj in range(jb):
            j = j0 + jj
            s = support(j, mb)
            # Build the reflector for [r[j, j]; b[:s, j]].
            x = np.empty(s + 1, dtype=b.dtype)
            x[0] = r[j, j]
            x[1:] = b[:s, j]
            norm_x = np.linalg.norm(x)
            if norm_x == 0.0:
                tau = 0.0
            else:
                alpha = x[0]
                phase = alpha / abs(alpha) if alpha != 0 else 1.0
                beta = -phase * norm_x
                u0 = alpha - beta
                vb = x[1:] / u0
                uhu = 2.0 * (norm_x * norm_x + abs(alpha) * norm_x)
                tau = float(2.0 * abs(u0) ** 2 / uhu)
                r[j, j] = beta
                b[:s, j] = vb
                vmat[:s, jj] = vb
            # Unblocked update of the remaining columns of this panel.
            if tau != 0.0 and jj + 1 < jb:
                cols = slice(j + 1, j0 + jb)
                w = r[j, cols] + vmat[:s, jj].conj() @ b[:s, cols]
                r[j, cols] -= tau * w
                b[:s, cols] -= tau * np.outer(vmat[:s, jj], w)
            # larft step: T[:jj, jj] = -tau T (V^H v); top parts are
            # orthogonal canonical vectors, so only bottoms contribute.
            tblk[jj, jj] = tau
            if jj > 0:
                w = vmat[:, :jj].conj().T @ vmat[:, jj]
                tblk[:jj, jj] = -tau * (tblk[:jj, :jj] @ w)
        t.blocks.append(tblk)
        # Blocked update of the trailing panels of [R; B].
        if j0 + jb < n:
            cols = slice(j0 + jb, n)
            w = r[j0 : j0 + jb, cols] + vmat.conj().T @ b[:smax, cols]
            w = tblk.conj().T @ w
            r[j0 : j0 + jb, cols] -= w
            b[:smax, cols] -= vmat @ w
    return t
