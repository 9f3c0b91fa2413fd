"""The per-tile kernel loops the stacked kernels replaced, kept as oracle.

``repro.kernels.geqrt``, ``tsqrt`` and ``ttqrt`` are the factor
kernels of :mod:`repro.kernels.batched`, written once over any leading
batch shape, and ``unmqr``, ``tsmqr`` and ``ttmqr`` are its stacked
applies called on one-tile views.  These are the per-tile loops they
replaced, one reflector (factors) or one panel's block reflector
(applies) at a time on 2-D operands.  The tests compare the stacked
applies against them byte for byte, and the factor kernels to
rounding: the factor kernels form norms and ``T`` with other
reductions than these loops.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels.geqrt import TFactor, panel_starts
from repro.kernels.householder import reflector
from repro.kernels.stacked import ts_support, tt_support


def accumulate_t_column(t: np.ndarray, v_panel: np.ndarray,
                        v_new: np.ndarray, tau: float, j: int) -> None:
    """Extend an upper triangular ``T`` factor by one reflector (larft
    step): column ``j`` of ``T`` for the new reflector ``(v_new,
    tau)``, given ``T[:j, :j]`` of the reflectors in the columns of
    ``v_panel[:, :j]``."""
    t[j, j] = tau
    if j > 0:
        # t[:j, j] = -tau * T[:j, :j] @ (V[:, :j]^H v_new)
        w = v_panel[:, :j].conj().T @ v_new
        t[:j, j] = -tau * (t[:j, :j] @ w)


def apply_block_reflector(v: np.ndarray, t: np.ndarray, c: np.ndarray,
                          adjoint: bool = True) -> None:
    """Apply ``Q = I - V T V^H`` (or its adjoint) to ``c`` in place
    (LAPACK ``larfb`` with ``side='L'``): ``Q^H C = C - V T^H (V^H C)``."""
    w = v.conj().T @ c  # (k, n)
    if adjoint:
        w = t.conj().T @ w
    else:
        w = t @ w
    c -= v @ w


def geqrt(a: np.ndarray, ib: int) -> TFactor:
    """Per-tile GEQRT: blocked Householder QR of one 2-D tile in place."""
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


def factor_stacked(r: np.ndarray, b: np.ndarray, ib: int,
                   support: Callable[[int, int], int]) -> TFactor:
    """Per-tile TSQRT/TTQRT: factor ``[R; B]`` in place, annihilating
    ``B``; ``support(j, mb)`` is the bottom-row reach of column ``j``."""
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
            accumulate_t_column(tblk, vmat, vmat[:, jj], tau, jj)
        t.blocks.append(tblk)
        # Blocked update of the trailing panels of [R; B].
        if j0 + jb < n:
            cols = slice(j0 + jb, n)
            w = r[j0 : j0 + jb, cols] + vmat.conj().T @ b[:smax, cols]
            w = tblk.conj().T @ w
            r[j0 : j0 + jb, cols] -= w
            b[:smax, cols] -= vmat @ w
    return t


def tsqrt(r, a, ib: int) -> TFactor:
    return factor_stacked(r, a, ib, ts_support)


def ttqrt(r, r_bot, ib: int) -> TFactor:
    return factor_stacked(r, r_bot, ib, tt_support)


def _order(npanels: int, adjoint: bool, side: str) -> range:
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    # With Q = B_0 B_1 ... (one block reflector per panel):
    #   Q^H C     applies blocks left-to-right (adjoint each),
    #   Q C       right-to-left,
    #   C Q       left-to-right,
    #   C Q^H     right-to-left (adjoint each).
    forward = adjoint if side == "L" else not adjoint
    return range(npanels) if forward else range(npanels - 1, -1, -1)


def unmqr(v: np.ndarray, t: TFactor, c: np.ndarray, adjoint: bool = True,
          side: str = "L") -> None:
    """Per-tile UNMQR: ``op(Q) @ c`` (``side="L"``) or ``c @ op(Q)``."""
    m, n = v.shape
    panels = panel_starts(min(m, n), t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but the tile implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb = panels[idx]
        vmat = np.tril(v[j0:, j0 : j0 + jb], -1)
        np.fill_diagonal(vmat, 1.0)
        tblk = t.blocks[idx]
        tb = tblk.conj().T if adjoint else tblk
        if side == "L":
            w = vmat.conj().T @ c[j0:, :]
            c[j0:, :] -= vmat @ (tb @ w)
        else:
            w = c[:, j0:] @ vmat
            c[:, j0:] -= (w @ tb) @ vmat.conj().T


def apply_stacked(v: np.ndarray, t: TFactor, c_top: np.ndarray,
                  c_bot: np.ndarray, support: Callable[[int, int], int],
                  adjoint: bool = True, mask: bool = False,
                  side: str = "L") -> None:
    """Per-tile TS/TT apply on row blocks (``"L"``) or column blocks."""
    mb, n = v.shape
    panels = panel_starts(n, t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but width {n} implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb = panels[idx]
        smax = support(j0 + jb - 1, mb)
        vblk = v[:smax, j0 : j0 + jb]
        if mask:
            # rows below a column's support hold another factorization's
            # vectors stored in the same tile
            vblk = vblk.copy()
            for c in range(jb):
                vblk[support(j0 + c, mb) :, c] = 0.0
        tblk = t.blocks[idx]
        tb = tblk.conj().T if adjoint else tblk
        if side == "L":
            w = c_top[j0 : j0 + jb, :] + vblk.conj().T @ c_bot[:smax, :]
            w = tb @ w
            c_top[j0 : j0 + jb, :] -= w
            c_bot[:smax, :] -= vblk @ w
        else:
            w = c_top[:, j0 : j0 + jb] + c_bot[:, :smax] @ vblk
            w = w @ tb
            c_top[:, j0 : j0 + jb] -= w
            c_bot[:, :smax] -= w @ vblk.conj().T


def tsmqr(v, t, c_top, c_bot, adjoint: bool = True, side: str = "L") -> None:
    apply_stacked(v, t, c_top, c_bot, ts_support, adjoint=adjoint,
                  mask=False, side=side)


def ttmqr(v, t, c_top, c_bot, adjoint: bool = True, side: str = "L") -> None:
    apply_stacked(v, t, c_top, c_bot, tt_support, adjoint=adjoint,
                  mask=True, side=side)


def task_tfactor(t: TFactor, b: int, k: int) -> TFactor:
    """Batch element ``b`` of a stacked factor's ``T``, sliced to the
    ``k`` valid reflectors of the unpadded tile (2-D views)."""
    return TFactor([t.blocks[j0 // t.ib][b, :jb, :jb]
                    for j0, jb in panel_starts(k, t.ib)], t.ib)
