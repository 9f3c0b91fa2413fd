"""The per-tile update kernels the stacked applies replaced, kept as oracle.

``repro.kernels.unmqr``, ``tsmqr`` and ``ttmqr`` are now the stacked
applies of :mod:`repro.kernels.batched` called on one-tile views.
These are the per-tile loops they replaced, one panel's block
reflector at a time on 2-D operands; the tests compare the stacked
applies against them byte for byte.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.kernels.geqrt import TFactor, panel_starts
from repro.kernels.stacked import ts_support, tt_support


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
