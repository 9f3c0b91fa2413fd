"""Batched (stacked 3-D) variants of the six tile kernels (S20).

At any moment of a factorization many ready tasks of the *same*
kernel type are independent (the paper's whole point — Section 2.2's
weighted critical paths count exactly this parallelism).  PLASMA
exploits it with tuned kernels on many cores; the NumPy equivalent is
to stack the operand tiles of one group of such tasks into a
``(batch, nb, nb)`` array and execute the group as *one* sequence of
3-D operations:

* the update kernels (``UNMQR``/``TSMQR``/``TTMQR``) become a handful
  of ``np.matmul`` calls on ``(batch, nb, nb)`` stacks — BLAS-3 over
  the whole group instead of one small GEMM per task;
* the factor kernels (``GEQRT``/``TSQRT``/``TTQRT``) keep their inner
  ``ib`` panel loop in Python but vectorize every step — reflector
  generation, the rank-1 panel updates, the ``larft`` accumulation and
  the blocked trailing update — across the batch axis.

The stacked applies here are the only implementation of the update
kernels: the per-tile :func:`~repro.kernels.geqrt.unmqr`,
:func:`~repro.kernels.tsqrt.tsmqr` and :func:`~repro.kernels.ttqrt.ttmqr`
call them on one-tile views, so per-tile and grouped execution agree
bitwise by construction, and the runtime runs every apply group of
every transport through them, on either backend's ``T``.  A
:class:`~repro.kernels.householder.TFactor` with 2-D blocks (one
tile's ``T``) broadcasts over the whole stack.  The stacked factor
kernels run only the inline transport's reference groups; they
mirror :mod:`repro.kernels.geqrt` and :mod:`repro.kernels.stacked`
step for step (same formulas, same conditional writes on zero-norm
columns), so each batch slice agrees with the per-tile factor kernel
to rounding; they are *not* bitwise identical because batched
reductions may associate differently.

Tiles are expected zero-padded to a uniform ``nb x nb`` (see
:class:`repro.tiles.pool.TilePool`): zero padding is exact — padded
columns yield ``tau = 0`` identity reflectors and padded rows carry
zero Householder entries, so the valid region of a padded computation
equals the unpadded one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .householder import TFactor, panel_starts
from .stacked import ts_support, tt_support

__all__ = [
    "geqrt_batched",
    "unmqr_batched",
    "tsqrt_batched",
    "tsmqr_batched",
    "ttqrt_batched",
    "ttmqr_batched",
    "factor_stacked_batched",
    "apply_stacked_batched",
]


def _batched_reflector(x: np.ndarray):
    """Householder reflectors of each row of ``x`` (shape ``(B, s)``).

    The batch-axis analogue of :func:`repro.kernels.householder.reflector`
    — same formulas, same conventions (``v[:, 0] = 1``, real ``tau``,
    ``beta = -phase * ||x||``), with zero-norm rows yielding the
    identity reflector ``tau = 0``.
    """
    norm = np.linalg.norm(x, axis=1)
    alpha = x[:, 0]
    absa = np.abs(alpha)
    phase = np.where(absa == 0.0, 1.0,
                     alpha / np.where(absa == 0.0, 1.0, absa))
    beta = -phase * norm
    u0 = alpha - beta
    nz = norm != 0.0
    safe = np.where(nz, u0, 1.0)
    v = x / safe[:, None]
    v[:, 0] = 1.0
    uhu = 2.0 * (norm * norm + absa * norm)
    tau = np.where(nz, 2.0 * np.abs(safe) ** 2 / np.where(nz, uhu, 1.0), 0.0)
    beta = np.where(nz, beta, 0.0)
    return v, tau, beta


def _ct(a: np.ndarray) -> np.ndarray:
    """Batched conjugate transpose (swap the last two axes).

    For real dtypes the conjugation is skipped, making this a free
    strided view (``np.matmul`` handles transposed operands natively);
    complex dtypes pay one conjugated copy.
    """
    if a.dtype.kind == "c":
        a = a.conj()
    return a.swapaxes(-1, -2)


_MASK_CACHE: dict = {}


def _strict_lower_mask(rows: int, cols: int) -> np.ndarray:
    """Cached strictly-lower-triangular boolean mask (``rows x cols``)."""
    key = (rows, cols)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = np.tril(np.ones((rows, cols), dtype=bool), -1)
        _MASK_CACHE[key] = m
    return m


_PANEL_CACHE: dict = {}


def _panels(k: int, ib: int) -> tuple:
    """Cached :func:`~repro.kernels.geqrt.panel_starts` (hot path)."""
    key = (k, ib)
    p = _PANEL_CACHE.get(key)
    if p is None:
        p = tuple(panel_starts(k, ib))
        _PANEL_CACHE[key] = p
    return p


_SUPPORT_MASK_CACHE: dict = {}


def _support_mask(support, j0: int, jb: int, smax: int,
                  mb: int) -> np.ndarray:
    """Cached boolean mask zeroing ``v`` rows below each column's
    support (the TT kernels' co-resident GEQRT vectors)."""
    key = (support, j0, jb, smax, mb)
    m = _SUPPORT_MASK_CACHE.get(key)
    if m is None:
        sup = np.fromiter((support(j0 + c, mb) for c in range(jb)),
                          dtype=np.int64, count=jb)
        m = np.arange(smax)[:, None] < sup
        _SUPPORT_MASK_CACHE[key] = m
    return m


def geqrt_batched(a: np.ndarray, ib: int) -> TFactor:
    """Blocked QR of a ``(batch, mb, nb)`` stack of tiles, in place.

    The batch-axis analogue of :func:`repro.kernels.geqrt.geqrt`: each
    slice ``a[i]`` is overwritten with ``V`` below the diagonal and
    ``R`` on and above it.
    """
    nbatch, m, n = a.shape
    k = min(m, n)
    t = TFactor(ib=ib)
    for j0, jb in panel_starts(k, ib):
        panel = a[:, j0:, j0 : j0 + jb]
        tblk = np.zeros((nbatch, jb, jb), dtype=a.dtype)
        vmat = np.zeros((nbatch, m - j0, jb), dtype=a.dtype)
        for jj in range(jb):
            v, tau, beta = _batched_reflector(panel[:, jj:, jj])
            panel[:, jj, jj] = beta
            panel[:, jj + 1 :, jj] = v[:, 1:]
            vmat[:, jj, jj] = 1.0
            vmat[:, jj + 1 :, jj] = v[:, 1:]
            if jj + 1 < jb:
                c = panel[:, jj:, jj + 1 :]
                w = np.matmul(v.conj()[:, None, :], c)
                c -= tau[:, None, None] * np.matmul(v[:, :, None], w)
            tblk[:, jj, jj] = tau
            if jj:
                w = np.matmul(_ct(vmat[:, :, :jj]), vmat[:, :, jj : jj + 1])
                tblk[:, :jj, jj : jj + 1] = -tau[:, None, None] * np.matmul(
                    tblk[:, :jj, :jj], w)
        t.blocks.append(tblk)
        if j0 + jb < n:
            c = a[:, j0:, j0 + jb :]
            w = np.matmul(_ct(vmat), c)
            w = np.matmul(_ct(tblk), w)
            c -= np.matmul(vmat, w)
    return t


def _order(npanels: int, adjoint: bool, side: str) -> range:
    """Panel order of an apply.  With ``Q = B_0 B_1 ...`` (one block
    reflector per panel), ``Q^H C`` and ``C Q`` apply the blocks first
    to last, ``Q C`` and ``C Q^H`` last to first."""
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if adjoint == (side == "L"):
        return range(npanels)
    return range(npanels - 1, -1, -1)


def unmqr_batched(
    v: np.ndarray,
    t: TFactor,
    c: np.ndarray,
    adjoint: bool = True,
    side: str = "L",
) -> None:
    """Apply the orthogonal factors of a GEQRT'd stack to ``c`` in place.

    ``v`` is a ``(batch, mb, nb)`` stack of factored tiles (Householder
    vectors below the diagonal), ``t`` the matching :class:`TFactor`
    (3-D blocks, or 2-D blocks shared by every slice).  ``c`` is a
    ``(batch, mb, n)`` stack for ``side="L"`` (``op(Q) @ c``) or
    ``(batch, n, mb)`` for ``side="R"`` (``c @ op(Q)``); ``op(Q)`` is
    ``Q^H`` when ``adjoint`` (the factorization direction).  A ``v``
    stack of one broadcasts over ``c``.
    """
    _, m, n = v.shape
    k = min(m, n)
    panels = _panels(k, t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but the tile implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb = panels[idx]
        # select, not multiply: keeps V's dtype (single precision stays
        # single) and zeroes exactly like np.tril
        vmat = np.where(_strict_lower_mask(m - j0, jb),
                        v[:, j0:, j0 : j0 + jb], 0)
        d = np.arange(jb)
        vmat[:, d, d] = 1.0
        tblk = t.blocks[idx]
        tb = _ct(tblk) if adjoint else tblk
        if side == "L":
            w = np.matmul(_ct(vmat), c[:, j0:, :])
            c[:, j0:, :] -= np.matmul(vmat, np.matmul(tb, w))
        else:
            w = np.matmul(c[:, :, j0:], vmat)
            c[:, :, j0:] -= np.matmul(np.matmul(w, tb), _ct(vmat))


def factor_stacked_batched(
    r: np.ndarray,
    b: np.ndarray,
    ib: int,
    support: Callable[[int, int], int],
) -> TFactor:
    """Factor a batch of stacked ``[R; B]`` pairs in place.

    Batch-axis analogue of :func:`repro.kernels.stacked.factor_stacked`
    — ``r`` is a ``(batch, nb, nb)`` stack of upper triangular pivot
    tiles, ``b`` the ``(batch, mb, nb)`` stack of tiles being zeroed,
    ``support`` the per-column bottom-row reach (full for TS,
    triangular for TT).
    """
    nbatch, _, n = r.shape
    mb = b.shape[1]
    t = TFactor(ib=ib)
    for j0, jb in panel_starts(n, ib):
        smax = support(j0 + jb - 1, mb)
        vmat = np.zeros((nbatch, smax, jb), dtype=b.dtype)
        tblk = np.zeros((nbatch, jb, jb), dtype=b.dtype)
        for jj in range(jb):
            j = j0 + jj
            s = support(j, mb)
            top = r[:, j, j].copy()
            col = b[:, :s, j]
            norm = np.sqrt(np.abs(top) ** 2
                           + np.sum(np.abs(col) ** 2, axis=1))
            absa = np.abs(top)
            phase = np.where(absa == 0.0, 1.0,
                             top / np.where(absa == 0.0, 1.0, absa))
            beta = -phase * norm
            u0 = top - beta
            nz = norm != 0.0
            safe = np.where(nz, u0, 1.0)
            vb = col / safe[:, None]
            uhu = 2.0 * (norm * norm + absa * norm)
            tau = np.where(
                nz, 2.0 * np.abs(safe) ** 2 / np.where(nz, uhu, 1.0), 0.0)
            # conditional writes: zero-norm columns are left untouched,
            # matching the reference kernel's norm == 0 early-out
            r[:, j, j] = np.where(nz, beta, top)
            b[:, :s, j] = np.where(nz[:, None], vb, col)
            vmat[:, :s, jj] = np.where(nz[:, None], vb, 0.0)
            if jj + 1 < jb:
                cols = slice(j + 1, j0 + jb)
                w = r[:, j, cols] + np.matmul(
                    vmat[:, :s, jj].conj()[:, None, :], b[:, :s, cols])[:, 0]
                r[:, j, cols] -= tau[:, None] * w
                b[:, :s, cols] -= tau[:, None, None] * np.matmul(
                    vmat[:, :s, jj : jj + 1], w[:, None, :])
            tblk[:, jj, jj] = tau
            if jj:
                w = np.matmul(_ct(vmat[:, :, :jj]), vmat[:, :, jj : jj + 1])
                tblk[:, :jj, jj : jj + 1] = -tau[:, None, None] * np.matmul(
                    tblk[:, :jj, :jj], w)
        t.blocks.append(tblk)
        if j0 + jb < n:
            cols = slice(j0 + jb, n)
            w = r[:, j0 : j0 + jb, cols] + np.matmul(
                _ct(vmat), b[:, :smax, cols])
            w = np.matmul(_ct(tblk), w)
            r[:, j0 : j0 + jb, cols] -= w
            b[:, :smax, cols] -= np.matmul(vmat, w)
    return t


def apply_stacked_batched(
    v: np.ndarray,
    t: TFactor,
    c_top: np.ndarray,
    c_bot: np.ndarray,
    support: Callable[[int, int], int],
    adjoint: bool = True,
    mask: bool = False,
    side: str = "L",
) -> None:
    """Apply a batch of stacked transformations to two tile stacks.

    ``v`` is the ``(batch, mb, n)`` stack of Householder vectors (the
    ``b`` output of :func:`factor_stacked_batched`), ``t`` the matching
    :class:`TFactor` (3-D blocks, or 2-D blocks shared by every slice)
    and ``support`` the rule it was factored with.  ``side="L"``
    computes ``op(Q) @ [c_top; c_bot]`` on row blocks (``c_top`` has at
    least ``n`` rows, ``c_bot`` has ``mb``); ``side="R"`` computes
    ``[c_top, c_bot] @ op(Q)`` on column blocks (``c_top`` at least
    ``n`` columns wide, ``c_bot`` ``mb``).  With ``mask=True`` (the TT
    kernels) entries of ``v`` below each column's support are zeroed
    before use — they hold the GEQRT vectors sharing the tile (the
    V=NODEP relaxation of [12]).
    """
    _, mb, n = v.shape
    panels = _panels(n, t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but width {n} implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb = panels[idx]
        smax = support(j0 + jb - 1, mb)
        vblk = v[:, :smax, j0 : j0 + jb]
        if mask:
            vblk = np.where(_support_mask(support, j0, jb, smax, mb),
                            vblk, 0.0)
        tblk = t.blocks[idx]
        tb = _ct(tblk) if adjoint else tblk
        if side == "L":
            w = c_top[:, j0 : j0 + jb, :] + np.matmul(_ct(vblk),
                                                      c_bot[:, :smax, :])
            w = np.matmul(tb, w)
            c_top[:, j0 : j0 + jb, :] -= w
            c_bot[:, :smax, :] -= np.matmul(vblk, w)
        else:
            w = c_top[:, :, j0 : j0 + jb] + np.matmul(c_bot[:, :, :smax],
                                                      vblk)
            w = np.matmul(w, tb)
            c_top[:, :, j0 : j0 + jb] -= w
            c_bot[:, :, :smax] -= np.matmul(w, _ct(vblk))


def tsqrt_batched(r: np.ndarray, a: np.ndarray, ib: int) -> TFactor:
    """Batched :func:`repro.kernels.tsqrt.tsqrt`: zero square stacks."""
    return factor_stacked_batched(r, a, ib, ts_support)


def tsmqr_batched(v, t, c_top, c_bot, adjoint: bool = True,
                  side: str = "L") -> None:
    """Batched :func:`repro.kernels.tsqrt.tsmqr`."""
    apply_stacked_batched(v, t, c_top, c_bot, ts_support,
                          adjoint=adjoint, mask=False, side=side)


def ttqrt_batched(r: np.ndarray, r_bot: np.ndarray,
                  ib: int) -> TFactor:
    """Batched :func:`repro.kernels.ttqrt.ttqrt`: zero triangular stacks.

    As in the per-tile kernel, the strictly lower triangle of each
    ``r_bot`` slice (holding that tile's GEQRT vectors) is neither read
    nor written.
    """
    return factor_stacked_batched(r, r_bot, ib, tt_support)


def ttmqr_batched(v, t, c_top, c_bot, adjoint: bool = True,
                  side: str = "L") -> None:
    """Batched :func:`repro.kernels.ttqrt.ttmqr` (masked)."""
    apply_stacked_batched(v, t, c_top, c_bot, tt_support,
                          adjoint=adjoint, mask=True, side=side)
