"""The six tile kernels, each written once over stacks of tiles (S20).

At any moment of a factorization many ready tasks of the *same*
kernel type are independent (the paper's whole point — Section 2.2's
weighted critical paths count exactly this parallelism).  PLASMA
exploits it with tuned kernels on many cores; the NumPy equivalent is
to stack the operand tiles of one group of such tasks into a
``(batch, nb, nb)`` array and execute the group as *one* sequence of
3-D operations:

* the factor kernels (GEQRT/TSQRT/TTQRT) run over any leading batch
  shape — a 2-D tile or a ``(batch, mb, nb)`` stack — with the inner
  ``ib`` panel loop in Python and every step of it (reflector
  generation, the rank-1 panel updates, the ``larft`` accumulation and
  the blocked trailing update) one NumPy call across the batch;
* the update kernels (UNMQR/TSMQR/TTMQR) become a handful of
  ``np.matmul`` calls on stacks of any leading batch shape — one NumPy
  call per step across the whole group instead of one per task, with
  V and ``T`` broadcast over the tiles that share them.

These are the only implementation of the reference kernels.
:func:`geqrt`, :func:`tsqrt` and :func:`ttqrt` *are* the public
``repro.kernels.geqrt``/``tsqrt``/``ttqrt`` (and ``geqrt_batched``
etc. are the same functions); the per-tile
:func:`~repro.kernels.geqrt.unmqr`, :func:`~repro.kernels.tsqrt.tsmqr`
and :func:`~repro.kernels.ttqrt.ttmqr` call the stacked applies on
one-tile views.  Every reduction is a per-slice BLAS call or an
elementwise product, so each slice is computed alone: a tile gives the
same bytes factored on its own, as a strided view into a larger
matrix, or as any slice of any stack, and the runtime runs every group
of every transport through these kernels.  A
:class:`~repro.kernels.householder.TFactor` with 2-D blocks (one
tile's ``T``) broadcasts over a whole stack in the applies.

Tiles are expected zero-padded to a uniform ``nb x nb`` (see
:class:`repro.tiles.pool.TilePool`): zero padding is exact — padded
columns yield ``tau = 0`` identity reflectors and padded rows carry
zero Householder entries, so the valid region of a padded computation
equals the unpadded one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .householder import TFactor, larft, panel_starts
from .stacked import ts_support, tt_support

__all__ = [
    "geqrt",
    "tsqrt",
    "ttqrt",
    "factor_stacked",
    "geqrt_batched",
    "unmqr_batched",
    "tsqrt_batched",
    "tsmqr_batched",
    "ttqrt_batched",
    "ttmqr_batched",
    "apply_stacked_batched",
]


def _ct(a: np.ndarray) -> np.ndarray:
    """Batched conjugate transpose (swap the last two axes).

    For real dtypes the conjugation is skipped, making this a free
    strided view (``np.matmul`` handles transposed operands natively);
    complex dtypes pay one conjugated copy.
    """
    return a.conj().swapaxes(-1, -2)


_MASK_CACHE: dict = {}


def _tril_mask(rows: int, cols: int, k: int) -> np.ndarray:
    """Cached ``np.tril`` boolean mask (``rows x cols``, diagonal ``k``)."""
    key = (rows, cols, k)
    m = _MASK_CACHE.get(key)
    if m is None:
        m = _MASK_CACHE[key] = np.tril(np.ones((rows, cols), dtype=bool), k)
    return m


_PANEL_CACHE: dict = {}


def _panels(k: int, ib: int) -> tuple:
    """Cached :func:`~repro.kernels.householder.panel_starts`, each
    panel with its diagonal index ``np.arange(jb)`` (hot path)."""
    key = (k, ib)
    p = _PANEL_CACHE.get(key)
    if p is None:
        p = _PANEL_CACHE[key] = tuple((j0, jb, np.arange(jb))
                                      for j0, jb in panel_starts(k, ib))
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


# ----------------------------------------------------------------------
# factor kernels
# ----------------------------------------------------------------------

def _reflect(alpha, tail: np.ndarray):
    """Householder reflectors of the vectors ``[alpha; tail]``.

    The batch-generic :func:`~repro.kernels.householder.reflector`:
    same conventions (``v[0] = 1``, real ``tau``, ``beta = -phase *
    ||x||``, the identity ``tau = 0`` for a zero vector), with
    ``tau = 1 + |alpha| / ||x||``, which equals ``2|u0|^2 / u^H u``.
    ``alpha`` is an array of the batch shape (0-d for one tile),
    ``tail`` ``(..., s)``; ``tail`` is scaled in place to the tail of
    ``v``.  Returns ``(tau, beta)``.
    """
    # |alpha| from the ufunc, which rounds alike for every shape (a
    # complex scalar's abs does not); the rest on scalars for one tile
    absa = abs(alpha)
    nonzero = np.count_nonzero(alpha) == alpha.size
    alpha = alpha[()]
    norm = np.sqrt(absa * absa
                   + np.matmul(tail[..., None, :].conj(),
                               tail[..., :, None])[..., 0, 0].real)
    if nonzero:
        phase = alpha / absa
        tau = 1 + absa / norm
        beta = -phase * norm
        u0 = alpha - beta  # = phase * (|alpha| + norm): no cancellation
    else:
        # a zero alpha takes phase 1; a zero vector the identity
        zero, nz = absa == 0, norm != 0
        phase = np.where(zero, 1, alpha / np.where(zero, 1, absa))
        tau = np.where(nz, 1 + absa / np.where(nz, norm, 1), 0)
        beta = np.where(nz, -phase * norm, 0)
        u0 = np.where(nz, alpha - beta, 1)
    tail /= u0[..., None]
    return tau, beta


def geqrt(a: np.ndarray, ib: int) -> TFactor:
    """Blocked QR factorization of a tile or a stack of tiles, in place.

    Parameters
    ----------
    a : ndarray, shape (..., mb, nb)
        The tile (2-D) or a stack of tiles; each is overwritten with
        ``V`` below the diagonal and ``R`` on and above it.
    ib : int
        Inner block size (the paper's ``ib = 32`` for ``nb = 200``).

    Returns
    -------
    TFactor
        The ``T`` blocks needed by :func:`~repro.kernels.geqrt.unmqr`,
        ``(..., jb, jb)`` per panel.
    """
    m, n = a.shape[-2:]
    rdtype = a.real.dtype
    t = TFactor(ib=ib)
    for j0, jb, d in _panels(min(m, n), ib):
        panel = a[..., j0:, j0:j0 + jb]
        taus = np.empty(a.shape[:-2] + (jb,), dtype=rdtype)
        betas = np.empty(a.shape[:-2] + (jb,), dtype=a.dtype)
        for jj in range(jb):
            x = panel[..., jj:, jj]
            tau, betas[..., jj] = _reflect(x[..., 0], x[..., 1:])
            taus[..., jj] = tau
            # the unit diagonal stands in for beta until the panel ends
            x[..., 0] = 1
            if jj + 1 < jb:
                c = panel[..., jj:, jj + 1:]
                w = np.matmul(x[..., None, :].conj(), c)
                w *= tau[..., None, None]
                c -= x[..., :, None] * w
        v = np.where(_tril_mask(m - j0, jb, 0), panel, 0)
        panel[..., d, d] = betas
        tblk = larft(v, taus)
        t.blocks.append(tblk)
        if j0 + jb < n:
            c = a[..., j0:, j0 + jb:]
            c -= np.matmul(v, np.matmul(_ct(tblk), np.matmul(_ct(v), c)))
    return t


def factor_stacked(
    r: np.ndarray,
    b: np.ndarray,
    ib: int,
    support: Callable[[int, int], int],
) -> TFactor:
    """Factor ``[R; B]`` in place, annihilating ``B`` (TSQRT and TTQRT).

    Parameters
    ----------
    r : ndarray, shape (..., >=n, n)
        Upper triangular top tile(s); receives the combined ``R``.
        Only the leading ``n x n`` block is referenced.
    b : ndarray, shape (..., mb, n)
        Bottom tile(s); overwritten with the Householder vectors ``V``
        (full for TS, upper trapezoidal for TT).  Rows below a
        column's support are neither read nor written.
    ib : int
        Inner blocking size.
    support : callable ``(j, mb) -> int``
        Number of leading bottom rows the reflector of column ``j``
        touches (:func:`~repro.kernels.stacked.ts_support`,
        :func:`~repro.kernels.stacked.tt_support`).

    Returns
    -------
    TFactor
        ``T`` blocks for the matching update kernel.  The top parts of
        the Householder vectors are the canonical vectors ``e_j``,
        orthogonal to each other, so ``T`` needs only the bottom parts.
    """
    n = r.shape[-1]
    mb = b.shape[-2]
    rdtype = b.real.dtype
    t = TFactor(ib=ib)
    for j0, jb, _ in _panels(n, ib):
        je = j0 + jb
        taus = np.empty(b.shape[:-2] + (jb,), dtype=rdtype)
        for jj in range(jb):
            j = j0 + jj
            s = support(j, mb)
            v = b[..., :s, j]
            tau, r[..., j, j] = _reflect(r[..., j, j], v)
            taus[..., jj] = tau
            if jj + 1 < jb:
                rc = r[..., j, j + 1:je]
                bc = b[..., :s, j + 1:je]
                w = rc + np.matmul(v[..., None, :].conj(), bc)[..., 0, :]
                w *= tau[..., None]
                rc -= w
                bc -= v[..., :, None] * w[..., None, :]
        # the panel's V is a view of b, masked where a column's
        # support is shorter than the panel's (TT)
        smax = support(je - 1, mb)
        v = b[..., :smax, j0:je]
        if support(j0, mb) < smax:
            v = np.where(_support_mask(support, j0, jb, smax, mb), v, 0)
        tblk = larft(v, taus)
        t.blocks.append(tblk)
        if je < n:
            rt, bt = r[..., j0:je, je:], b[..., :smax, je:]
            w = np.matmul(_ct(tblk), rt + np.matmul(_ct(v), bt))
            rt -= w
            bt -= np.matmul(v, w)
    return t


def tsqrt(r: np.ndarray, a: np.ndarray, ib: int) -> TFactor:
    """Factor ``[R; A]`` in place, zeroing the square tile ``a``.

    Parameters
    ----------
    r : ndarray, shape (..., nb, nb)
        Upper triangular tile(s) of the pivot row; receives the
        combined ``R`` factor.
    a : ndarray, shape (..., mb, nb)
        Square (full) tile(s) being eliminated; overwritten with the
        Householder vectors ``V``.
    ib : int
        Inner blocking size.

    Returns
    -------
    TFactor
        ``T`` blocks for :func:`~repro.kernels.tsqrt.tsmqr`.
    """
    return factor_stacked(r, a, ib, ts_support)


def ttqrt(r: np.ndarray, r_bot: np.ndarray, ib: int) -> TFactor:
    """Factor ``[R; R_bot]`` in place, zeroing the triangular ``r_bot``.

    Parameters
    ----------
    r : ndarray, shape (..., nb, nb)
        Upper triangular tile(s) of the pivot row; receives the
        combined ``R`` factor.
    r_bot : ndarray, shape (..., mb, nb)
        Upper triangular/trapezoidal tile(s) being eliminated; the
        upper triangle is overwritten with the Householder vectors
        ``V`` (again upper triangular); the strictly lower triangle
        (the tile's own GEQRT vectors) is neither read nor written.
    ib : int
        Inner blocking size.

    Returns
    -------
    TFactor
        ``T`` blocks for :func:`~repro.kernels.ttqrt.ttmqr`.
    """
    return factor_stacked(r, r_bot, ib, tt_support)


# ----------------------------------------------------------------------
# apply kernels
# ----------------------------------------------------------------------

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
    """Apply the orthogonal factors of GEQRT'd tiles to ``c`` in place.

    ``v`` is a ``(..., mb, nb)`` stack of factored tiles (Householder
    vectors below the diagonal), ``t`` the matching :class:`TFactor`
    (``(..., jb, jb)`` blocks).  ``c`` is a ``(..., mb, n)`` stack for
    ``side="L"`` (``op(Q) @ c``) or ``(..., n, mb)`` for ``side="R"``
    (``c @ op(Q)``); ``op(Q)`` is ``Q^H`` when ``adjoint`` (the
    factorization direction).  The leading axes of ``v``, the blocks
    and ``c`` broadcast: one V tile and 2-D blocks serve a whole
    stack, and ``(u, 1, ...)`` runs serve a ``(u, L, ...)`` stack.
    """
    m, n = v.shape[-2:]
    panels = _panels(min(m, n), t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but the tile implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb, d = panels[idx]
        # select, not multiply: keeps V's dtype (single precision stays
        # single) and zeroes exactly like np.tril
        vmat = np.where(_tril_mask(m - j0, jb, -1),
                        v[..., j0:, j0 : j0 + jb], 0)
        vmat[..., d, d] = 1.0
        tblk = t.blocks[idx]
        tb = _ct(tblk) if adjoint else tblk
        if side == "L":
            w = np.matmul(_ct(vmat), c[..., j0:, :])
            c[..., j0:, :] -= np.matmul(vmat, np.matmul(tb, w))
        else:
            w = np.matmul(c[..., j0:], vmat)
            c[..., j0:] -= np.matmul(np.matmul(w, tb), _ct(vmat))


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

    ``v`` is the ``(..., mb, n)`` stack of Householder vectors (the
    ``b`` output of :func:`factor_stacked`), ``t`` the matching
    :class:`TFactor` (``(..., jb, jb)`` blocks) and ``support`` the
    rule it was factored with.  ``side="L"`` computes ``op(Q) @ [c_top;
    c_bot]`` on row blocks (``c_top`` has at least ``n`` rows,
    ``c_bot`` has ``mb``); ``side="R"`` computes ``[c_top, c_bot] @
    op(Q)`` on column blocks (``c_top`` at least ``n`` columns wide,
    ``c_bot`` ``mb``).  The leading axes broadcast as in
    :func:`unmqr_batched`.  With ``mask=True`` (the TT kernels)
    entries of ``v`` below each column's support are zeroed before use
    — they hold the GEQRT vectors sharing the tile (the V=NODEP
    relaxation of [12]).
    """
    mb, n = v.shape[-2:]
    panels = _panels(n, t.ib)
    if len(panels) != len(t.blocks):
        raise ValueError(
            f"T factor has {len(t.blocks)} blocks but width {n} implies "
            f"{len(panels)}")
    for idx in _order(len(panels), adjoint, side):
        j0, jb, _ = panels[idx]
        smax = support(j0 + jb - 1, mb)
        vblk = v[..., :smax, j0 : j0 + jb]
        if mask:
            vblk = np.where(_support_mask(support, j0, jb, smax, mb),
                            vblk, 0.0)
        tblk = t.blocks[idx]
        tb = _ct(tblk) if adjoint else tblk
        if side == "L":
            w = c_top[..., j0 : j0 + jb, :] + np.matmul(_ct(vblk),
                                                        c_bot[..., :smax, :])
            w = np.matmul(tb, w)
            c_top[..., j0 : j0 + jb, :] -= w
            c_bot[..., :smax, :] -= np.matmul(vblk, w)
        else:
            w = c_top[..., j0 : j0 + jb] + np.matmul(c_bot[..., :smax],
                                                     vblk)
            w = np.matmul(w, tb)
            c_top[..., j0 : j0 + jb] -= w
            c_bot[..., :smax] -= np.matmul(w, _ct(vblk))


def tsmqr_batched(v, t, c_top, c_bot, adjoint: bool = True,
                  side: str = "L") -> None:
    """Batched :func:`repro.kernels.tsqrt.tsmqr`."""
    apply_stacked_batched(v, t, c_top, c_bot, ts_support,
                          adjoint=adjoint, mask=False, side=side)


def ttmqr_batched(v, t, c_top, c_bot, adjoint: bool = True,
                  side: str = "L") -> None:
    """Batched :func:`repro.kernels.ttqrt.ttmqr` (masked)."""
    apply_stacked_batched(v, t, c_top, c_bot, tt_support,
                          adjoint=adjoint, mask=True, side=side)


#: the stacked names of the factor kernels (one implementation each)
geqrt_batched, tsqrt_batched, ttqrt_batched = geqrt, tsqrt, ttqrt
