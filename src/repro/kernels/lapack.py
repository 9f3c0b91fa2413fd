"""LAPACK-backed tile kernels (S3).

Thin wrappers over LAPACK's modern tile-QR routines, exposed by
:mod:`scipy.linalg.lapack`:

* ``?geqrt``  — GEQRT (blocked QR of one tile with stored ``T``)
* ``?gemqrt`` — UNMQR (apply the GEQRT factor)
* ``?tpqrt``  — TSQRT (pentagon height ``L = 0``) and TTQRT (``L = n``)
* ``?tpmqrt`` — TSMQR / TTMQR

These are the exact routines PLASMA's kernels correspond to, so this
backend is the performance-faithful substitute for the paper's MKL
kernels.  The wrappers keep the same in-place calling convention as the
reference backend (:mod:`repro.kernels`): tiles are modified in place
and an opaque ``T`` object is returned for the matching update kernel.

Note on ``TTQRT`` sharing a tile with GEQRT vectors: LAPACK's ``tpqrt``
with ``L = n`` reads/writes only the upper triangle of ``b``, exactly
like our reference kernel, so the strictly-lower GEQRT vectors survive.
We additionally pass ``tpmqrt`` a masked copy of ``V`` because LAPACK
*reads* the full pentagon of ``V`` there.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["lapack_geqrt", "lapack_unmqr", "lapack_tsqrt", "lapack_tsmqr",
           "lapack_ttqrt", "lapack_ttmqr", "LapackT"]


class LapackT:
    """Opaque ``T`` factor of a LAPACK tile kernel (``(ib, k)`` array)."""

    __slots__ = ("t", "ib", "l")

    def __init__(self, t: np.ndarray, ib: int, l: int):
        self.t = t
        self.ib = ib
        self.l = l


def _trans(a: np.ndarray, adjoint: bool) -> bytes:
    if not adjoint:
        return b"N"
    return b"C" if np.iscomplexobj(a) else b"T"


def _fc(a: np.ndarray) -> np.ndarray:
    """Fortran-contiguous copy (LAPACK wrappers want column-major)."""
    return np.asfortranarray(a)


def lapack_geqrt(a: np.ndarray, ib: int) -> LapackT:
    """In-place blocked QR of tile ``a``; returns the ``T`` factor."""
    m, n = a.shape
    nb = max(1, min(ib, min(m, n)))
    (geqrt,) = get_lapack_funcs(("geqrt",), (a,))
    out, t, info = geqrt(nb, _fc(a))
    if info != 0:
        raise RuntimeError(f"?geqrt failed with info={info}")
    a[...] = out
    return LapackT(t, nb, l=0)


def lapack_unmqr(v: np.ndarray, t: LapackT, c: np.ndarray,
                 adjoint: bool = True, side: str = "L") -> None:
    """Apply the GEQRT factor stored in ``v``/``t`` to ``c`` in place.

    ``?gemqrt`` takes the ``k = t.t.shape[1]`` reflector columns of
    ``v`` only: a ragged tile shorter than it is wide holds fewer
    reflectors than columns.
    """
    (gemqrt,) = get_lapack_funcs(("gemqrt",), (v, c))
    out, info = gemqrt(_fc(v[:, :t.t.shape[1]]), t.t, _fc(c),
                       side=side.encode(), trans=_trans(v, adjoint))
    if info != 0:
        raise RuntimeError(f"?gemqrt failed with info={info}")
    c[...] = out


def _tpqrt(r: np.ndarray, b: np.ndarray, ib: int, triangular: bool) -> LapackT:
    n = r.shape[1]
    nb = max(1, min(ib, n))
    if triangular:
        # TT case: the meaningful triangle occupies the *top*
        # min(mb, n) rows of the bottom tile (the rest is either junk
        # below a short panel or the co-resident GEQRT vectors), while
        # LAPACK's pentagon puts the trapezoid at the bottom — so slice
        # the tile to exactly the trapezoid and set L to its height.
        l = min(b.shape[0], n)
        bb = b[:l, :]
    else:
        l = 0
        bb = b
    (tpqrt,) = get_lapack_funcs(("tpqrt",), (r, b))
    a_out, b_out, t, info = tpqrt(l, nb, _fc(r[:n, :]), _fc(bb))
    if info != 0:
        raise RuntimeError(f"?tpqrt failed with info={info}")
    r[:n, :] = a_out
    if not triangular:
        b[...] = b_out
    else:
        # Preserve the strictly-lower GEQRT vectors sharing the tile.
        iu = np.triu_indices_from(bb)
        bb[iu] = b_out[iu]
    return LapackT(t, nb, l=l)


def _tpmqrt(
    v: np.ndarray, t: LapackT, c_top: np.ndarray, c_bot: np.ndarray,
    adjoint: bool, side: str = "L",
) -> None:
    n = v.shape[1]
    if t.l != 0:
        # TT: reflectors only touch the top l rows (side=L) / left l
        # columns (side=R) of the second block.
        vv = np.triu(v[: t.l, :])  # mask the co-resident GEQRT vectors
        cb = c_bot[: t.l, :] if side == "L" else c_bot[:, : t.l]
    else:
        vv = v
        cb = c_bot
    ct = c_top[:n, :] if side == "L" else c_top[:, :n]
    (tpmqrt,) = get_lapack_funcs(("tpmqrt",), (v, c_bot))
    a_out, b_out, info = tpmqrt(
        t.l, _fc(vv), t.t, _fc(ct), _fc(cb),
        side=side.encode(), trans=_trans(v, adjoint),
    )
    if info != 0:
        raise RuntimeError(f"?tpmqrt failed with info={info}")
    ct[...] = a_out
    cb[...] = b_out


def lapack_tsqrt(r: np.ndarray, a: np.ndarray, ib: int) -> LapackT:
    """TSQRT via ``?tpqrt`` with a rectangular pentagon (``L = 0``)."""
    return _tpqrt(r, a, ib, triangular=False)


def lapack_tsmqr(
    v: np.ndarray, t: LapackT, c_top: np.ndarray, c_bot: np.ndarray,
    adjoint: bool = True, side: str = "L",
) -> None:
    """TSMQR via ``?tpmqrt`` (``L = 0``)."""
    _tpmqrt(v, t, c_top, c_bot, adjoint, side)


def lapack_ttqrt(r: np.ndarray, r_bot: np.ndarray, ib: int) -> LapackT:
    """TTQRT via ``?tpqrt`` with a triangular pentagon (``L = n``)."""
    return _tpqrt(r, r_bot, ib, triangular=True)


def lapack_ttmqr(
    v: np.ndarray, t: LapackT, c_top: np.ndarray, c_bot: np.ndarray,
    adjoint: bool = True, side: str = "L",
) -> None:
    """TTMQR via ``?tpmqrt`` (``L = n``)."""
    _tpmqrt(v, t, c_top, c_bot, adjoint, side)
