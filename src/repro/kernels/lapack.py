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
Every transport factors with these kernels one tile at a time; the
runtime's grouped applies read the returned ``T`` as side-by-side
``(jb, jb)`` panel blocks, the layout LAPACK stores it in.

For real dtypes the factor kernels give ``R`` the reference kernels'
row signs: a column whose tail is already zero gets the reference
reflector instead of LAPACK's identity (:func:`_reflect_zero_tails`).
Complex dtypes keep LAPACK's phases.

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
           "lapack_ttqrt", "lapack_ttmqr", "LapackT",
           "lapack_batched_supported"]


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


def lapack_batched_supported(dtype) -> bool:
    """Whether ``dtype`` is real: the dtypes whose ``R`` these kernels
    give the reference row signs, and so the ones batched and process
    mode run the LAPACK backend on."""
    return np.dtype(dtype).type in (np.float32, np.float64)


_TAU_INDEX: dict = {}


def _reflect_zero_tails(r: np.ndarray, t: np.ndarray, ib: int,
                        geqrt: bool) -> None:
    """Give every zero-tail column the reference reflector, in place.

    ``?larfg`` leaves a column whose tail is already zero unreflected
    (``tau = 0``, the diagonal keeps its sign), where
    :func:`~repro.kernels.householder.reflector` applies
    ``H_j = I - 2 e_j e_j^T`` (``tau = 2``, ``beta = -alpha``).  Every
    later reflector is zero in row ``j``, so ``H_j`` commutes with
    them: switching to it negates row ``j`` of ``R`` from the diagonal
    on and sets column ``j`` of ``T`` to ``-2 T[:, :j] V^H e_j``.  For
    GEQRT (``r`` the factored tile) that product reads the stored
    ``V`` row ``j`` within the panel; for the stacked pair it is zero
    (earlier reflectors are ``e_i`` on top, and ``e_j``'s tail is
    zero).  The square tiles' last column, whose tail is empty, is
    such a column in every GEQRT.  Real dtypes only: complex
    ``?larfg`` also rotates ``alpha`` onto the real axis, a phase no
    sign flip undoes.
    """
    if t.dtype.kind == "c":
        return
    k = t.shape[1]
    idx = _TAU_INDEX.get((ib, k))
    if idx is None:
        cols = np.arange(k)
        idx = _TAU_INDEX[(ib, k)] = (cols % ib, cols)
    taus = t[idx].tolist()  # tau_j is T[j % ib, j]: panels side by side
    if 0.0 not in taus:
        return
    for j in range(taus.index(0.0), k):
        if taus[j] or r[j, j] == 0:
            continue  # reflected, or a zero column: the identity in both
        jj = j % ib
        if jj:
            j0 = j - jj
            t[:jj, j] = -2.0 * (t[:jj, j0:j] @ r[j, j0:j]) if geqrt else 0.0
        t[jj, j] = 2.0
        r[j, j:] *= -1.0


def lapack_geqrt(a: np.ndarray, ib: int) -> LapackT:
    """In-place blocked QR of tile ``a``; returns the ``T`` factor."""
    m, n = a.shape
    nb = max(1, min(ib, min(m, n)))
    (geqrt,) = get_lapack_funcs(("geqrt",), (a,))
    out, t, info = geqrt(nb, a)
    if info != 0:
        raise RuntimeError(f"?geqrt failed with info={info}")
    _reflect_zero_tails(out, t, nb, geqrt=True)
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
    a_out, b_out, t, info = tpqrt(l, nb, r[:n, :], bb)
    if info != 0:
        raise RuntimeError(f"?tpqrt failed with info={info}")
    _reflect_zero_tails(a_out, t, nb, geqrt=False)
    r[:n, :] = a_out
    # whole: ?tpqrt never references a TT trapezoid's strictly lower
    # triangle, so b_out carries the co-resident GEQRT vectors through
    bb[...] = b_out
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
