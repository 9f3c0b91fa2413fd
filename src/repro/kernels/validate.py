"""Structural validators for tile states (S2 debugging aid).

Tiled QR's correctness hinges on structural invariants the kernels
assume but (for speed) never check.  The central one is *co-residency*:
every factored tile keeps its GEQRT Householder vectors in the strictly
lower triangle while the ``R``/TT-vector content lives on and above the
diagonal, and the stacked kernels must never touch the lower part of
either operand — that is what makes the paper's V=NODEP dependency
relaxation [12] sound.  These validators make the invariants
checkable: the test suite uses them, and a runtime can wrap its kernel
calls with :func:`checked_backend` when debugging a new elimination
scheme.
"""

from __future__ import annotations

import numpy as np

from .backend import KernelBackend, get_backend

__all__ = [
    "assert_upper_triangular",
    "assert_lower_part_unchanged",
    "checked_backend",
]


def assert_upper_triangular(a: np.ndarray, atol: float = 0.0,
                            what: str = "tile") -> None:
    """Raise ``ValueError`` if ``a`` has entries strictly below the
    diagonal larger than ``atol``."""
    resid = np.abs(np.tril(a, -1))
    if resid.size and resid.max() > atol:
        i, j = np.unravel_index(int(resid.argmax()), resid.shape)
        raise ValueError(
            f"{what} is not upper triangular: |a[{i},{j}]| = "
            f"{resid[i, j]:.3e} > {atol:g}")


def assert_lower_part_unchanged(before: np.ndarray, after: np.ndarray,
                                what: str = "tile") -> None:
    """Raise if the strictly-lower triangle changed between snapshots —
    the V co-residency guarantee of the TS/TT panel kernels."""
    if not np.array_equal(np.tril(before, -1), np.tril(after, -1)):
        raise ValueError(f"{what}: strictly-lower triangle was modified "
                         "(co-resident GEQRT vectors clobbered)")


def checked_backend(base: str | KernelBackend = "reference") -> KernelBackend:
    """Wrap a backend so its factor kernels validate their structural
    contract; the apply kernels are the backend's own.

    Checks performed:

    * ``tsqrt``: the *top* tile's strictly-lower triangle (the pivot
      row's co-resident GEQRT vectors) survives the call;
    * ``ttqrt``: the strictly-lower triangles of *both* tiles survive;
    * ``geqrt`` returns with a finite ``R`` on the diagonal.

    Noticeably slower — for debugging elimination schemes, not for
    production runs.
    """
    bk = get_backend(base)

    def geqrt(a, ib):
        out = bk.geqrt(a, ib)
        diag = np.diagonal(a)
        if not np.isfinite(diag).all():
            raise ValueError("GEQRT produced a non-finite R diagonal")
        return out

    def tsqrt(r, a, ib):
        n = r.shape[1]
        before = r[:n, :].copy()
        out = bk.tsqrt(r, a, ib)
        assert_lower_part_unchanged(before, r[:n, :], what="TSQRT top tile")
        return out

    def ttqrt(r, r_bot, ib):
        n = r.shape[1]
        before_top = r[:n, :].copy()
        before_bot = r_bot.copy()
        out = bk.ttqrt(r, r_bot, ib)
        assert_lower_part_unchanged(before_top, r[:n, :],
                                    what="TTQRT top tile")
        assert_lower_part_unchanged(before_bot, r_bot,
                                    what="TTQRT bottom tile")
        return out

    return KernelBackend(
        name=f"checked({bk.name})",
        geqrt=geqrt, unmqr=bk.unmqr,
        tsqrt=tsqrt, tsmqr=bk.tsmqr,
        ttqrt=ttqrt, ttmqr=bk.ttmqr,
    )
