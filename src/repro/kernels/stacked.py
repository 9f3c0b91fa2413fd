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
both factor kernels share one implementation,
:func:`repro.kernels.batched.factor_stacked`, which is also how LAPACK
organizes this family (``?tpqrt`` with pentagon height ``L = 0`` or
``L = n``).  Both update kernels share the stacked apply
:func:`repro.kernels.batched.apply_stacked_batched` the same way.
"""

from __future__ import annotations

__all__ = ["ts_support", "tt_support"]


def ts_support(j: int, mb: int) -> int:
    """Bottom-row support of column ``j`` for the TS kernels: all rows."""
    return mb


def tt_support(j: int, mb: int) -> int:
    """Bottom-row support of column ``j`` for the TT kernels: rows ``0..j``."""
    return min(j + 1, mb)
