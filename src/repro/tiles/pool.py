"""Contiguous tile pool backing the batched execution backend (S20).

:class:`~repro.tiles.layout.TiledMatrix` hands out strided *views* into
one dense array — the right shape for in-place per-tile kernels, but
the wrong one for batched 3-D BLAS: ``np.matmul`` over a
``(batch, nb, nb)`` stack needs the batch axis contiguous, and fancy
indexing over strided views would re-copy tile by tile in Python.

:class:`TilePool` keeps every tile of a tiled matrix in one C-contiguous
``(p * q, nb, nb)`` stack.  Ragged border tiles (``m % nb`` /
``n % nb``) are zero-padded to the full ``nb x nb`` slot — padding with
*zeros* is exact for every kernel in this codebase: a Householder
reflector of ``[x; 0]`` has the same ``tau``/``beta`` and zero entries
over the padding, and block updates leave zero rows/columns zero, so
the valid region of a padded computation is bit-compatible with the
unpadded one (see ``repro.kernels.batched``).

``gather`` copies the matrix into the pool, ``scatter`` writes the
valid regions back; ``take``/``put`` move ``(batch, nb, nb)`` stacks
between the pool and the batched kernels with single C-level fancy
indexing operations.
"""

from __future__ import annotations

import numpy as np

from .layout import TiledMatrix

__all__ = ["TilePool"]


class TilePool:
    """A ``(p * q, nb, nb)`` contiguous stack of a matrix's tiles.

    Parameters
    ----------
    tiled : TiledMatrix
        The tiled matrix the pool mirrors.  The pool owns a *copy* of
        the tile data (gathered at construction); call :meth:`scatter`
        to write results back into the matrix.

    Examples
    --------
    >>> import numpy as np
    >>> tm = TiledMatrix(np.arange(35, dtype=float).reshape(7, 5), nb=4)
    >>> pool = TilePool(tm)
    >>> pool.stack.shape          # 2 x 2 grid of padded 4 x 4 slots
    (4, 4, 4)
    >>> pool.stack[pool.slot(1, 1)][:3, :1].ravel()   # ragged corner tile
    array([24., 29., 34.])
    """

    def __init__(self, tiled: TiledMatrix):
        self.tiled = tiled
        self.nb = tiled.nb
        self.p, self.q = tiled.p, tiled.q
        self.ntiles = self.p * self.q
        self.stack = np.zeros((self.ntiles, self.nb, self.nb),
                              dtype=tiled.array.dtype, order="C")
        self.gather()

    # ------------------------------------------------------------------
    def slot(self, i, j):
        """Stack index of tile ``(i, j)`` (row-major; accepts arrays)."""
        return i * self.q + j

    def gather(self) -> None:
        """Copy every tile of the matrix into the pool (pad with zeros)."""
        nb, st, tm = self.nb, self.stack, self.tiled
        for i in range(self.p):
            hi = tm.row_height(i)
            for j in range(self.q):
                wj = tm.col_width(j)
                s = st[i * self.q + j]
                if hi < nb or wj < nb:
                    s[...] = 0.0
                s[:hi, :wj] = tm.tile(i, j)

    def scatter(self) -> None:
        """Write the valid region of every slot back into the matrix."""
        st, tm = self.stack, self.tiled
        for i in range(self.p):
            hi = tm.row_height(i)
            for j in range(self.q):
                wj = tm.col_width(j)
                tm.tile(i, j)[...] = st[i * self.q + j][:hi, :wj]

    # ------------------------------------------------------------------
    def take(self, slots: np.ndarray) -> np.ndarray:
        """A fresh ``(len(slots), nb, nb)`` stack copied from the pool.

        One C-level fancy-indexing gather; the result is writable and
        independent of the pool until :meth:`put` stores it back.
        """
        return self.stack[np.asarray(slots, dtype=np.intp)]

    def put(self, slots: np.ndarray, batch: np.ndarray) -> None:
        """Store a batch back into the pool slots (inverse of :meth:`take`).

        ``slots`` must be duplicate-free — duplicated slots would make
        the write order-dependent.  The runtime's groups guarantee
        this: two mutually independent tasks never write the same
        tile.
        """
        self.stack[np.asarray(slots, dtype=np.intp)] = batch

    def __repr__(self) -> str:
        return (f"TilePool(ntiles={self.ntiles}, nb={self.nb}, "
                f"grid={self.p} x {self.q}, dtype={self.stack.dtype})")
