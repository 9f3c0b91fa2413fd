"""The group executor: kernel groups on a slot-addressed tile stack (S24).

Every parallel transport runs the groups the frontier core
(:mod:`repro.runtime.groups`) hands out through one
:class:`GroupExecutor`.  It works on the ``(p * q, nb, nb)`` stack of
a :class:`~repro.tiles.pool.TilePool` — private for the inline and
thread transports, a :class:`~repro.tiles.shared_pool.SharedTilePool`
mapped by every process worker — and on a *T store* holding one slot
per factor task, so apply kernels find their source ``T`` by slot.
Ragged border tiles are zero-padded to full slots, which is exact for
every kernel (see :mod:`repro.tiles.pool`).

Execution splits by kernel class:

* **factor kernels** (GEQRT/TSQRT/TTQRT) run per slice with the
  per-tile backend's kernels — exactly the calls ungrouped dispatch
  makes, so grouping never changes their results bitwise.  The inline
  transport (``stacked=True``) instead factors a whole group in one
  pool-level step with the backend's stacked kernels of
  :mod:`repro.kernels.batched`: stacked NumPy for ``"reference"``,
  fixed-up per-slice LAPACK for ``"lapack"``;
* **apply kernels** (UNMQR/TSMQR/TTMQR) sort the group by source
  (V/T) tile — :func:`v_runs` — and execute each run as one broadcast
  stacked apply (:func:`apply_group_pool`): the V tile and its 2-D
  ``T`` blocks are processed once per run instead of once per task.
  The reference backend's per-tile applies are these stacked applies
  on one-tile views, so the numpy path is bit-exact under grouping by
  construction.  Groups of one run the per-tile backend's apply,
  except inline, where every apply is stacked.

The T store has one of two layouts: ``(nfactor, npanels, ib, ib)``
panel blocks (reference kernels, and every inline run) or
``(nfactor, ib, nb)`` — the compact-WY ``T`` LAPACK returns for a
padded tile (per-tile LAPACK kernels).  :func:`record_tfactors` copies
either into :attr:`ExecutionContext.tfactors
<repro.runtime.executor.ExecutionContext.tfactors>` once the run ends.
"""

from __future__ import annotations

import numpy as np

from ..dag.tasks import KERNEL_CODES
from ..kernels.backend import LAPACK, get_backend
from ..kernels.batched import (
    apply_stacked_batched,
    factor_stacked_batched,
    factor_stacked_lapack_pool,
    geqrt_batched,
    geqrt_lapack_pool,
    unmqr_batched,
)
from ..kernels.costs import Kernel
from ..kernels.geqrt import TFactor, panel_starts
from ..kernels.lapack import LapackT
from ..kernels.stacked import ts_support, tt_support
from .groups import FACTOR_CODES, KIND

__all__ = ["GroupExecutor", "apply_group_pool", "record_tfactors",
           "v_runs"]

_GEQRT, _UNMQR, _TSQRT, _TSMQR, _TTQRT, _TTMQR = (
    KERNEL_CODES.index(k) for k in (
        Kernel.GEQRT, Kernel.UNMQR, Kernel.TSQRT, Kernel.TSMQR,
        Kernel.TTQRT, Kernel.TTMQR))


class GroupExecutor:
    """Runs kernel groups against a tile stack and a T store.

    Parameters
    ----------
    stack : ndarray, shape (p * q, nb, nb)
        Slot-addressed tile stack, updated in place.
    tstore : ndarray
        T store of :meth:`tstore_shape` (``compact`` for per-tile
        LAPACK kernels).
    q : int
        Tile-grid width (slot of tile ``(i, j)`` is ``i * q + j``).
    ib : int
        Inner blocking size.
    backend : str or KernelBackend
        Kernel library, ``"reference"`` or ``"lapack"`` (per-tile
        kernels also any :class:`~repro.kernels.backend.KernelBackend`).
    stacked : bool
        Inline transport only: factor whole groups with the backend's
        stacked pool kernels, and run every apply group through the
        stacked applies, groups of one included.  Only the LAPACK
        backend's applies change by this: the reference per-tile
        applies are the stacked ones already.
    """

    __slots__ = ("stack", "tstore", "q", "ib", "bk", "stacked",
                 "compact", "panels", "_tf_cache")

    def __init__(self, stack: np.ndarray, tstore: np.ndarray, q: int,
                 ib: int, backend="reference", stacked: bool = False):
        self.stack, self.tstore = stack, tstore
        self.q, self.ib = q, ib
        self.bk = get_backend(backend)
        self.stacked = stacked
        # the layout the per-tile applies read: a wrapped LAPACK backend
        # (checked_backend) keeps LAPACK's applies and so its compact T
        self.compact = not stacked and self.bk.unmqr is LAPACK.unmqr
        # padded slots always factor a full nb-column panel sequence
        self.panels = panel_starts(stack.shape[1], ib)
        #: fslot -> TFactor of 2-D *views* into the T store.  A T
        #: slot is written exactly once (by its factor task, which the
        #: DAG orders before every apply that reads it), so the cached
        #: views stay valid for the rest of the run.
        self._tf_cache: dict = {}

    @classmethod
    def on_pool(cls, pool, nfactor: int, ib: int, backend="reference",
                stacked: bool = False) -> "GroupExecutor":
        """An executor over a private :class:`~repro.tiles.pool.TilePool`
        with a zeroed T store for ``nfactor`` factor tasks."""
        ex = cls(pool.stack, None, pool.q, ib, backend, stacked)
        ex.tstore = np.zeros(
            cls.tstore_shape(nfactor, pool.nb, ib, ex.compact),
            dtype=pool.stack.dtype)
        return ex

    @staticmethod
    def tstore_shape(nfactor: int, nb: int, ib: int,
                     compact: bool) -> tuple:
        """T-store shape for ``nfactor`` factor tasks (at least one
        slot, so empty graphs still get a valid array)."""
        if compact:
            return (max(1, nfactor), ib, nb)
        return (max(1, nfactor), len(panel_starts(nb, ib)), ib, ib)

    # ------------------------------------------------------------------
    def tfactor(self, fslot: int, tt_height: int = 0):
        """The T factor the per-tile backend takes for slot ``fslot``:
        a :class:`LapackT` view in the compact layout (with the TT
        trapezoid height, ``nb`` on padded slots), else
        :meth:`panel_tfactor`."""
        if self.compact:
            return LapackT(self.tstore[fslot], self.ib, tt_height)
        return self.panel_tfactor(fslot)

    def panel_tfactor(self, fslot: int) -> TFactor:
        """The T factor of slot ``fslot`` as 2-D panel blocks, which the
        stacked applies broadcast over a run (memoized views; the
        compact layout is sliced into its side-by-side panels)."""
        tf = self._tf_cache.get(fslot)
        if tf is None:
            t = self.tstore[fslot]
            if self.compact:
                blocks = [t[:jb, j0:j0 + jb] for j0, jb in self.panels]
            else:
                blocks = [t[pi, :jb, :jb]
                          for pi, (_, jb) in enumerate(self.panels)]
            tf = self._tf_cache[fslot] = TFactor(blocks, self.ib)
        return tf

    def _store_t(self, fslot: int, t) -> None:
        if self.compact:
            self.tstore[fslot, : t.t.shape[0], : t.t.shape[1]] = t.t
            return
        for pi, blk in enumerate(t.blocks):
            jb = blk.shape[0]
            self.tstore[fslot, pi, :jb, :jb] = blk

    # ------------------------------------------------------------------
    def run(self, code: int, rows, pivs, cols, js, fslots, srcs) -> None:
        """Execute one same-kernel group of mutually independent tasks.

        The coordinate sequences are aligned (``-1`` where a kernel
        has no such coordinate); ``fslots`` are the factor tasks' T
        slots, ``srcs`` the apply tasks' source slots.
        """
        if code in FACTOR_CODES and self.stacked:
            self._factor_group(code, np.asarray(rows, dtype=np.int64),
                               np.asarray(pivs, dtype=np.int64),
                               np.asarray(cols, dtype=np.int64),
                               np.asarray(fslots, dtype=np.int64))
        elif code in FACTOR_CODES or (len(rows) == 1 and not self.stacked):
            for i in range(len(rows)):
                self._run_task(code, rows[i], pivs[i], cols[i], js[i],
                               fslots[i], srcs[i])
        else:
            q = self.q
            rows_a = np.asarray(rows, dtype=np.int64)
            js_a = np.asarray(js, dtype=np.int64)
            srcs_a = np.asarray(srcs, dtype=np.int64)
            vslots = rows_a * q + np.asarray(cols, dtype=np.int64)
            top = (None if code == _UNMQR
                   else np.asarray(pivs, dtype=np.int64) * q + js_a)
            apply_group_pool(self.stack, code, vslots, top, rows_a * q + js_a,
                             lambda b: self.panel_tfactor(int(srcs_a[b])))

    def _run_task(self, code: int, row: int, piv: int, col: int, j: int,
                  fslot: int, src: int) -> None:
        """One kernel with the per-tile backend on padded slots."""
        stack, q, ib, bk = self.stack, self.q, self.ib, self.bk
        if code == _GEQRT:
            self._store_t(fslot, bk.geqrt(stack[row * q + col], ib))
        elif code == _UNMQR:
            bk.unmqr(stack[row * q + col], self.tfactor(src),
                     stack[row * q + j])
        elif code == _TSQRT:
            self._store_t(fslot, bk.tsqrt(stack[piv * q + col],
                                          stack[row * q + col], ib))
        elif code == _TSMQR:
            bk.tsmqr(stack[row * q + col], self.tfactor(src),
                     stack[piv * q + j], stack[row * q + j])
        elif code == _TTQRT:
            self._store_t(fslot, bk.ttqrt(stack[piv * q + col],
                                          stack[row * q + col], ib))
        else:
            bk.ttmqr(stack[row * q + col],
                     self.tfactor(src, tt_height=stack.shape[1]),
                     stack[piv * q + j], stack[row * q + j])

    def _factor_group(self, code: int, rows, pivs, cols, fslots) -> None:
        """Inline transport: factor a whole group in one pool-level step.

        The LAPACK kernels loop per slice in place; the stacked NumPy
        kernels gather the group's tiles, factor them as 3-D stacks
        and scatter them back.  Either way the group's T blocks land
        in the panel-layout T store.
        """
        stack, ib, q = self.stack, self.ib, self.q
        bslots = rows * q + cols
        lapack = self.bk is LAPACK
        if code == _GEQRT:
            if lapack:
                bt = geqrt_lapack_pool(stack, bslots, ib)
            else:
                a = stack[bslots]
                bt = geqrt_batched(a, ib)
                stack[bslots] = a
        else:
            rslots = pivs * q + cols
            triangular = code == _TTQRT
            if lapack:
                bt = factor_stacked_lapack_pool(stack, rslots, bslots, ib,
                                                triangular=triangular)
            else:
                r, b = stack[rslots], stack[bslots]
                bt = factor_stacked_batched(
                    r, b, ib, tt_support if triangular else ts_support)
                stack[rslots] = r
                stack[bslots] = b
        for pi, blk in enumerate(bt.blocks):
            jb = blk.shape[1]
            self.tstore[fslots, pi, :jb, :jb] = blk


def record_tfactors(ctx, da, tstore: np.ndarray, compact: bool) -> None:
    """File every factor task's T into ``ctx.tfactors``.

    Each entry is sliced to the tile's valid reflector count (``min``
    of the tile's height and width for GEQRT, its width for the
    stacked kernels) as views into ``tstore``, so ``apply_q`` replays
    against the ragged tile views with the context's per-tile backend.
    In ``compact`` (LAPACK) form, reflectors past ``k`` have
    ``tau = 0``, so the ``[:min(ib, k), :k]`` corner is the T of the
    valid reflectors.
    """
    tiled, ib, tf = ctx.tiled, ctx.ib, ctx.tfactors
    fids = np.flatnonzero(da.fslot >= 0)
    for code, row, col, fs in zip(da.codes[fids].tolist(),
                                  da.rows[fids].tolist(),
                                  da.cols[fids].tolist(),
                                  da.fslot[fids].tolist()):
        kind = KIND[code]
        h, w = tiled.row_height(row), tiled.col_width(col)
        k = min(h, w) if kind == "ge" else w
        if compact:
            ibk = max(1, min(ib, k))
            tf[(row, col, kind)] = LapackT(
                tstore[fs, :ibk, :k], ibk, min(h, w) if kind == "tt" else 0)
        else:
            t = TFactor(ib=ib)
            t.blocks = [tstore[fs, pi, :jb, :jb]
                        for pi, (_, jb) in enumerate(panel_starts(k, ib))]
            tf[(row, col, kind)] = t


# ----------------------------------------------------------------------
# stacked apply over V-runs
# ----------------------------------------------------------------------

def v_runs(vslots: np.ndarray):
    """Sort an apply group by source-tile slot and yield the runs.

    Returns ``(order, bounds)``: ``order`` permutes the group's tasks
    so that tasks sharing one V tile are contiguous, and
    ``bounds[i]:bounds[i+1]`` delimits run ``i``.  Each run's applies
    then execute as one broadcast batched operation — the V tile and
    its T blocks are processed once instead of once per task.
    """
    order = np.argsort(vslots, kind="stable")
    sv = vslots[order]
    bounds = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1], True])
    return order, bounds


def apply_group_pool(stack: np.ndarray, code: int, vslots: np.ndarray,
                     top_slots: np.ndarray | None, bot_slots: np.ndarray,
                     tfactor_of) -> None:
    """Execute one apply group in place against a ``(S, nb, nb)`` pool.

    ``vslots`` names each task's V tile, ``bot_slots`` its updated tile
    (``c_bot``), ``top_slots`` the pivot-row tile for the TS/TT
    kernels (``None`` for UNMQR).  ``tfactor_of(i)`` returns the
    :class:`TFactor` of task ``i`` (pre-sort index) with 2-D blocks,
    broadcast over the task's run.  Gather and scatter are single
    fancy-indexing copies; every run is one broadcast stacked apply.
    """
    order, bounds = v_runs(vslots)
    if code == _UNMQR:
        cslots = bot_slots[order]
        c = stack[cslots]
        for u0, u1 in zip(bounds[:-1], bounds[1:]):
            b = int(order[u0])
            unmqr_batched(stack[vslots[b]][None], tfactor_of(b), c[u0:u1])
        stack[cslots] = c
        return
    support = tt_support if code == _TTMQR else ts_support
    ct = top_slots[order]
    cb = bot_slots[order]
    c_top = stack[ct]
    c_bot = stack[cb]
    for u0, u1 in zip(bounds[:-1], bounds[1:]):
        b = int(order[u0])
        apply_stacked_batched(stack[vslots[b]][None], tfactor_of(b),
                              c_top[u0:u1], c_bot[u0:u1], support,
                              mask=code == _TTMQR)
    stack[ct] = c_top
    stack[cb] = c_bot
