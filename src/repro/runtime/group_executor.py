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

A group runs the same way in every transport, so its result does not
depend on the transport, the group's size or its other members:

* **factor kernels** (GEQRT/TSQRT/TTQRT): the reference kernels of
  :mod:`repro.kernels.batched` factor a whole group as one call on its
  gathered stacks (a group of one on one-slot views of the stack);
  any other backend's kernels run one slice at a time — exactly the
  calls ungrouped dispatch makes.  The reference kernels compute each
  slice alone, so either way a factor's bytes do not depend on the
  group;
* **apply kernels** (UNMQR/TSMQR/TTMQR) sort the group by source
  (V/T) tile — :func:`v_runs` — and execute each run as one broadcast
  stacked apply (:func:`apply_group_pool`): the V tile and its 2-D
  ``T`` blocks are processed once per run instead of once per task.
  A group of one makes the same call on one-slot views of the stack.
  The stacked applies compute each slice alone, so grouping never
  changes an apply's bytes either.

The T store has one layout, LAPACK's compact ``(nfactor, ib, nb)``:
panel ``p``'s ``(jb, jb)`` block sits at columns ``p * ib`` on, which
is how ``?geqrt``/``?tpqrt`` return ``T`` and where the reference
kernels' blocks are filed.  :func:`record_tfactors` files views of it
into :attr:`ExecutionContext.tfactors
<repro.runtime.executor.ExecutionContext.tfactors>` once the run ends.
"""

from __future__ import annotations

import numpy as np

from ..dag.tasks import KERNEL_CODES
from ..kernels.backend import LAPACK, REFERENCE, get_backend
from ..kernels.batched import apply_stacked_batched, unmqr_batched
from ..kernels.costs import Kernel
from ..kernels.geqrt import TFactor, panel_starts
from ..kernels.lapack import LapackT
from ..kernels.stacked import ts_support, tt_support
from .groups import FACTOR_CODES, KIND

__all__ = ["GroupExecutor", "apply_group_pool", "record_tfactors",
           "v_runs"]

_GEQRT, _UNMQR, _TTMQR = (KERNEL_CODES.index(k) for k in (
    Kernel.GEQRT, Kernel.UNMQR, Kernel.TTMQR))


class GroupExecutor:
    """Runs kernel groups against a tile stack and a T store.

    Parameters
    ----------
    stack : ndarray, shape (p * q, nb, nb)
        Slot-addressed tile stack, updated in place.
    tstore : ndarray
        T store of :meth:`tstore_shape`.
    q : int
        Tile-grid width (slot of tile ``(i, j)`` is ``i * q + j``).
    ib : int
        Inner blocking size.
    backend : str or KernelBackend
        Kernel library whose factor kernels run the factor groups,
        ``"reference"`` or ``"lapack"`` (also any
        :class:`~repro.kernels.backend.KernelBackend` whose factor
        kernels return a :class:`~repro.kernels.lapack.LapackT` or a
        :class:`TFactor`).
    """

    __slots__ = ("stack", "tstore", "q", "ib", "bk", "panels",
                 "_tf_cache")

    def __init__(self, stack: np.ndarray, tstore: np.ndarray, q: int,
                 ib: int, backend="reference"):
        self.stack, self.tstore = stack, tstore
        self.q, self.ib = q, ib
        self.bk = get_backend(backend)
        # padded slots always factor a full nb-column panel sequence
        self.panels = panel_starts(stack.shape[1], ib)
        #: fslot -> TFactor of 2-D *views* into the T store.  A T
        #: slot is written exactly once (by its factor task, which the
        #: DAG orders before every apply that reads it), so the cached
        #: views stay valid for the rest of the run.
        self._tf_cache: dict = {}

    @classmethod
    def on_pool(cls, pool, nfactor: int, ib: int,
                backend="reference") -> "GroupExecutor":
        """An executor over a private :class:`~repro.tiles.pool.TilePool`
        with a zeroed T store for ``nfactor`` factor tasks."""
        tstore = np.zeros(cls.tstore_shape(nfactor, pool.nb, ib),
                          dtype=pool.stack.dtype)
        return cls(pool.stack, tstore, pool.q, ib, backend)

    @staticmethod
    def tstore_shape(nfactor: int, nb: int, ib: int) -> tuple:
        """T-store shape for ``nfactor`` factor tasks (at least one
        slot, so empty graphs still get a valid array)."""
        return (max(1, nfactor), ib, nb)

    # ------------------------------------------------------------------
    def panel_tfactor(self, fslot: int) -> TFactor:
        """The T factor of slot ``fslot`` as 2-D panel blocks, which the
        stacked applies broadcast over a run (memoized views)."""
        tf = self._tf_cache.get(fslot)
        if tf is None:
            t = self.tstore[fslot]
            tf = self._tf_cache[fslot] = TFactor(
                [t[:jb, j0:j0 + jb] for j0, jb in self.panels], self.ib)
        return tf

    def _store_t(self, fslot, t) -> None:
        """File a factor kernel's ``T`` in slot ``fslot`` (or, with 3-D
        blocks, in the slots of the array ``fslot``)."""
        if isinstance(t, LapackT):
            self.tstore[fslot, : t.t.shape[0], : t.t.shape[1]] = t.t
            return
        for (j0, jb), blk in zip(self.panels, t.blocks):
            self.tstore[fslot, :jb, j0:j0 + jb] = blk

    # ------------------------------------------------------------------
    def run(self, code: int, rows, pivs, cols, js, fslots, srcs) -> None:
        """Execute one same-kernel group of mutually independent tasks.

        The coordinate sequences are aligned (``-1`` where a kernel
        has no such coordinate); ``fslots`` are the factor tasks' T
        slots, ``srcs`` the apply tasks' source slots.
        """
        q = self.q
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if code not in FACTOR_CODES:
            js = np.asarray(js, dtype=np.int64)
            srcs = np.asarray(srcs, dtype=np.int64)
            top = (None if code == _UNMQR
                   else np.asarray(pivs, dtype=np.int64) * q + js)
            apply_group_pool(self.stack, code, rows * q + cols, top,
                             rows * q + js,
                             lambda b: self.panel_tfactor(int(srcs[b])))
            return
        bslots = rows * q + cols
        rslots = None if code == _GEQRT else (
            np.asarray(pivs, dtype=np.int64) * q + cols)
        name = KERNEL_CODES[code].value.lower()
        kernel = getattr(self.bk, name)
        if kernel is getattr(REFERENCE, name):
            slots = (bslots,) if rslots is None else (rslots, bslots)
            self._factor_group(kernel, slots, np.asarray(fslots))
            return
        # one slice at a time: plain ints index the stack fastest
        stack, ib, store = self.stack, self.ib, self._store_t
        fslots = np.asarray(fslots).tolist()
        if code == _GEQRT:
            for b, fs in zip(bslots.tolist(), fslots):
                store(fs, kernel(stack[b], ib))
            return
        for r, b, fs in zip(rslots.tolist(), bslots.tolist(), fslots):
            store(fs, kernel(stack[r], stack[b], ib))

    def _factor_group(self, kernel, slots, fslots) -> None:
        """Factor a whole group as one call of a reference factor
        kernel, on one-slot views of the tile stack for a group of one,
        else on gathered stacks scattered back after (``slots`` holds
        the operands' slots: the tiles, or the top then bottom tiles)."""
        stack = self.stack
        if len(fslots) == 1:
            ops = [stack[s[0]:s[0] + 1] for s in slots]
            self._store_t(fslots, kernel(*ops, self.ib))
            return
        ops = [stack[s] for s in slots]
        self._store_t(fslots, kernel(*ops, self.ib))
        for s, x in zip(slots, ops):
            stack[s] = x


def record_tfactors(ctx, da, tstore: np.ndarray) -> None:
    """File every factor task's T into ``ctx.tfactors``.

    Each entry is sliced to the tile's valid reflector count ``k``
    (``min`` of the tile's height and width for GEQRT, its width for
    the stacked kernels) as views into ``tstore``, so ``apply_q``
    replays against the ragged tile views with the context's per-tile
    backend: :class:`LapackT` views when it runs LAPACK's applies,
    else :class:`TFactor` panel blocks.  Reflectors past ``k`` have
    ``tau = 0`` and come after the valid ones in their panel, so the
    ``[:min(ib, k), :k]`` corner is the T of the valid reflectors.
    """
    tiled, ib, tf = ctx.tiled, ctx.ib, ctx.tfactors
    # a wrapped LAPACK backend (checked_backend) keeps LAPACK's applies
    lapack = ctx.backend.unmqr is LAPACK.unmqr
    fids = np.flatnonzero(da.fslot >= 0)
    for code, row, col, fs in zip(da.codes[fids].tolist(),
                                  da.rows[fids].tolist(),
                                  da.cols[fids].tolist(),
                                  da.fslot[fids].tolist()):
        kind = KIND[code]
        h, w = tiled.row_height(row), tiled.col_width(col)
        k = min(h, w) if kind == "ge" else w
        t = tstore[fs]
        if lapack:
            ibk = max(1, min(ib, k))
            tf[(row, col, kind)] = LapackT(
                t[:ibk, :k], ibk, min(h, w) if kind == "tt" else 0)
        else:
            tf[(row, col, kind)] = TFactor(
                [t[:jb, j0:j0 + jb] for j0, jb in panel_starts(k, ib)], ib)


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
    edge = np.empty(sv.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(sv[1:], sv[:-1], out=edge[1:-1])
    return order, np.flatnonzero(edge)


def apply_group_pool(stack: np.ndarray, code: int, vslots: np.ndarray,
                     top_slots: np.ndarray | None, bot_slots: np.ndarray,
                     tfactor_of) -> None:
    """Execute one apply group in place against a ``(S, nb, nb)`` pool.

    ``vslots`` names each task's V tile, ``bot_slots`` its updated tile
    (``c_bot``), ``top_slots`` the pivot-row tile for the TS/TT
    kernels (``None`` for UNMQR).  ``tfactor_of(i)`` returns the
    :class:`TFactor` of task ``i`` (pre-sort index) with 2-D blocks,
    broadcast over the task's run.  Gather and scatter are single
    fancy-indexing copies; every run is one broadcast stacked apply.  A
    group of one makes the same call on one-slot views of the pool.
    """
    if len(vslots) == 1:
        v, bot = int(vslots[0]), int(bot_slots[0])
        if code == _UNMQR:
            unmqr_batched(stack[v:v + 1], tfactor_of(0), stack[bot:bot + 1])
        else:
            top = int(top_slots[0])
            apply_stacked_batched(stack[v:v + 1], tfactor_of(0),
                                  stack[top:top + 1], stack[bot:bot + 1],
                                  tt_support if code == _TTMQR
                                  else ts_support, mask=code == _TTMQR)
        return
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
