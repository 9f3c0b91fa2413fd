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
* **apply kernels** (UNMQR/TSMQR/TTMQR) sort the group by V-run
  length and source (V/T) tile — :func:`apply_chunks` — and execute
  each chunk of equal-length runs as one stacked apply
  (:func:`apply_group_pool`) on a ``(runs, length, nb, nb)`` stack of
  the gathered C tiles, with each run's V tile and ``T`` blocks
  broadcast over its length, so they are processed once per run
  instead of once per task.  A chunk stops at
  :data:`APPLY_CHUNK_BYTES` of C tiles.  A group of one makes the
  same call on one-slot views of the stack.  The stacked applies
  compute each slice alone, so grouping and chunking never change an
  apply's bytes either.

The T store has one layout, LAPACK's compact ``(nfactor, ib, nb)``:
panel ``p``'s ``(jb, jb)`` block sits at columns ``p * ib`` on, which
is how ``?geqrt``/``?tpqrt`` return ``T`` and where the reference
kernels' blocks are filed.  :func:`record_tfactors` files views of it
into :attr:`ExecutionContext.tfactors
<repro.runtime.executor.ExecutionContext.tfactors>` once the run ends.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..dag.tasks import KERNEL_CODES
from ..kernels.backend import LAPACK, REFERENCE, get_backend
from ..kernels.batched import apply_stacked_batched, unmqr_batched
from ..kernels.costs import Kernel
from ..kernels.geqrt import TFactor, panel_starts
from ..kernels.lapack import LapackT
from ..kernels.stacked import ts_support, tt_support
from .groups import FACTOR_CODES, KIND

__all__ = ["APPLY_CHUNK_BYTES", "GroupExecutor", "apply_chunks",
           "apply_group_pool", "record_tfactors"]

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

    __slots__ = ("stack", "tstore", "q", "ib", "bk", "panels")

    def __init__(self, stack: np.ndarray, tstore: np.ndarray, q: int,
                 ib: int, backend="reference"):
        self.stack, self.tstore = stack, tstore
        self.q, self.ib = q, ib
        self.bk = get_backend(backend)
        # padded slots always factor a full nb-column panel sequence
        self.panels = panel_starts(stack.shape[1], ib)

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
            top = (None if code == _UNMQR
                   else np.asarray(pivs, dtype=np.int64) * q + js)
            apply_group_pool(self.stack, self.tstore, self.panels, code,
                             rows * q + cols, top, rows * q + js,
                             np.asarray(srcs, dtype=np.int64))
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
            tf[(row, col, kind)] = _tfactor(t, panel_starts(k, ib), ib)


def _tfactor(t: np.ndarray, panels, ib: int) -> TFactor:
    """The :class:`TFactor` of T-store entries ``t`` (``(..., ib, nb)``,
    LAPACK's compact layout) as views of its ``panels`` blocks."""
    return TFactor([t[..., :jb, j0:j0 + jb] for j0, jb in panels], ib)


# ----------------------------------------------------------------------
# stacked apply over chunks of V-runs
# ----------------------------------------------------------------------

#: working set of one stacked-apply call: a chunk takes V-runs until
#: the C tiles they update reach this many bytes.  Inline factor,
#: medians of 21 rounds over the budgets, 2-vCPU host with a 2 MiB L2
#: per core, one BLAS thread: on tall-ts-nb32 every budget from
#: 256 KiB up took 97-101 ms (233 to 136 calls) and 128 KiB 106 ms
#: (400 calls); on square-nb64 budgets of 128 KiB to 1 MiB took
#: 215-222 ms, 4 MiB 233 ms and no limit 243 ms, as chunks of nb=64
#: tiles outgrow the cache.  512 KiB lies inside both good ranges.
APPLY_CHUNK_BYTES = 512 * 1024


def apply_chunks(vslots: np.ndarray, task_bytes: int):
    """Sort an apply group into chunks of equal-length V-runs.

    A V-run is the group's tasks that share one V tile.  Returns
    ``(order, chunks)``: ``order`` sorts the tasks by (run length, V
    slot), so every run is contiguous and runs of one length are
    adjacent; each ``(start, stop, length)`` of ``chunks`` spans whole
    runs of ``length`` tasks in ``order``, as many as keep their C
    operands (``task_bytes`` per task) within
    :data:`APPLY_CHUNK_BYTES`, and at least one.
    """
    # one stable sort on the key (run length, slot): a task's run
    # length is its slot's count
    count = np.bincount(vslots)
    lens = count[vslots]
    order = np.argsort(lens * len(count) + vslots, kind="stable")
    chunks, a = [], 0
    for length, ntasks in enumerate(np.bincount(lens).tolist()):
        if ntasks:
            step = length * max(1, APPLY_CHUNK_BYTES // (length * task_bytes))
            stop = a + ntasks
            chunks += [(s, min(s + step, stop), length)
                       for s in range(a, stop, step)]
            a = stop
    return order, chunks


def apply_group_pool(stack: np.ndarray, tstore: np.ndarray, panels,
                     code: int, vslots: np.ndarray,
                     top_slots: np.ndarray | None, bot_slots: np.ndarray,
                     tslots: np.ndarray) -> None:
    """Execute one apply group in place against a ``(S, nb, nb)`` pool.

    ``tstore`` is the T store, whose entries hold the ``(start,
    width)`` blocks of ``panels``.  ``vslots`` names each task's V
    tile, ``tslots`` its T-store slot, ``bot_slots`` its updated tile
    (``c_bot``), ``top_slots`` the pivot-row tile for the TS/TT
    kernels (``None`` for UNMQR).  The C tiles are gathered once in
    :func:`apply_chunks` order and scattered back once.  A chunk of
    ``u > 1`` runs of ``L`` tasks is one stacked apply on a ``(u, L,
    nb, nb)`` view of them, with the runs' V tiles and T blocks
    gathered as ``(u, 1, ...)`` stacks and broadcast over the ``L``
    axis; a chunk of one run reads its V tile and T as one-slot views.
    A group of one runs on one-slot views of the pool, with no gather
    or scatter.
    """
    ib = tstore.shape[1]
    if code == _UNMQR:
        kernel, cslots = unmqr_batched, [bot_slots]
    else:
        kernel = partial(apply_stacked_batched,
                         support=tt_support if code == _TTMQR else ts_support,
                         mask=code == _TTMQR)
        cslots = [top_slots, bot_slots]
    if len(vslots) == 1:
        # one-slot views of the pool: no gather or scatter
        sv, st, chunks = vslots, tslots, [(0, 1, 1)]
        cs = [stack[s[0]:s[0] + 1] for s in cslots]
        cslots = []
    else:
        order, chunks = apply_chunks(vslots, len(cslots) * stack[0].nbytes)
        sv, st = vslots[order], tslots[order]
        cslots = [s[order] for s in cslots]
        cs = [stack[s] for s in cslots]
    for a, b, length in chunks:
        if b - a == length:
            # one run: its V tile and T as one-slot views
            v, ts = sv[a], st[a]
            kernel(stack[v:v + 1], _tfactor(tstore[ts:ts + 1], panels, ib),
                   *(c[a:b] for c in cs))
        else:
            kernel(stack[sv[a:b:length]][:, None],
                   _tfactor(tstore[st[a:b:length]][:, None], panels, ib),
                   *(c[a:b].reshape(-1, length, *c.shape[1:]) for c in cs))
    for s, c in zip(cslots, cs):
        stack[s] = c
