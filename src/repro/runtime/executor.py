"""Task-graph execution: the entry point and the task-mode executors (S12).

Given a :class:`~repro.dag.tasks.TaskGraph` (or the
:class:`~repro.planner.Plan` wrapping one) and a
:class:`~repro.tiles.layout.TiledMatrix`, :func:`execute_graph` runs
the numeric kernels.  The runtime is one scheduler core with three
transports:

* the **frontier core** (:mod:`repro.runtime.groups`) — the Plan's CSR
  in-degrees, bottom-level priority keys (critical path first; FIFO
  when no Plan is supplied) and a ready frontier that pops groups of
  compatible ready tasks;
* the **group executor** (:mod:`repro.runtime.group_executor`) — runs
  one group against a slot-addressed tile stack and a T store;
* the **transports** that move groups between the two: *inline*
  (``mode="batched"``, :mod:`repro.runtime.batched`: groups run in the
  calling thread in the core's memoized drain order), *thread*
  (``mode="task"``, ``workers >= 2``, here: worker threads pull groups
  from the core under one lock) and *process* (``mode="process"``,
  :mod:`repro.runtime.procpool`: groups ship to worker processes over
  a shared-memory tile pool).

Sequential task mode (``workers`` ``None`` or 1) stays outside the
core: tasks run in emission (topological) order on the tile views —
the numerical reference every transport is tested against.  Each
factor task is one per-tile call; each stretch of its updates (same
kernel, ``row``, ``piv`` and ``col``, ``j`` rising by one: the rest of
the paper's elimination block, §2.1) is one apply call on the row
block(s), with the bytes of one call per tile.  NumPy/LAPACK kernels
release the GIL inside BLAS, so the thread transport runs genuinely
in parallel, though Python-level overhead limits scaling for small
tiles (the documented substitution for the paper's 48-core C runtime;
see DESIGN.md §2).

Every run returns an :class:`ExecutionContext` holding the ``T``
factors the factor kernels produced, so the Q factor can later be
applied to arbitrary right-hand sides by replaying the panel tasks
(:meth:`ExecutionContext.apply_q`).  The replay follows the frontier
core's drain order restricted to the panel kernels (the Plan's
memoized ``level_groups()``, or ``drain_groups`` of a bare graph, run
once per context), ``Q^H`` forward and ``Q`` backward.  With the
reference kernels, each group whose tiles are all full runs as one
stacked kernel call on the gathered row blocks of a left-hand-side
operand at most :data:`REPLAY_STACK_TILES` tiles wide, or on the
gathered column blocks of a right-side one
(:meth:`~ExecutionContext.apply_q_right`) at most that many tiles
tall; LAPACK's compact ``T``, custom backends, ragged tiles and
larger operands run per tile in the same order.  Either way the bytes
equal a per-task replay in emission order: a group's members are
independent, the DAG orders every two panel tasks sharing a row
block, and the reference per-tile applies are the stacked applies on
one-tile views.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.backend import REFERENCE, KernelBackend
from ..kernels.batched import (apply_stacked_batched, tsmqr_batched,
                               ttmqr_batched, unmqr_batched)
from ..kernels.geqrt import TFactor
from ..kernels.stacked import ts_support, tt_support
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..tiles.layout import TiledMatrix
from ..tiles.pool import TilePool
from .group_executor import GroupExecutor, record_tfactors
from .groups import (APPLY_CODES, FACTOR_CODES, KIND, FrontierCore,
                     drain_groups, resolve_batch, unwrap_graph)
from .lifecycle import Lifecycle
from .options import ExecOptions, resolve_backend

__all__ = ["ExecutionContext", "ExecOptions", "REPLAY_STACK_TILES",
           "execute_graph"]

logger = logging.getLogger(__name__)

#: ``apply_q`` stacks a panel group only for right-hand sides at most
#: this many tiles wide (``apply_q_right``: operands at most this many
#: tiles tall): larger blocks gather more than the saved per-call
#: overhead (docs/performance.md, "Least squares: replaying Q in drain
#: groups")
REPLAY_STACK_TILES = 2

#: each apply kernel code's :class:`KernelBackend` field, and the
#: stacked apply the reference backend's field calls on one-tile views
_APPLIES = {c: (KERNEL_CODES[c].value.lower(),
                {"ge": unmqr_batched, "ts": tsmqr_batched,
                 "tt": ttmqr_batched}[KIND[c]]) for c in APPLY_CODES}


def _clamp_ib(ib: int, nb: int, metrics: MetricsRegistry | None) -> int:
    """Clamp the inner blocking size to the tile size, once, at entry.

    ``ib=32`` silently exceeding a small ``nb`` used to be absorbed by
    each kernel's internal ``min`` — correct, but invisible.  Clamp
    here and say so.  Non-positive ``ib`` is passed through untouched
    so kernel-level validation still fires.
    """
    if ib > nb:
        logger.warning("ib=%d exceeds tile size nb=%d; clamped to %d",
                       ib, nb, nb)
        if metrics is not None:
            metrics.counter("executor.ib_clamped").inc()
        return nb
    return ib


@dataclass
class ExecutionContext:
    """State of an executed factorization: tiles, T factors, task order.

    When the run was observed, :attr:`tracer` holds the span capture
    and :attr:`metrics` the registry the executor wrote into; both are
    ``None`` for unobserved runs.
    """

    tiled: TiledMatrix
    graph: TaskGraph
    backend: KernelBackend
    ib: int
    tfactors: dict[tuple[int, int, str], Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    #: the Plan the run was given (``None`` for a bare TaskGraph); its
    #: memoized drain order orders the Q replay
    plan: Optional[Any] = None
    _panel_groups: Optional[list] = field(default=None, init=False,
                                          repr=False, compare=False)

    # ------------------------------------------------------------------
    def run_task(self, code: int, row: int, piv: int, col: int) -> None:
        """Execute one factor task against the tile views, given by its
        graph columns (kernel code; ``piv`` is ``-1`` for GEQRT)."""
        bk, tiles, kind = self.backend, self.tiled, KIND[code]
        if kind == "ge":
            t = bk.geqrt(tiles.tile(row, col), self.ib)
        else:
            t = (bk.tsqrt if kind == "ts" else bk.ttqrt)(
                tiles.tile(piv, col), tiles.tile(row, col), self.ib)
        self.tfactors[(row, col, kind)] = t

    def run_updates(self, code: int, row: int, piv: int, col: int,
                    j0: int, j1: int) -> None:
        """Apply the transformation of factor task ``(row, piv, col)``
        to tile columns ``j0 .. j1 - 1`` of its row (and pivot row) as
        one ``code`` apply call.

        The reference applies run the stacked apply on zero-copy
        ``(j1 - j0, h, nb)`` views of the row blocks, which computes
        every slice exactly as the one-tile call does; a ragged last
        tile column runs as a one-tile call of its own.  Any other
        backend's apply takes the 2-D row-block views, of any width
        (LAPACK's ``?gemqrt``/``?tpmqrt``).
        """
        tiled, nb, kind = self.tiled, self.tiled.nb, KIND[code]
        name, stacked_apply = _APPLIES[code]
        v, t = tiled.tile(row, col), self.tfactors[(row, col, kind)]
        apply = getattr(self.backend, name)
        stacked = apply is getattr(REFERENCE, name)
        spans = [(j0, j1)]
        if stacked:
            # a ragged last tile column does not fit the stack's shape
            full = tiled.n // nb
            spans = [(a, b) for a, b in ((j0, min(j1, full)), (full, j1))
                     if a < b]
            apply, v = stacked_apply, v[None]
        for a, b in spans:
            bot = _row_block(tiled, row, a, b, stacked)
            if kind == "ge":
                apply(v, t, bot)
            else:
                apply(v, t, _row_block(tiled, piv, a, b, stacked), bot)

    # ------------------------------------------------------------------
    def apply_q_right(self, c: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Apply ``Q`` (or ``Q^H``) of the factorization to ``c`` from
        the right, in place.

        ``c`` must have ``m`` columns.  ``C @ Q`` replays the panel
        groups in drain order (``Q = Q_1 Q_2 ...``), ``C @ Q^H`` in
        reverse with adjoints.  As in :meth:`apply_q`, a full-tile
        group runs as one stacked call, here on the gathered column
        blocks of ``c`` when ``c`` is at most
        :data:`REPLAY_STACK_TILES` tiles tall; the bytes equal the
        per-task replay in emission order.
        """
        if c.shape[1] != self.tiled.m:
            raise ValueError(
                f"c has {c.shape[1]} columns, factorization has {self.tiled.m}")
        return self._replay(c, adjoint, "R")

    def apply_q(self, c: np.ndarray, adjoint: bool = True) -> np.ndarray:
        """Apply ``Q`` or ``Q^H`` of the factorization to ``c`` in place.

        ``c`` must have ``m`` rows (padded rows included if the
        factorization padded).  The panel tasks are replayed group by
        group in the frontier core's drain order (:meth:`panel_groups`)
        for ``Q^H`` (the factorization direction), and in reverse group
        order with un-adjointed reflectors for ``Q``.  A group whose
        tiles are all full runs as one stacked kernel call on the
        gathered row blocks of ``c`` when the context replays with the
        reference kernels (panel-block T factors) and ``c`` is at most
        :data:`REPLAY_STACK_TILES` tiles wide; every other group runs
        per tile on views.  The result is byte-identical to replaying
        the panel tasks one by one in emission order: members of a
        group are mutually independent, the DAG orders every two panel
        tasks that share a row block, and the reference per-tile
        applies are the stacked applies on one-tile views.
        """
        if c.shape[0] != self.tiled.m:
            raise ValueError(
                f"c has {c.shape[0]} rows, factorization has {self.tiled.m}")
        return self._replay(c, adjoint, "L")

    def panel_groups(self) -> list["_PanelGroup"]:
        """The factor (GEQRT/TSQRT/TTQRT) groups of the drain order.

        The plan's memoized ``Plan.level_groups()`` restricted to the
        panel kernels, or, for a context built from a bare TaskGraph,
        :func:`~repro.runtime.groups.drain_groups` run once; memoized
        on the context with each group's tile coordinates.
        """
        if self._panel_groups is None:
            plan, g, tiled = self.plan, self.graph, self.tiled
            groups = (plan.level_groups() if plan is not None
                      and hasattr(plan, "level_groups") else drain_groups(g))
            full_p, full_q = tiled.m // tiled.nb, tiled.n // tiled.nb
            out = []
            for code, tids in groups:
                if code not in FACTOR_CODES:
                    continue
                rows, pivs, cols = (g.rows[tids].astype(np.int64),
                                    g.pivs[tids].astype(np.int64),
                                    g.cols[tids].astype(np.int64))
                out.append(_PanelGroup(
                    code, rows, pivs, cols,
                    full=bool(rows.max() < full_p and pivs.max() < full_p
                              and cols.max() < full_q)))
            self._panel_groups = out
        return self._panel_groups

    def _replay(self, c: np.ndarray, adjoint: bool, side: str) -> np.ndarray:
        """Replay the panel groups' transformations on ``c`` (row blocks
        of ``c`` for ``side="L"``, column blocks for ``"R"``)."""
        nb, m = self.tiled.nb, self.tiled.m
        bk, tiles, tf = self.backend, self.tiled, self.tfactors
        # each gathered block is nb by c's width (from the left) or by
        # c's height (from the right)
        extent = c.shape[1] if side == "L" else c.shape[0]
        stack = bk is REFERENCE and extent <= REPLAY_STACK_TILES * nb

        def block(i: int) -> np.ndarray:
            rows = slice(i * nb, min((i + 1) * nb, m))
            return c[rows, :] if side == "L" else c[:, rows]

        groups = self.panel_groups()
        # Q^H from the left and Q from the right run in drain order
        if adjoint != (side == "L"):
            groups = groups[::-1]
        for grp in groups:
            if stack and grp.full:
                self._apply_stacked(grp, c, adjoint, side)
                continue
            kind = KIND[grp.code]
            for row, piv, col in zip(grp.rows.tolist(), grp.pivs.tolist(),
                                     grp.cols.tolist()):
                if kind == "ge":
                    bk.unmqr(tiles.tile(row, col), tf[(row, col, kind)],
                             block(row), adjoint=adjoint, side=side)
                elif kind == "ts":
                    bk.tsmqr(tiles.tile(row, col), tf[(row, col, kind)],
                             block(piv), block(row), adjoint=adjoint,
                             side=side)
                else:
                    bk.ttmqr(tiles.tile(row, col), tf[(row, col, kind)],
                             block(piv), block(row), adjoint=adjoint,
                             side=side)
        return c

    def _apply_stacked(self, grp: "_PanelGroup", c: np.ndarray,
                       adjoint: bool, side: str) -> None:
        """One full-tile panel group as one stacked apply on the
        gathered row blocks of ``c`` (``side="L"``) or its column
        blocks (``"R"``)."""
        tiled, nb = self.tiled, self.tiled.nb
        kind, rows, cols = KIND[grp.code], grp.rows, grp.cols
        pf, qf = tiled.m // nb, tiled.n // nb
        # splitting axes is always a view: (tile row, row, tile col, col)
        v = tiled.array[:pf * nb, :qf * nb].reshape(pf, nb, qf, nb)[
            rows, :, cols]
        ts = [self.tfactors[(r, k, kind)]
              for r, k in zip(rows.tolist(), cols.tolist())]
        t = TFactor([np.array(blks) for blks in zip(*(x.blocks for x in ts))],
                    ts[0].ib)
        # a view of c's blocks indexed by tile row: (pf, nb, k) row
        # blocks, or (pf, k, nb) column blocks
        c3 = (c[:pf * nb].reshape(pf, nb, c.shape[1]) if side == "L" else
              c[:, :pf * nb].reshape(c.shape[0], pf, nb).transpose(1, 0, 2))
        bot = c3[rows]
        if kind == "ge":
            unmqr_batched(v, t, bot, adjoint=adjoint, side=side)
        else:
            top = c3[grp.pivs]
            apply_stacked_batched(v, t, top, bot,
                                  tt_support if kind == "tt" else ts_support,
                                  adjoint=adjoint, mask=kind == "tt",
                                  side=side)
            c3[grp.pivs] = top
        c3[rows] = bot


@dataclass(frozen=True)
class _PanelGroup:
    """One drain group of panel tasks: kernel code, aligned tile
    coordinates (``pivs`` is ``-1`` for GEQRT) and whether every tile
    it touches is a full ``nb x nb`` tile."""

    code: int
    rows: np.ndarray
    pivs: np.ndarray
    cols: np.ndarray
    full: bool


def _prepare(graph, tiled: TiledMatrix, backend: KernelBackend, ib: int,
             tracer, metrics, bus, on_task_done, workers: int):
    """The entry every executor shares: ``(plan or None, context,
    lifecycle or None)``.

    Unwraps a Plan, rejects a graph of another problem than QR (the
    kernels here are QR's), drops disabled observers (so
    ``ctx.tracer`` / ``ctx.metrics`` are ``None`` unless they record),
    clamps ``ib``, counts the run into ``metrics`` and builds the run's
    one :class:`~repro.runtime.lifecycle.Lifecycle` — ``None`` when
    nothing observes the run.
    """
    g, plan = unwrap_graph(graph)
    if g.problem != "qr":
        raise ValueError(f"the runtime executes QR task graphs, not "
                         f"{g.problem!r} ones")
    if tracer is not None and not tracer.enabled:
        tracer = None
    if bus is not None and not getattr(bus, "enabled", True):
        bus = None
    ctx = ExecutionContext(tiled=tiled, graph=g, backend=backend,
                           ib=_clamp_ib(ib, tiled.nb, metrics),
                           tracer=tracer, metrics=metrics, plan=plan)
    if metrics is not None:
        metrics.counter("scheduler.tasks_total").inc(len(g))
        metrics.gauge("scheduler.workers", keep_samples=False).set(workers)
    life = None
    if any(o is not None for o in (tracer, metrics, bus, on_task_done)):
        life = Lifecycle(g, tracer, metrics, bus, on_task_done)
    return plan, ctx, life


def execute_graph(
    graph,
    tiled: TiledMatrix,
    options: ExecOptions | None = None,
    *,
    ib: int = 32,
    on_task_done=None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    bus=None,
) -> ExecutionContext:
    """Run every kernel of ``graph`` against ``tiled``.

    Parameters
    ----------
    graph : TaskGraph or Plan
        The factorization DAG (from :func:`repro.dag.build_dag`), or a
        :class:`~repro.planner.Plan` wrapping one (from
        :func:`repro.api.plan`).  Passing the Plan is preferred: the
        core then uses its memoized dispatch arrays and bottom-level
        priorities, and the inline transport its memoized drain order.
    tiled : TiledMatrix
        Tile views over the working array (mutated in place).
    options : ExecOptions or None
        How to run: mode, workers, kernel backend, start method, pool
        and batch, as one bundle (``None``: ``ExecOptions()``, the
        sequential reference kernels).  The execution-options table in
        docs/api.md describes every field.
    ib : int
        Inner blocking size for the kernels.  Clamped to ``tiled.nb``
        at entry (with a log warning and an ``executor.ib_clamped``
        metrics counter) — ``ib > nb`` is meaningless and used to be
        silently absorbed by each kernel.
    on_task_done : callable or None
        Optional observer ``(task, done_count, total) -> None`` invoked
        for each task once its group retires (progress bars, logging),
        with the done counts ``1..n`` in order.  The thread transport
        calls it from worker threads, serialized under one lock; keep
        it fast.  An exception raised by the observer aborts the run
        and re-raises in the caller — it cannot deadlock the
        scheduler.  For tracing prefer ``tracer=``, which also records
        timestamps and placement.
    tracer : Tracer or None
        Span tracer recording one :class:`~repro.obs.tracer.Span` per
        group the kernels ran — in sequential mode a factor task or
        the stretch of updates that follows it — with its member ids,
        ready/start/finish wall-times and worker.
        ``None`` or a disabled tracer
        (:data:`~repro.obs.tracer.NULL_TRACER`) keeps the hot path
        free of any tracing work.
    metrics : MetricsRegistry or None
        Registry receiving per-kernel retirement counters, one
        wall-time observation per group, per-task queue waits, and
        scheduler-health series (in-flight task depth, time spent
        waiting on / holding the scheduler lock — a direct measure of
        Python overhead); returned on the context's ``metrics``
        attribute.
    bus : EventBus or None
        Live event bus (:class:`repro.obs.stream.EventBus`) receiving
        streaming telemetry while the run progresses: ``run_start`` /
        ``run_done``, ``group_start`` / ``group_done`` per group (with
        the member count, worker index and kernel seconds), and
        ``frontier`` depth after each retirement, from every mode.
        ``None`` or a disabled bus (:data:`~repro.obs.stream.NULL_BUS`)
        skips all publishing on the hot path.

    Every observer is fed by one
    :class:`~repro.runtime.lifecycle.Lifecycle` recorder, which
    records each group once.

    Returns
    -------
    ExecutionContext
    """
    opts = ExecOptions() if options is None else options
    if not isinstance(opts, ExecOptions):
        raise TypeError(f"options must be ExecOptions or None, got "
                        f"{type(opts).__name__}")
    observers = dict(ib=ib, on_task_done=on_task_done, tracer=tracer,
                     metrics=metrics, bus=bus)
    if opts.mode == "process":
        from .procpool import execute_process
        return execute_process(graph, tiled, opts, **observers)
    if opts.mode == "batched":
        from .batched import execute_batched
        return execute_batched(graph, tiled, opts, **observers)
    workers = 1 if opts.workers is None else opts.workers
    backend = resolve_backend(opts.backend, "task", tiled.array.dtype)
    plan, ctx, life = _prepare(graph, tiled, backend, ib, tracer, metrics,
                               bus, on_task_done, workers)
    if workers == 1:
        _run_sequential(ctx, life)
    elif len(ctx.graph):
        _run_threads(plan, ctx, workers, opts.batch, life)
    return ctx


def _row_block(tiled: TiledMatrix, i: int, a: int, b: int,
               stacked: bool) -> np.ndarray:
    """Tile columns ``a .. b - 1`` of tile row ``i``: a 2-D view, or
    with ``stacked`` a ``(b - a, h, w)`` stack of its tiles (splitting
    the column axis is always a view)."""
    nb = tiled.nb
    x = tiled.array[i * nb:(i + 1) * nb, a * nb:b * nb]
    return x.reshape(len(x), b - a, -1).swapaxes(0, 1) if stacked else x


def _sequential_groups(graph: TaskGraph) -> np.ndarray:
    """Group bounds of sequential task mode: group ``g`` is tasks
    ``bounds[g] .. bounds[g + 1] - 1`` of the emission order.

    A factor task is a group of one.  A maximal stretch of consecutive
    update tasks that share kernel, ``row``, ``piv`` and ``col``, with
    ``j`` rising by one, is one group: the updates of one elimination
    block (:func:`~repro.dag.build.block_tables`).
    """
    codes, rows, pivs, cols, js = (graph.codes, graph.rows, graph.pivs,
                                   graph.cols, graph.js)
    upd = np.isin(codes, list(APPLY_CODES))
    start = np.ones(len(codes), dtype=bool)
    start[1:] = ~(upd[1:] & upd[:-1] & (codes[1:] == codes[:-1])
                  & (rows[1:] == rows[:-1]) & (pivs[1:] == pivs[:-1])
                  & (cols[1:] == cols[:-1]) & (js[1:] == js[:-1] + 1))
    return np.append(np.flatnonzero(start), len(codes))


def _run_sequential(ctx: ExecutionContext, life) -> None:
    """Emission order in the calling thread: each factor task one
    per-tile call (:meth:`ExecutionContext.run_task`), each stretch of
    its updates one apply call (:meth:`ExecutionContext.run_updates`),
    each recorded as one group."""
    graph = ctx.graph
    bounds = _sequential_groups(graph).tolist()
    codes, rows, pivs, cols, js = (graph.codes.tolist(), graph.rows.tolist(),
                                   graph.pivs.tolist(), graph.cols.tolist(),
                                   graph.js.tolist())
    if life is not None:
        life.run_start(1)
    for a, b in zip(bounds[:-1], bounds[1:]):
        code = codes[a]
        if life is not None:
            life.group_start(code, range(a, b), 0)
            t0 = time.perf_counter()
        if code in FACTOR_CODES:
            ctx.run_task(code, rows[a], pivs[a], cols[a])
        else:
            ctx.run_updates(code, rows[a], pivs[a], cols[a], js[a],
                            js[b - 1] + 1)
        if life is not None:
            life.group_done(code, range(a, b), 0, t0, time.perf_counter())
    if life is not None:
        life.run_done()


def _run_threads(plan, ctx: ExecutionContext, workers: int, batch,
                 life) -> None:
    """The thread transport: ``workers`` threads share one core.

    Each worker, under the one scheduler lock, retires the group it
    just ran (releasing successors in the core) and pops its next
    group, or waits on the lock's condition while the frontier is
    empty.  With ``W = workers``, a pop takes at most ``1 + max(0,
    len(core) - (W - 1))`` of the ``len(core)`` ready tasks, so it
    leaves ``W - 2`` of them to the other workers (all but one when
    fewer are ready), not one per other worker: with two workers a pop
    can take its kernel's whole ready set, up to the batch size.  The
    limit ``max(1, len(core) - (W - 1))``, which would leave one per
    other worker, made default two-worker runs of both perfbench
    workloads 7-9% slower (8 interleaved pairs each).  Groups execute outside the lock on a
    :class:`~repro.tiles.pool.TilePool` through the
    :class:`~repro.runtime.group_executor.GroupExecutor`, with the
    context's per-tile backend for the factor kernels, and are
    recorded into ``life`` outside the lock too.  The calling thread
    serves as worker 0.
    """
    graph, tiled, metrics = ctx.graph, ctx.tiled, ctx.metrics
    n, W = len(graph), workers
    weights = graph.index().weights
    batch_size = resolve_batch(batch, tiled.nb, float(weights.mean()),
                               workers=W)
    if metrics is not None:
        metrics.gauge("scheduler.batch.size", keep_samples=False).set(
            batch_size)
    core = FrontierCore(plan if plan is not None else graph, batch_size,
                        metrics)
    da = core.da
    pool = TilePool(tiled)
    # validates ib before any thread starts
    ex = GroupExecutor.on_pool(pool, da.nfactor, ctx.ib, ctx.backend)
    # each task's ready stamp, for the lifecycle's queue waits
    ready_at = None
    if life is not None:
        ready_at = np.zeros(n)
        ready_at[core.sources] = time.perf_counter()
    wake = threading.Condition(threading.Lock())
    state = {"done": 0, "inflight": 0}
    errors: list[BaseException] = []

    def worker(widx: int) -> None:
        grp = None  # tids of the group this worker just ran
        while True:
            if metrics is not None:
                t_req = time.perf_counter()
            with wake:
                if metrics is not None:
                    t_in = time.perf_counter()
                if grp is not None:
                    state["inflight"] -= len(grp)
                    state["done"] += len(grp)
                    newly = core.retire(grp)
                    if ready_at is not None and newly.size:
                        ready_at[newly] = time.perf_counter()
                while not errors and state["done"] < n and not len(core):
                    wake.wait()
                stop = bool(errors) or state["done"] == n
                if not stop:
                    code, tids = core.pop(
                        limit=1 + max(0, len(core) - (W - 1)))
                    state["inflight"] += len(tids)
                frontier = len(core)
                depth = state["inflight"] + frontier
                if stop or frontier:
                    wake.notify_all()
            if metrics is not None:
                t_out = time.perf_counter()
                metrics.counter("scheduler.lock_wait_seconds").inc(
                    t_in - t_req)
                metrics.counter("scheduler.lock_hold_seconds").inc(
                    t_out - t_in)
                metrics.gauge("scheduler.inflight_tasks").set(depth, t=t_out)
                if grp is not None:
                    metrics.histogram(
                        "scheduler.newly_ready",
                        buckets=(0, 1, 2, 4, 8, 16, 32),
                    ).observe(len(newly))
            if life is not None and grp is not None:
                life.frontier(frontier, depth)
            if stop:
                return
            grp = np.asarray(tids, dtype=np.int64)
            try:
                if life is not None:
                    life.group_start(code, grp, widx)
                    t0 = time.perf_counter()
                ex.run(code, *da.take(grp))
                if life is not None:
                    life.group_done(code, grp, widx, t0,
                                    time.perf_counter(), ready_at[grp])
            except BaseException as exc:  # propagate to the caller
                with wake:
                    errors.append(exc)
                    wake.notify_all()
                return

    if life is not None:
        life.run_start(W)
        life.frontier(len(core), len(core))
    threads = [threading.Thread(target=worker, args=(w,), daemon=True,
                                name=f"repro-exec-{w}")
               for w in range(1, W)]
    for th in threads:
        th.start()
    try:
        worker(0)
    except BaseException as exc:  # e.g. an interrupt: stop the others
        with wake:
            errors.append(exc)
            wake.notify_all()
    for th in threads:
        th.join()
    if life is not None:
        life.run_done()
    if errors:
        raise errors[0]
    pool.scatter()
    record_tfactors(ctx, da, ex.tstore)
