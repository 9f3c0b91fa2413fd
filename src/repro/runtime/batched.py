"""The inline transport: stacked groups in the calling thread (S20).

The task executors in :mod:`repro.runtime.executor` retire one tile
task at a time through Python, which caps real factorization speed far
below the hardware (Python overhead per small-tile kernel dominates).
This transport exploits the structural fact the paper builds on: the
ready tasks of one kernel type are mutually independent, so they can
run as *one* stacked kernel.  It

1. takes the frontier core's drain order (:func:`repro.runtime.groups.
   drain_groups`, memoized on the :class:`~repro.planner.Plan` as
   ``Plan.level_groups()``) — groups of same-kernel ready tasks, each
   group retired before the next is popped, so no level barrier;
2. gathers the tiles into a contiguous :class:`~repro.tiles.pool.
   TilePool` (ragged border tiles zero-padded — exact, see the pool
   docs), and
3. runs each group through the
   :class:`~repro.runtime.group_executor.GroupExecutor`: every apply
   group as stacked 3-D operations (:mod:`repro.kernels.batched`),
   factor groups as one stacked call with the reference backend and
   slice by slice with the per-tile LAPACK kernels otherwise.

Numerical contract: a group runs exactly as in the thread and process
transports, so with either backend ``R`` is byte-equal to theirs.
With the reference backend on an exactly tiled matrix it is also
byte-equal to sequential task mode's, which runs the same per-slice
arithmetic on the tile views; ragged border tiles run zero-padded
here, and agree with the sequential run to rounding (``~1e-12 *
||A||`` for the reconstructed ``Q @ R``), as LAPACK runs do.

The returned :class:`~repro.runtime.executor.ExecutionContext` carries
per-task ``T`` factors sliced to each tile's valid shape, so
``apply_q`` / ``apply_q_right`` replay ``Q`` exactly as for the task
executors.
"""

from __future__ import annotations

import time

from ..kernels.backend import REFERENCE
from ..obs.metrics import MetricsRegistry
from ..tiles.layout import TiledMatrix
from ..tiles.pool import TilePool
from .executor import ExecutionContext, _prepare
from .group_executor import GroupExecutor, record_tfactors
from .groups import SIZE_BUCKETS, dispatch_arrays, drain_groups
from .options import ExecOptions, resolve_backend

__all__ = ["execute_batched"]


def execute_batched(
    graph,
    tiled: TiledMatrix,
    options: ExecOptions | None = None,
    *,
    ib: int = 32,
    on_task_done=None,
    tracer=None,
    metrics: MetricsRegistry | None = None,
    bus=None,
) -> ExecutionContext:
    """Run a factorization DAG with the inline transport.

    Usually reached via ``execute_graph`` with
    ``ExecOptions(mode="batched")``; see the module docstring for
    semantics and :func:`~repro.runtime.execute_graph` for the other
    parameters.  ``graph`` may be a
    :class:`~repro.dag.tasks.TaskGraph` or a
    :class:`~repro.planner.Plan` (whose memoized drain order is
    reused).  Of ``options`` only ``backend`` applies: it picks the
    factor kernels (:func:`~repro.runtime.options.resolve_backend`).
    """
    opts = ExecOptions() if options is None else options
    bk = resolve_backend(opts.backend, "batched", tiled.array.dtype)
    # Q replays with the reference kernels: the stacked applies read
    # either backend's T as panel blocks
    plan, ctx, life = _prepare(graph, tiled, REFERENCE, ib, tracer,
                               metrics, bus, on_task_done, 1)
    g, metrics = ctx.graph, ctx.metrics
    if metrics is not None:
        metrics.counter(f"batched.backend.{bk.name}").inc()
    if len(g) == 0:
        return ctx
    if plan is not None and hasattr(plan, "level_groups"):
        groups, da = plan.level_groups(), plan.dispatch_arrays()
    else:
        groups, da = drain_groups(g), dispatch_arrays(g)

    pool = TilePool(tiled)
    ex = GroupExecutor.on_pool(pool, da.nfactor, ctx.ib, bk)
    if life is not None:
        life.run_start(1)
    for code, tids in groups:
        if life is not None:
            life.group_start(code, tids, 0)
            t0 = time.perf_counter()
        ex.run(code, *da.take(tids))
        if life is not None:
            life.group_done(code, tids, 0, t0, time.perf_counter())
        if metrics is not None:
            metrics.counter("batched.groups").inc()
            metrics.histogram("batched.group_size",
                              buckets=SIZE_BUCKETS).observe(len(tids))
    pool.scatter()
    record_tfactors(ctx, da, ex.tstore)
    if life is not None:
        life.run_done()
    return ctx
