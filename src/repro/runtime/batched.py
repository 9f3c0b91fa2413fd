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
   :class:`~repro.runtime.group_executor.GroupExecutor` as one
   sequence of stacked 3-D operations (:mod:`repro.kernels.batched`).

Numerical contract: each task's result agrees with the reference
backend to rounding (``~1e-12 * ||A||`` for the reconstructed
``Q @ R``); bitwise identity is *not* guaranteed because batched
reductions may associate differently.

The returned :class:`~repro.runtime.executor.ExecutionContext` carries
per-task ``T`` factors sliced to each tile's valid shape, so
``apply_q`` / ``apply_q_right`` replay ``Q`` exactly as for the task
executors.
"""

from __future__ import annotations

import time

from ..dag.tasks import KERNEL_CODES
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
    stacked factor kernels (:func:`~repro.runtime.options.
    resolve_backend`).  ``bus`` receives ``run_start``/``run_done``
    and ``group_start``/``group_done`` per group — ``count`` is the
    group size, ``value`` the group seconds.
    """
    opts = ExecOptions() if options is None else options
    bk = resolve_backend(opts.backend, "batched", tiled.array.dtype)
    # the T store is in panel layout: Q replays with the reference kernels
    plan, ctx, bus = _prepare(graph, tiled, REFERENCE, ib, tracer,
                              metrics, bus, 1)
    g, tracer, metrics = ctx.graph, ctx.tracer, ctx.metrics
    observed = tracer is not None or metrics is not None
    timed = observed or bus is not None
    ntasks = len(g)
    if metrics is not None:
        metrics.counter(f"batched.backend.{bk.name}").inc()
    if ntasks == 0:
        return ctx
    if plan is not None and hasattr(plan, "level_groups"):
        groups, da = plan.level_groups(), plan.dispatch_arrays()
    else:
        groups, da = drain_groups(g), dispatch_arrays(g)

    pool = TilePool(tiled)
    ex = GroupExecutor.on_pool(pool, da.nfactor, ctx.ib, bk, stacked=True)
    done_count = 0
    if bus is not None:
        bus.publish("run_start", total=ntasks, count=1,
                    problem=getattr(g, "problem", "") or "")
    for code, tids in groups:
        name, k = KERNEL_CODES[code].value, len(tids)
        if bus is not None:
            bus.publish("group_start", kernel=name, count=k, worker=0)
        if timed:
            t0 = time.perf_counter()
        ex.run(code, *da.take(tids))
        if timed:
            t1 = time.perf_counter()
        if bus is not None:
            bus.publish("group_done", kernel=name, count=k, worker=0,
                        value=t1 - t0)
        if tracer is not None:
            # one span per group, placed at its first member
            rel = t0 - tracer.epoch
            span = tracer.record(g.tasks[int(tids[0])], rel, rel,
                                 t1 - tracer.epoch, count=k)
            span.name = f"{name}[x{k}]"
        if metrics is not None:
            metrics.counter(f"tasks.retired.{name}").inc(k)
            metrics.histogram(f"kernel.seconds.{name}").observe(t1 - t0)
            metrics.counter("batched.groups").inc()
            metrics.histogram("batched.group_size",
                              buckets=SIZE_BUCKETS).observe(k)
        if on_task_done is not None:
            for tid in tids.tolist():
                done_count += 1
                on_task_done(g.tasks[tid], done_count, ntasks)
        else:
            done_count += k
    pool.scatter()
    record_tfactors(ctx, da, ex.tstore, ex.compact)
    if bus is not None:
        bus.publish("run_done", count=done_count, value=bus.now())
    return ctx
