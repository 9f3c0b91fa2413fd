"""Per-task loops the runtime replaced, kept as oracles.

* :meth:`~repro.runtime.executor.ExecutionContext.apply_q` replays the
  panel tasks group by group in the frontier core's drain order and
  stacks full-tile groups.  :func:`reference_replay` is the loop it
  replaced: one per-tile call per panel task, in emission order, with
  the context's own backend.
* Sequential task mode runs each stretch of an elimination block's
  updates as one apply call.  :func:`reference_sequential` is the loop
  it replaced: one per-tile kernel call per task, in emission order.

The tests compare against them byte for byte, and sequential LAPACK
runs, whose applies take whole row blocks, to 1e-12.
"""

from __future__ import annotations

import numpy as np

from repro.dag.tasks import KERNEL_CODES
from repro.kernels.backend import get_backend
from repro.kernels.costs import Kernel
from repro.runtime.executor import ExecutionContext
from repro.runtime.groups import FACTOR_CODES, unwrap_graph


def reference_replay(ctx, c: np.ndarray, adjoint: bool,
                     side: str = "L") -> np.ndarray:
    """Apply ``op(Q)`` of ``ctx`` to ``c`` in place, task by task.

    ``side="L"`` computes ``op(Q) @ c`` on row blocks of ``c``,
    ``"R"`` ``c @ op(Q)`` on column blocks.
    """
    nb, m = ctx.tiled.nb, ctx.tiled.m
    bk, tiles, tf = ctx.backend, ctx.tiled, ctx.tfactors

    def block(i: int) -> np.ndarray:
        rows = slice(i * nb, min((i + 1) * nb, m))
        return c[rows, :] if side == "L" else c[:, rows]

    g = ctx.graph
    panel = np.flatnonzero(np.isin(g.codes, list(FACTOR_CODES)))
    # Q^H from the left and Q from the right run in emission order
    if adjoint != (side == "L"):
        panel = panel[::-1]
    for code, row, piv, col in zip(g.codes[panel].tolist(),
                                   g.rows[panel].tolist(),
                                   g.pivs[panel].tolist(),
                                   g.cols[panel].tolist()):
        kernel = KERNEL_CODES[code]
        if kernel is Kernel.GEQRT:
            bk.unmqr(tiles.tile(row, col), tf[(row, col, "ge")],
                     block(row), adjoint=adjoint, side=side)
        elif kernel is Kernel.TSQRT:
            bk.tsmqr(tiles.tile(row, col), tf[(row, col, "ts")],
                     block(piv), block(row), adjoint=adjoint, side=side)
        else:
            bk.ttmqr(tiles.tile(row, col), tf[(row, col, "tt")],
                     block(piv), block(row), adjoint=adjoint, side=side)
    return c


def reference_sequential(graph, tiled, backend="reference",
                         ib: int = 32) -> ExecutionContext:
    """Run ``graph`` (a TaskGraph or Plan) on ``tiled`` in place, one
    per-tile kernel call per task in emission order; returns the
    context, its T factors filed like sequential task mode's."""
    g, plan = unwrap_graph(graph)
    ctx = ExecutionContext(tiled=tiled, graph=g, backend=get_backend(backend),
                           ib=ib, plan=plan)
    bk, tiles, tf = ctx.backend, tiled, ctx.tfactors
    for code, row, piv, col, j in zip(g.codes.tolist(), g.rows.tolist(),
                                      g.pivs.tolist(), g.cols.tolist(),
                                      g.js.tolist()):
        kernel = KERNEL_CODES[code]
        if kernel is Kernel.GEQRT:
            tf[(row, col, "ge")] = bk.geqrt(tiles.tile(row, col), ib)
        elif kernel is Kernel.UNMQR:
            bk.unmqr(tiles.tile(row, col), tf[(row, col, "ge")],
                     tiles.tile(row, j))
        elif kernel is Kernel.TSQRT:
            tf[(row, col, "ts")] = bk.tsqrt(
                tiles.tile(piv, col), tiles.tile(row, col), ib)
        elif kernel is Kernel.TSMQR:
            bk.tsmqr(tiles.tile(row, col), tf[(row, col, "ts")],
                     tiles.tile(piv, j), tiles.tile(row, j))
        elif kernel is Kernel.TTQRT:
            tf[(row, col, "tt")] = bk.ttqrt(
                tiles.tile(piv, col), tiles.tile(row, col), ib)
        else:
            bk.ttmqr(tiles.tile(row, col), tf[(row, col, "tt")],
                     tiles.tile(piv, j), tiles.tile(row, j))
    return ctx
