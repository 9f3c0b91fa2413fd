"""The emission-order Q replay ``apply_q`` replaced, kept as its oracle.

:meth:`~repro.runtime.executor.ExecutionContext.apply_q` now replays
the panel tasks group by group in the frontier core's drain order and
stacks full-tile groups.  :func:`reference_replay` is the loop it
replaced: one per-tile call per panel task, in emission order, with
the context's own backend.  The tests compare against it byte for
byte.
"""

from __future__ import annotations

import numpy as np

from repro.dag.tasks import KERNEL_CODES
from repro.kernels.costs import Kernel
from repro.runtime.groups import FACTOR_CODES


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
