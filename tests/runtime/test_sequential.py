"""Sequential task mode against the per-task loop it replaced.

Sequential task mode (``mode="task"``, ``workers`` ``None`` or 1) runs
the tasks in emission order: each factor task as one per-tile call and
each stretch of an elimination block's updates (same kernel, ``row``,
``piv`` and ``col``, ``j`` rising by one) as one apply call.
:func:`~tests.runtime.reference.reference_sequential` is the per-task
loop it replaced.  With the reference applies the two agree byte for
byte (the stacked apply computes each slice of a row-block view as
the one-tile call does); with LAPACK's applies, which take a whole
row block in one call, to rounding.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dag import build_dag
from repro.dag.tasks import TaskGraph
from repro.kernels.backend import get_backend
from repro.kernels.geqrt import TFactor
from repro.kernels.validate import checked_backend
from repro.runtime import ExecOptions, execute_graph
from repro.runtime.groups import APPLY_CODES, FACTOR_CODES
from repro.schemes.registry import get_scheme
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix
from tests.runtime.reference import reference_sequential

SCHEMES = ("greedy", "flat-tree", "fibonacci", "binary-tree",
           "plasma-tree(bs=3)")
DTYPES = (np.float64, np.complex128, np.float32, np.complex64)
NB = 4
IBS = (1, NB // 2, NB)
#: (m, n) of each tiling of a 7 x 4 grid of 4 x 4 tiles
TILINGS = {"exact": (28, 16), "ragged-rows": (26, 16),
           "ragged-cols": (28, 14), "ragged-both": (26, 14)}


def _graph(scheme: str, family: str) -> TaskGraph:
    return build_dag(get_scheme(scheme, 7, 4), family)


def _pair(g, a, ib, backend):
    """``(executor context, oracle context)`` of one run each."""
    ctx = execute_graph(g, TiledMatrix(a.copy(), NB),
                        ExecOptions(backend=backend), ib=ib)
    ref = reference_sequential(g, TiledMatrix(a.copy(), NB), backend, ib)
    return ctx, ref


def _t_blocks(t) -> list:
    return t.blocks if isinstance(t, TFactor) else [t.t]


def _compare(ctx, ref, c, close):
    """Apply ``close(got, want)`` to the factored arrays, every T block
    and ``Q^H c``."""
    close(ctx.tiled.array, ref.tiled.array)
    assert ctx.tfactors.keys() == ref.tfactors.keys()
    for key, t in ref.tfactors.items():
        got = _t_blocks(ctx.tfactors[key])
        want = _t_blocks(t)
        assert len(got) == len(want), key
        for x, y in zip(got, want):
            close(x, y)
    close(ctx.apply_q(c.copy()), ref.apply_q(c.copy()))


def _equal(x, y):
    assert x.dtype == y.dtype and np.array_equal(x, y)


def _within_1e12(x, y):
    assert np.abs(x - y).max(initial=0.0) <= 1e-12 * max(
        1.0, np.abs(y).max(initial=0.0))


def _stretches(g: TaskGraph) -> list[tuple[int, int]]:
    """``(first tid, tile columns)`` of each stretch, by a plain walk
    over the tasks."""
    out, prev = [], None
    for tid, (code, row, piv, col, j) in enumerate(zip(
            g.codes.tolist(), g.rows.tolist(), g.pivs.tolist(),
            g.cols.tolist(), g.js.tolist())):
        if code in FACTOR_CODES:
            prev = None
            continue
        if prev == (code, row, piv, col, j - 1):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((tid, 1))
        prev = (code, row, piv, col, j)
    return out


def _falling_updates(g: TaskGraph) -> TaskGraph:
    """``g`` with each block's updates emitted in falling ``j``: still
    a valid emission order (a block's updates are independent), but
    no two consecutive updates form a stretch."""
    starts = np.flatnonzero(np.isin(g.codes, list(FACTOR_CODES)))
    bounds = np.append(starts, len(g)).tolist()
    order = np.concatenate([[a, *range(b - 1, a, -1)]
                            for a, b in zip(bounds[:-1], bounds[1:])])
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    arr = g.to_arrays()
    deps = [inv[arr["dep_adj"][arr["dep_ptr"][t]:arr["dep_ptr"][t + 1]]]
            for t in order.tolist()]
    out = {k: arr[k][order] for k in ("kernel", "row", "piv", "col", "j",
                                      "weight")}
    out["dep_ptr"] = np.cumsum([0] + [d.size for d in deps])
    out["dep_adj"] = np.concatenate(deps).astype(np.int64)
    return TaskGraph(g.p, g.q, g.name, arrays=out)


@pytest.mark.parametrize("tiling", TILINGS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["TT", "TS"])
def test_reference_bytes_equal_per_task_loop(family, scheme, tiling):
    """Every dtype and ib: the factored array, every T block and
    ``Q^H c`` equal the per-task loop's bit for bit."""
    g = _graph(scheme, family)
    m, n = TILINGS[tiling]
    rng = np.random.default_rng(7)
    for dtype in DTYPES:
        a = random_matrix(rng, m, n, dtype)
        c = random_matrix(rng, m, 3, dtype)
        for ib in IBS:
            _compare(*_pair(g, a, ib, "reference"), c, _equal)


@pytest.mark.parametrize("tiling", TILINGS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["TT", "TS"])
def test_lapack_agrees_with_per_task_loop(family, scheme, tiling):
    """LAPACK's applies take a whole row block per call: float64
    results agree with the per-task loop within 1e-12, for the plain
    and the checked backend."""
    g = _graph(scheme, family)
    m, n = TILINGS[tiling]
    rng = np.random.default_rng(11)
    a = random_matrix(rng, m, n)
    c = random_matrix(rng, m, 3)
    for backend in ("lapack", checked_backend("lapack")):
        for ib in IBS:
            _compare(*_pair(g, a, ib, backend), c, _within_1e12)


def test_checked_reference_keeps_the_bytes():
    """A wrapped backend whose applies are the reference ones takes
    the stacked path too."""
    g = _graph("greedy", "TT")
    rng = np.random.default_rng(3)
    a = random_matrix(rng, 26, 14)
    c = random_matrix(rng, 26, 2)
    _compare(*_pair(g, a, 2, checked_backend("reference")), c, _equal)


def _spy(base):
    """``(backend, calls)``: ``base`` whose applies log the width of
    the tiles each call updates."""
    bk = get_backend(base)
    calls = []

    def wrap(name):
        fn = getattr(bk, name)

        def apply(*args, **kw):
            calls.append((name, args[-1].shape[1]))
            return fn(*args, **kw)
        return apply

    return replace(bk, name=f"spy({bk.name})", unmqr=wrap("unmqr"),
                   tsmqr=wrap("tsmqr"), ttmqr=wrap("ttmqr")), calls


@pytest.mark.parametrize("tiling", ["exact", "ragged-cols"])
@pytest.mark.parametrize("family", ["TT", "TS"])
def test_one_backend_apply_call_per_stretch(family, tiling):
    """One apply call per stretch, covering the stretch's tile columns
    (a ragged last column included), in stretch order."""
    g = _graph("greedy", family)
    m, n = TILINGS[tiling]
    bk, calls = _spy("lapack")
    tiled = TiledMatrix(random_matrix(np.random.default_rng(5), m, n), NB)
    execute_graph(g, tiled, ExecOptions(backend=bk), ib=2)
    want = [(g.label(t).split("(")[0].lower(),
             min(n, (g.js[t] + k) * NB) - g.js[t] * NB)
            for t, k in _stretches(g)]
    assert calls == want
    assert len(calls) < int(np.isin(g.codes, list(APPLY_CODES)).sum())


@pytest.mark.parametrize("family", ["TT", "TS"])
def test_falling_j_runs_one_call_per_update(family):
    """Consecutive updates of one block with falling ``j`` are no
    stretch: each runs alone, and the bytes still equal the per-task
    loop's."""
    g = _falling_updates(_graph("greedy", family))
    assert _stretches(g) == [(t, 1) for t in np.flatnonzero(
        np.isin(g.codes, list(APPLY_CODES))).tolist()]
    rng = np.random.default_rng(9)
    a = random_matrix(rng, 28, 16)
    _compare(*_pair(g, a, 2, "reference"), random_matrix(rng, 28, 2),
             _equal)
    bk, calls = _spy("lapack")
    execute_graph(g, TiledMatrix(a.copy(), NB), ExecOptions(backend=bk),
                  ib=2)
    assert len(calls) == len(_stretches(g))
