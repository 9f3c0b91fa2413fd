"""``apply_q`` replays Q in drain groups, byte-identical to task order.

:meth:`~repro.runtime.executor.ExecutionContext.apply_q` runs the
panel tasks group by group in the frontier core's drain order and
stacks each full-tile group into one kernel call when the context
replays with the reference kernels and the right-hand side is at most
``REPLAY_STACK_TILES`` tiles wide (``apply_q_right``: the left-hand
operand at most that many tiles tall).  Every case here compares its bytes
with the emission-order loop it replaced (``tests/runtime/reference.py``),
over every transport, kernel family, elimination tree, dtype, exact and
ragged tilings, and right-hand-side widths on both sides of the limit.
"""

import numpy as np
import pytest

from repro.api import factor, plan
from repro.runtime import ExecOptions, ProcessPool, execute_graph
from repro.runtime.executor import REPLAY_STACK_TILES, ExecutionContext
from repro.runtime.groups import FACTOR_CODES, drain_groups
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix
from tests.runtime.reference import reference_replay

NB, IB = 8, 4
LIMIT = REPLAY_STACK_TILES * NB
WIDTHS = (1, NB, LIMIT, LIMIT + 1, 4 * NB)
SCHEMES = ("greedy", "flat-tree", "fibonacci", "binary-tree",
           "plasma-tree(bs=3)")
DTYPES = {"float64": np.float64, "complex128": np.complex128,
          "float32": np.float32, "complex64": np.complex64}
#: exactly tiled (6 x 3 tiles) and ragged in both dimensions — a last
#: tile row shorter than the tile width too, which the per-tile LAPACK
#: kernels (task ``backend="lapack"``, process mode on real matrices)
#: replay from its reflector columns alone
SHAPES = {"exact": (48, 24), "ragged": (45, 21)}
MODES = {
    "sequential": dict(mode="task"),
    "thread": dict(mode="task", workers=2),
    "inline": dict(mode="batched"),
    "inline-reference": dict(mode="batched", backend="reference"),
    "lapack": dict(mode="task", backend="lapack"),
    "process": dict(mode="process"),
}


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2, start_method="fork") as p:
        yield p


def keywords(mode: str, pool) -> dict:
    """The mode's ``ExecOptions`` fields, with the module's pool."""
    kw = dict(MODES[mode])
    if mode == "process":
        kw["pool"] = pool
    return kw


def execute(a, mode, pool, scheme="greedy", family="TT", bare=False):
    """Factor ``a`` through ``execute_graph`` (ragged tilings stay
    ragged); ``bare`` hands the executor the plan's TaskGraph."""
    tiled = TiledMatrix(a.copy(), NB)
    pl = plan(tiled.p, tiled.q, scheme, family)
    return execute_graph(pl.graph if bare else pl, tiled,
                         ExecOptions(**keywords(mode, pool)), ib=IB)


def same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and \
        x.tobytes() == y.tobytes()


def assert_replays_match(ctx, rng, dtype=np.float64) -> None:
    """Both directions from the left at every width, and both from
    the right at every height, byte for byte against the
    emission-order oracle."""
    m = ctx.tiled.m
    for w in WIDTHS:
        c = random_matrix(rng, m, w, dtype)
        for adjoint in (True, False):
            got = ctx.apply_q(c.copy(), adjoint=adjoint)
            want = reference_replay(ctx, c.copy(), adjoint)
            assert same_bytes(got, want), (w, adjoint)
    for h in WIDTHS:
        c = random_matrix(rng, h, m, dtype)
        for adjoint in (True, False):
            got = ctx.apply_q_right(c.copy(), adjoint=adjoint)
            want = reference_replay(ctx, c.copy(), adjoint, side="R")
            assert same_bytes(got, want), ("R", h, adjoint)


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("mode", list(MODES))
def test_every_tree_and_transport(rng, pool, mode, family, scheme, shape):
    a = random_matrix(rng, *SHAPES[shape])
    assert_replays_match(execute(a, mode, pool, scheme, family), rng)


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("dtype", list(DTYPES))
@pytest.mark.parametrize("mode", list(MODES))
def test_every_dtype(rng, pool, mode, dtype, shape):
    dt = DTYPES[dtype]
    for family in ("TT", "TS"):
        a = random_matrix(rng, *SHAPES[shape], dt)
        assert_replays_match(execute(a, mode, pool, family=family), rng,
                             dt)


def panel_rows(groups, graph) -> list:
    return [(code, graph.rows[tids].tolist()) for code, tids in groups
            if code in FACTOR_CODES]


@pytest.mark.parametrize("family", ["TT", "TS"])
def test_bare_task_graph_context(rng, family):
    """A context built from a Plan replays in the plan's memoized
    drain order; one built from the bare TaskGraph drains the graph
    once (FIFO keys: no plan, no bottom levels)."""
    a = random_matrix(rng, 48, 24)
    from_plan = execute(a, "sequential", None, family=family)
    bare = execute(a, "sequential", None, family=family, bare=True)
    assert bare.plan is None and from_plan.plan is not None
    assert_replays_match(bare, rng)
    for ctx, groups in ((from_plan, from_plan.plan.level_groups()),
                        (bare, drain_groups(bare.graph))):
        assert [(grp.code, grp.rows.tolist())
                for grp in ctx.panel_groups()] == \
            panel_rows(groups, ctx.graph)
    assert bare.panel_groups() is bare.panel_groups()  # drained once


@pytest.mark.parametrize("family", ["TT", "TS"])
@pytest.mark.parametrize("mode", list(MODES))
def test_factorization_calls(rng, pool, monkeypatch, mode, family):
    """``qh_matmul``, ``q_matmul``, ``solve_lstsq`` and ``matmul_q``
    equal the same calls with the context's ``apply_q`` and
    ``apply_q_right`` swapped for the oracle."""
    a = random_matrix(rng, 45, 21)
    f = factor(a, nb=NB, ib=IB, family=family, **keywords(mode, pool))
    rhs = [random_matrix(rng, 45, 1, a.dtype)[:, 0],
           random_matrix(rng, 45, LIMIT), random_matrix(rng, 45, 4 * NB)]
    lhs = [random_matrix(rng, h, 45) for h in (1, LIMIT, 4 * NB)]

    def calls():
        return ([(f.qh_matmul(b), f.q_matmul(b), f.solve_lstsq(b))
                 for b in rhs]
                + [(f.matmul_q(c), f.matmul_q(c, adjoint=True))
                   for c in lhs])

    got = calls()
    ctx = f.context
    monkeypatch.setattr(ctx, "apply_q", lambda c, adjoint=True:
                        reference_replay(ctx, c, adjoint))
    monkeypatch.setattr(ctx, "apply_q_right", lambda c, adjoint=False:
                        reference_replay(ctx, c, adjoint, side="R"))
    want = calls()
    for g3, w3 in zip(got, want):
        for g, w in zip(g3, w3):
            assert same_bytes(g, w)


class TestWhichGroupsStack:
    """The stacked path runs exactly where it is byte-identical."""

    @pytest.fixture
    def stacked(self, monkeypatch):
        calls = []
        real = ExecutionContext._apply_stacked

        def spy(self, grp, *args):
            calls.append(grp)
            return real(self, grp, *args)

        monkeypatch.setattr(ExecutionContext, "_apply_stacked", spy)
        return calls

    def test_reference_context_stacks_up_to_the_limit(self, rng, stacked):
        ctx = execute(random_matrix(rng, 48, 24), "sequential", None)
        groups = ctx.panel_groups()
        assert all(grp.full for grp in groups)
        for w in (1, LIMIT):
            stacked.clear()
            ctx.apply_q(random_matrix(rng, 48, w))
            assert len(stacked) == len(groups)
            stacked.clear()
            ctx.apply_q_right(random_matrix(rng, w, 48))
            assert len(stacked) == len(groups)
        stacked.clear()
        ctx.apply_q(random_matrix(rng, 48, LIMIT + 1))
        ctx.apply_q_right(random_matrix(rng, LIMIT + 1, 48))
        assert not stacked

    def test_ragged_groups_stay_per_tile(self, rng, stacked):
        ctx = execute(random_matrix(rng, 45, 21), "sequential", None)
        groups = ctx.panel_groups()
        ragged = [grp for grp in groups if not grp.full]
        assert ragged and len(ragged) < len(groups)
        ctx.apply_q(random_matrix(rng, 45, 1))
        assert len(stacked) == len(groups) - len(ragged)
        assert all(grp.full for grp in stacked)

    @pytest.mark.parametrize("mode", ["lapack", "process"])
    def test_compact_t_stays_per_tile(self, rng, pool, stacked, mode):
        ctx = execute(random_matrix(rng, 48, 24), mode, pool)
        ctx.apply_q(random_matrix(rng, 48, 1))
        assert not stacked
