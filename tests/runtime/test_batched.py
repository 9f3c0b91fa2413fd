"""Batched backend end-to-end equivalence + the priority executor.

The acceptance bar: ``execute_graph`` with ``ExecOptions(mode="batched")``
reconstructs ``Q @ R`` within ``1e-10`` relative error of the reference
backend on every scheme family, square and tall grids, ragged edges,
and all inner blocking sizes.
"""

import numpy as np
import pytest

from repro.api import factor, plan
from repro.dag.tasks import Kernel
from repro.kernels.backend import REFERENCE
from repro.obs import MetricsRegistry
from repro.runtime import ExecOptions, execute_graph
from repro.runtime.executor import _clamp_ib
from repro.runtime.options import resolve_backend
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix

NB = 8
SCHEMES = ["greedy", "fibonacci", "flat-tree", "binary-tree",
           "plasma(bs=2)", "asap"]


def rel_err(x, y, a):
    return np.linalg.norm(x - y) / max(np.linalg.norm(a), 1e-300)


def assert_equivalent(a, nb=NB, ib=4, backend=None, **kw):
    """Batched run (``backend`` for its factor kernels) against the
    sequential reference kernels: the bytes of R where the batched run
    also runs the reference kernels on an exact tiling, else within
    rounding."""
    f_ref = factor(a, nb=nb, ib=ib, **kw)
    f_bat = factor(a, nb=nb, ib=ib, mode="batched", backend=backend, **kw)
    if (resolve_backend(backend, "batched", a.dtype) is REFERENCE
            and a.shape[0] % nb == 0 and a.shape[1] % nb == 0):
        assert f_bat.r().tobytes() == f_ref.r().tobytes()
    assert rel_err(f_bat.r(), f_ref.r(), a) < 1e-10
    assert f_bat.residual(a) < 1e-10
    assert f_bat.orthogonality() < 1e-10
    return f_bat


class TestBatchedFactorization:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("family", ["TT", "TS"])
    def test_all_schemes_families(self, rng, scheme, family):
        a = np.asarray(random_matrix(rng, 7 * NB, 3 * NB, np.float64))
        assert_equivalent(a, scheme=scheme, family=family)

    @pytest.mark.parametrize("shape", [(64, 64), (96, 32), (70, 33),
                                       (61, 61), (50, 17)])
    def test_square_tall_ragged(self, rng, dtype, shape):
        a = np.asarray(random_matrix(rng, *shape, dtype))
        assert_equivalent(a, scheme="greedy")

    @pytest.mark.parametrize("ib", [1, NB // 2, NB])
    def test_inner_blocking(self, rng, dtype, ib):
        a = np.asarray(random_matrix(rng, 70, 33, dtype))
        assert_equivalent(a, ib=ib, scheme="greedy")

    def test_apply_q_roundtrip(self, rng, dtype):
        """The batched context's T factors drive apply_q correctly."""
        a = np.asarray(random_matrix(rng, 70, 33, dtype))
        f = factor(a, nb=NB, ib=4, scheme="greedy", mode="batched")
        x = np.asarray(random_matrix(rng, 70, 3, dtype))
        y = f.q_matmul(f.qh_matmul(x))
        assert np.allclose(y, x, atol=1e-10)
        # right-side application too
        z = np.asarray(random_matrix(rng, 3, 70, dtype))
        w = f.matmul_q(f.matmul_q(z, adjoint=True))
        assert np.allclose(w, z, atol=1e-10)

    def test_mode_validation(self, rng):
        a = np.asarray(random_matrix(rng, 32, 16, np.float64))
        with pytest.raises(ValueError, match="mode"):
            factor(a, nb=NB, mode="warp")


class TestBatchedObservability:
    def _run(self, rng, **kw):
        from repro.obs.tracer import Tracer

        a = np.asarray(random_matrix(rng, 48, 24, np.float64))
        work = np.zeros((48, 24))
        work[...] = a
        tiled = TiledMatrix(work, NB)
        pl = plan(6, 3, "greedy")
        tracer = Tracer()
        ctx = execute_graph(pl, tiled, ExecOptions(mode="batched"), ib=4,
                            tracer=tracer, metrics=MetricsRegistry(), **kw)
        return pl, tracer, ctx

    def test_group_spans_and_metrics(self, rng):
        pl, tracer, ctx = self._run(rng)
        m = ctx.metrics
        groups = pl.level_groups()
        assert len(tracer) == len(groups)
        assert m.counter("batched.groups").value == len(groups)
        retired = sum(m.counter(f"tasks.retired.{k.value}").value
                      for k in Kernel)
        assert retired == len(pl.graph.tasks)
        hist = m.get("batched.group_size")
        assert hist is not None and hist.count == len(groups)
        # span names carry the group size
        assert "[x" in tracer.spans[0].name

    def test_analyze_tracer_consumes_group_spans(self, rng):
        from repro.obs.analyze import analyze_tracer

        pl, tracer, _ = self._run(rng)
        report = analyze_tracer(tracer)
        # tasks, not spans: each group span covers its members
        assert report.tasks == len(pl.graph.tasks) > len(tracer)
        assert sum(k.count for k in report.kernels) == len(pl.graph.tasks)
        assert report.makespan > 0

    def test_on_task_done_sees_every_task(self, rng):
        seen = []
        pl, _, _ = self._run(
            rng, on_task_done=lambda t, i, n: seen.append((t.tid, i, n)))
        n = len(pl.graph.tasks)
        assert len(seen) == n
        assert seen[-1][1:] == (n, n)
        assert sorted(t for t, _, _ in seen) == list(range(n))


class TestPriorityExecutor:
    def _factor_threaded(self, rng, graph_or_plan, a):
        work = a.copy()
        tiled = TiledMatrix(work, NB)
        ctx = execute_graph(graph_or_plan, tiled, ExecOptions(workers=4),
                            ib=4, metrics=MetricsRegistry())
        return work, ctx.metrics

    def test_priority_correct_and_counts_inversions(self, rng):
        a = np.asarray(random_matrix(rng, 96, 48, np.float64))
        pl = plan(12, 6, "greedy")
        work, m = self._factor_threaded(rng, pl, a)
        f_ref = factor(a, nb=NB, ib=4, scheme="greedy")
        assert rel_err(np.triu(work[:48, :48]), f_ref.r(), a) < 1e-12
        # a 12 x 6 greedy DAG on 4 workers must reorder vs FIFO sometimes
        assert m.counter("scheduler.priority_inversions_avoided").value > 0

    def test_fifo_fallback_without_plan(self, rng):
        a = np.asarray(random_matrix(rng, 96, 48, np.float64))
        pl = plan(12, 6, "greedy")
        work, m = self._factor_threaded(rng, pl.graph, a)  # raw TaskGraph
        f_ref = factor(a, nb=NB, ib=4, scheme="greedy")
        assert rel_err(np.triu(work[:48, :48]), f_ref.r(), a) < 1e-12
        # FIFO keys make the heap pop in push order: no inversions
        assert m.counter("scheduler.priority_inversions_avoided").value == 0

    def test_bottom_levels_memoized(self):
        pl = plan(6, 3, "greedy")
        bl = pl.bottom_levels()
        assert pl.bottom_levels() is bl
        assert bl.shape == (len(pl.graph.tasks),)


class TestIbClamp:
    def test_clamp_helper(self):
        assert _clamp_ib(32, 8, None) == 8
        assert _clamp_ib(4, 8, None) == 4
        assert _clamp_ib(0, 8, None) == 0  # invalid ib passes through

    @pytest.mark.parametrize("mode", ["task", "batched"])
    def test_oversized_ib_clamped_and_counted(self, rng, mode):
        a = np.asarray(random_matrix(rng, 48, 24, np.float64))
        work = a.copy()
        tiled = TiledMatrix(work, NB)
        pl = plan(6, 3, "greedy")
        ctx = execute_graph(pl, tiled, ExecOptions(mode=mode), ib=100,
                            metrics=MetricsRegistry())
        assert ctx.ib == NB
        assert ctx.metrics.counter("executor.ib_clamped").value == 1
        f_ref = factor(a, nb=NB, ib=NB, scheme="greedy")
        assert rel_err(np.triu(work[:24, :24]), f_ref.r(), a) < 1e-10


class TestNumericPaths:
    """The inline transport's factor kernels per backend: stacked
    NumPy (reference) or fixed-up per-slice LAPACK."""

    @pytest.mark.parametrize("shape", [(64, 64), (70, 33), (50, 17)])
    @pytest.mark.parametrize("family", ["TT", "TS"])
    def test_numpy_lapack_agree(self, rng, shape, family):
        a = np.asarray(random_matrix(rng, *shape, np.float64))
        f_np = factor(a, nb=NB, ib=4, scheme="greedy", family=family,
                      mode="batched", backend="reference")
        f_la = factor(a, nb=NB, ib=4, scheme="greedy", family=family,
                      mode="batched", backend="lapack")
        assert rel_err(f_la.r(), f_np.r(), a) < 1e-10
        assert f_la.residual(a) < 1e-10
        assert f_la.orthogonality() < 1e-10

    @pytest.mark.parametrize("backend", ["reference", "lapack"])
    def test_explicit_numeric_matches_reference(self, rng, backend):
        a = np.asarray(random_matrix(rng, 70, 33, np.float64))
        assert_equivalent(a, scheme="greedy", backend=backend)

    def test_lapack_rejects_complex(self, rng):
        a = np.asarray(random_matrix(rng, 32, 16, np.complex128))
        with pytest.raises(ValueError, match="lapack"):
            factor(a, nb=NB, ib=4, scheme="greedy", mode="batched",
                   backend="lapack")

    def test_auto_on_complex_uses_numpy(self, rng):
        a = np.asarray(random_matrix(rng, 48, 24, np.complex128))
        work = a.copy()
        tiled = TiledMatrix(work, NB)
        pl = plan(6, 3, "greedy")
        ctx = execute_graph(pl, tiled, ExecOptions(mode="batched"), ib=4,
                            metrics=MetricsRegistry())
        assert ctx.metrics.counter("batched.backend.reference").value == 1
        assert ctx.metrics.counter("batched.backend.lapack").value == 0

    def test_auto_on_real_uses_lapack(self, rng):
        a = np.asarray(random_matrix(rng, 48, 24, np.float64))
        tiled = TiledMatrix(a.copy(), NB)
        pl = plan(6, 3, "greedy")
        ctx = execute_graph(pl, tiled, ExecOptions(mode="batched"), ib=4,
                            metrics=MetricsRegistry())
        assert ctx.metrics.counter("batched.backend.lapack").value == 1

    def test_bad_backend_rejected(self, rng):
        a = np.asarray(random_matrix(rng, 32, 16, np.float64))
        with pytest.raises(ValueError, match="backend"):
            factor(a, nb=NB, ib=4, scheme="greedy", mode="batched",
                   backend="fused")

    def test_lapack_preserves_tt_cohabitation(self, rng):
        """TTQRT's LAPACK path must not clobber the GEQRT vectors that
        share the zeroed tile's strictly lower triangle."""
        a = np.asarray(random_matrix(rng, 8 * NB, 4 * NB, np.float64))
        f = factor(a, nb=NB, ib=4, scheme="binary-tree", family="TT",
                   mode="batched", backend="lapack")
        # apply_q replays those vectors; residual catches any damage
        assert f.residual(a) < 1e-10
        assert f.orthogonality() < 1e-10
