"""Process-backend end-to-end equivalence + pool mechanics.

The acceptance bar: ``execute_graph`` with ``ExecOptions(mode="process")``
reconstructs ``Q @ R`` within ``~1e-12 * ||A||`` of the reference
backend across the equivalence grid (schemes x families x ragged
shapes x inner blockings), under both the fork and spawn start
methods, with the rolling ready-frontier replacing the batched
backend's level barrier.

A module-scoped fork pool is shared by the grid tests — which is
itself the pool-reuse test: dozens of factorizations through one set
of worker processes.
"""

import numpy as np
import pytest

from repro.api import factor, plan
from repro.obs import MetricsRegistry
from repro.runtime import ExecOptions, ProcessPool, execute_process, procpool
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix, shm_entries

NB = 8
SCHEMES = ["greedy", "fibonacci", "flat-tree", "binary-tree",
           "plasma(bs=2)", "asap"]
RAGGED = [(64, 64), (96, 32), (70, 33), (61, 61), (50, 17)]


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2, start_method="fork") as p:
        yield p


def rel_err(x, y, a):
    return np.linalg.norm(x - y) / max(np.linalg.norm(a), 1e-300)


def assert_equivalent(a, pool, nb=NB, ib=4, backend="lapack", **kw):
    """Process run vs the task-mode run of the *same kernel backend*.

    R is compared against the task-mode run of the same backend; the
    Q @ R residual and orthogonality bounds hold regardless.  The default
    is what process mode runs by default on real matrices.
    """
    f_ref = factor(a, nb=nb, ib=ib, backend=backend, **kw)
    f_pro = factor(a, nb=nb, ib=ib, mode="process", pool=pool,
                   backend=backend, **kw)
    assert rel_err(f_pro.r(), f_ref.r(), a) < 1e-12
    assert f_pro.residual(a) < 1e-12
    assert f_pro.orthogonality() < 1e-12
    return f_pro


class TestProcessFactorization:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("family", ["TT", "TS"])
    def test_all_schemes_families(self, rng, pool, scheme, family):
        a = random_matrix(rng, 64, 32, np.float64)
        assert_equivalent(a, pool, scheme=scheme, family=family)

    @pytest.mark.parametrize("shape", RAGGED)
    def test_ragged_shapes(self, rng, pool, shape):
        a = random_matrix(rng, *shape, np.float64)
        assert_equivalent(a, pool, scheme="greedy")

    @pytest.mark.parametrize("ib", [1, NB // 2, NB])
    def test_inner_blockings(self, rng, pool, ib):
        a = random_matrix(rng, 70, 33, np.float64)
        assert_equivalent(a, pool, ib=ib, scheme="greedy")

    @pytest.mark.parametrize("backend", ["reference", "lapack"])
    def test_numeric_paths(self, rng, pool, backend):
        a = random_matrix(rng, 70, 33, np.float64)
        assert_equivalent(a, pool, scheme="fibonacci", family="TS",
                          backend=backend)

    def test_default_backend_is_lapack_on_real(self, rng, pool):
        a = random_matrix(rng, 48, 24, np.float64)
        reg = MetricsRegistry()
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool, metrics=reg)
        assert f.context.backend.name == "lapack"
        assert reg.counter("procpool.backend.lapack").value == 1

    def test_numpy_numeric_is_bit_exact(self, rng, pool):
        """On an exactly tiled matrix the rolling frontier must not
        change a single bit vs the sequential reference executor (same
        kernels, same dependency-ordered tile accesses).  Ragged shapes
        are only ~1e-16 close: the padded nb x nb slots round
        differently than the reference's ragged tile views (covered by
        the 1e-12 grid above)."""
        a = random_matrix(rng, 64, 32, np.float64)
        f_ref = factor(a, nb=NB, ib=4)
        f_pro = factor(a, nb=NB, ib=4, mode="process", pool=pool,
                       backend="reference")
        assert np.array_equal(f_pro.r(), f_ref.r())

    def test_complex_dtype(self, rng, pool):
        a = random_matrix(rng, 48, 24, np.complex128)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool)
        assert f.residual(a) < 1e-12
        assert f.orthogonality() < 1e-12

    def test_apply_q_matches_reference(self, rng, pool):
        a = random_matrix(rng, 50, 17, np.float64)
        f_ref = factor(a, nb=NB, ib=4, backend="lapack")  # same convention
        f_pro = factor(a, nb=NB, ib=4, mode="process", pool=pool)
        c = random_matrix(rng, 50, 3, np.float64)
        assert rel_err(f_pro.qh_matmul(c.copy()), f_ref.qh_matmul(c.copy()),
                       c) < 1e-12

    def test_single_tile_matrix(self, rng, pool):
        a = random_matrix(rng, 5, 3, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool)
        assert f.residual(a) < 1e-12


class TestStartMethods:
    def test_spawn_equivalence(self, rng):
        a = random_matrix(rng, 70, 33, np.float64)
        f_ref = factor(a, nb=NB, ib=4, backend="lapack")  # same convention
        f_pro = factor(a, nb=NB, ib=4, mode="process", workers=2,
                       start_method="spawn")
        assert rel_err(f_pro.r(), f_ref.r(), a) < 1e-12
        assert f_pro.residual(a) < 1e-12

    def test_unknown_start_method(self):
        with pytest.raises(ValueError, match="start method"):
            ProcessPool(workers=1, start_method="teleport")


class TestPoolMechanics:
    def test_ephemeral_pool_via_execute_graph(self, rng):
        a = random_matrix(rng, 33, 17, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", workers=2)
        assert f.residual(a) < 1e-12

    def test_taskgraph_input(self, rng):
        """execute_process accepts a bare TaskGraph (no Plan priorities)."""
        pl = plan(3, 2, "greedy", "TT")
        a = random_matrix(rng, 3 * NB, 2 * NB, np.float64)
        tiled = TiledMatrix(a.copy(), NB)
        ctx = execute_process(pl.graph, tiled, ExecOptions(workers=2), ib=4)
        r_ref = factor(a, nb=NB, ib=4, backend="lapack").r()
        np.testing.assert_allclose(np.triu(tiled.array[:2 * NB]), r_ref,
                                   atol=1e-12 * np.linalg.norm(a))

    def test_lazy_start_and_close(self):
        p = ProcessPool(workers=1)
        assert not p.started
        p.close()
        with pytest.raises(RuntimeError, match="closed"):
            p._ensure_started()

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPool(workers=0)

    def test_bad_backend(self, rng, pool):
        a = random_matrix(rng, 16, 16, np.float64)
        with pytest.raises(ValueError, match="backend"):
            factor(a, nb=NB, mode="process", pool=pool, backend="fortran")

    def test_lapack_rejects_complex(self, rng, pool):
        a = random_matrix(rng, 16, 16, np.complex128)
        with pytest.raises(ValueError, match="lapack"):
            factor(a, nb=NB, mode="process", pool=pool, backend="lapack")

    def test_bad_mode_message_names_process(self, rng):
        a = random_matrix(rng, 16, 16, np.float64)
        with pytest.raises(ValueError, match="process"):
            factor(a, nb=NB, mode="quantum")


class TestBlasThreads:
    def test_fork_worker_runs_one_blas_thread(self, monkeypatch):
        """A fork child inherits the parent's initialized OpenBLAS
        pools (numpy's copy and scipy's), which the thread variables
        set around worker start-up cannot resize: the worker itself
        must set each copy to one thread."""
        before = procpool.blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        try:
            if procpool.blas_threads(2) != [2] * len(before):
                pytest.skip("OpenBLAS cannot run two threads here")

            def report(state, widx, groups, free_t, done_q):
                done_q.put(("blas", widx, procpool.blas_threads()))

            # fork children run the parent's patched module
            monkeypatch.setattr(procpool, "_run_groups", report)
            with ProcessPool(workers=1, start_method="fork") as p:
                p._ensure_started()
                p._inqs[0].put(("groups", ()))
                msg = p._done_q.get(timeout=30)
        finally:
            for (setter, _), n in zip(procpool._loaded_openblas(), before):
                setter(n)
        assert msg == ("blas", 0, [1] * len(before))


class TestFailurePropagation:
    def test_worker_task_error_raises_and_pool_survives(self, rng,
                                                        monkeypatch):
        """A raising kernel inherited by fork workers must surface as a
        RuntimeError carrying the worker traceback, and the pool must
        stay usable for the next run.  Traced, the failed run's
        in-flight groups close as aborted, and no worker half of it
        leaks into the next run's capture."""
        import dataclasses

        from repro.kernels import backend as backend_mod
        from repro.obs.analyze import overhead_report
        from repro.obs.tracer import DistributedTracer

        def boom(a, ib):
            raise FloatingPointError("injected kernel failure")

        broken = dataclasses.replace(backend_mod.BACKENDS["reference"],
                                     geqrt=boom)
        monkeypatch.setitem(backend_mod.BACKENDS, "reference", broken)
        a = random_matrix(rng, 33, 17, np.float64)
        failed, traced = DistributedTracer(), DistributedTracer()
        with ProcessPool(workers=2, start_method="fork") as p:
            with pytest.raises(RuntimeError,
                               match="injected kernel failure"):
                factor(a, nb=NB, ib=4, mode="process", pool=p,
                       backend="reference", tracer=failed)
            monkeypatch.undo()  # later forks see the healthy backend
            # the failed run detached cleanly; the same pool still works
            # (fork workers keep the broken inherited module, so factor
            # through a *fresh* attach with the lapack backend instead)
            f = factor(a, nb=NB, ib=4, mode="process", pool=p,
                       backend="lapack", tracer=traced)
            assert f.residual(a) < 1e-12
        assert failed.aborted_count >= 1
        assert all(not ph.measured for ph in failed.phases if ph.aborted)
        rep = overhead_report(traced, f.graph)
        assert rep.unmeasured == 0 and rep.aborted == 0
        assert rep.tasks == len(f.graph)

    def test_worker_death_closes_the_pool(self, rng, monkeypatch):
        """A worker killed mid-group breaks the run with an error naming
        the dead worker, closes the pool and leaves no shared-memory
        segment behind."""
        import dataclasses
        import os
        import signal

        from repro.kernels import backend as backend_mod

        before = shm_entries()
        if before is None:
            pytest.skip("no /dev/shm")

        def die(a, ib):
            os.kill(os.getpid(), signal.SIGKILL)

        # every QR DAG starts with GEQRTs: each worker that gets work
        # dies in its first kernel, before it sends any completion
        broken = dataclasses.replace(backend_mod.BACKENDS["reference"],
                                     geqrt=die)
        monkeypatch.setitem(backend_mod.BACKENDS, "reference", broken)
        a = random_matrix(rng, 64, 64, np.float64)
        with ProcessPool(workers=2, start_method="fork") as p:
            with pytest.raises(RuntimeError,
                               match=r"worker process\(es\) died: "
                                     r"\[\('repro-worker-\d"):
                factor(a, nb=NB, ib=4, mode="process", pool=p,
                       backend="reference")
            assert not p.started
        assert shm_entries() - before == set()

    def test_on_task_done_exception_aborts(self, rng, pool):
        a = random_matrix(rng, 48, 24, np.float64)

        def observer(task, done, total):
            if done >= 3:
                raise KeyboardInterrupt("stop here")

        with pytest.raises(KeyboardInterrupt):
            factor(a, nb=NB, ib=4, mode="process", pool=pool,
                   on_task_done=observer)
        # pool survives an aborted run
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool)
        assert f.residual(a) < 1e-12


class TestObservability:
    def _drain(self, bus, want_done):
        """The bus once the run returned: the parent publishes every
        event itself, so it already holds ``group_done`` events for
        ``want_done`` tasks."""
        evs = bus.snapshot()
        assert sum(e.count for e in evs if e.kind == "group_done") \
            == want_done
        return evs

    def test_bus_stream(self, rng, pool):
        from repro.obs import EventBus

        bus = EventBus(capacity=65536)
        a = random_matrix(rng, 64, 32, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool, bus=bus)
        n = len(f.graph.tasks)
        evs = self._drain(bus, n)
        kinds = {e.kind for e in evs}
        assert kinds == {"run_start", "group_start", "group_done",
                         "frontier", "run_done"}
        start = next(e for e in evs if e.kind == "run_start")
        assert start.total == n and start.count == pool.workers
        workers = {e.worker for e in evs if e.kind == "group_done"}
        assert workers == set(range(pool.workers))

    def test_tracer_and_metrics(self, rng, pool):
        from repro.obs import MetricsRegistry
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        metrics = MetricsRegistry()
        a = random_matrix(rng, 64, 32, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool,
                   tracer=tracer, metrics=metrics)
        n = len(f.graph.tasks)
        assert sorted(t for s in tracer.spans for t in s.tids) == \
            list(range(n))
        assert all(s.submit <= s.start <= s.finish for s in tracer.spans)
        assert {s.worker for s in tracer.spans} <= set(range(pool.workers))
        retired = sum(metrics.get(name).value for name in metrics.names()
                      if name.startswith("tasks.retired."))
        assert retired == n
        assert metrics.get("procpool.start_method.fork").value >= 1

    def test_traced_pool_reuse_no_bookkeeping_growth(self, rng, pool):
        """Per-run scheduler stamps must not accumulate across runs on
        a persistent pool: 50 traced runs through one pool leave the
        pending map empty and the clock cache bounded each time."""
        from repro.obs.tracer import DistributedTracer

        a = random_matrix(rng, 16, 16, np.float64)
        tracer = DistributedTracer()
        n = None
        for _ in range(50):
            f = factor(a, nb=NB, ib=4, mode="process", pool=pool,
                       tracer=tracer)
            assert len(pool._pending) == 0
            assert len(pool._clock_prev) <= pool.workers
            assert not tracer._parent and not tracer._wspans
            n = len(f.graph.tasks)
        assert sum(p.count for p in tracer.phases) == 50 * n
        # re-synced every run: drift is measured from the second on
        assert all(c.samples >= 1 for c in tracer.clocks.values())

    def test_live_progress_state(self, rng, pool):
        """The LiveState reduction --progress/top rely on converges to
        a finished run."""
        from repro.obs import EventBus, LiveState

        bus = EventBus(capacity=65536)
        a = random_matrix(rng, 48, 24, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool, bus=bus)
        n = len(f.graph.tasks)
        self._drain(bus, n)
        state = LiveState().connect(bus)
        v = state.view()
        assert v["run_started"] and v["run_finished"]
        assert v["done"] == n and v["total"] == n
