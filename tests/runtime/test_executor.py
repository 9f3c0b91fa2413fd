"""Tests for the sequential and threaded executors."""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.runtime import ExecOptions, execute_graph
from repro.schemes import greedy, flat_tree
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix


def factor(a, nb, workers, backend="reference", family="TT", ib=4,
           batch="auto", **observers):
    tiled = TiledMatrix(a.copy(), nb)
    g = build_dag(greedy(tiled.p, tiled.q), family)
    opts = ExecOptions(workers=workers, backend=backend, batch=batch)
    return execute_graph(g, tiled, opts, ib=ib, **observers)


class TestSequentialVsThreaded:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_same_r(self, rng, dtype, workers):
        a = random_matrix(rng, 48, 24, dtype)
        seq = factor(a, 8, None)
        par = factor(a, 8, workers)
        r_seq = np.triu(seq.tiled.array[:24])
        r_par = np.triu(par.tiled.array[:24])
        assert np.allclose(r_seq, r_par, atol=1e-12)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("batch", ["off", "auto", 3])
    @pytest.mark.parametrize("family", ["TT", "TS"])
    def test_bit_exact_on_exact_tiling(self, rng, workers, batch, family):
        """The thread transport runs the reference kernels on padded
        slots and stacks applies; on an exactly tiled matrix of every
        dtype, single precision included (the stacked apply keeps V's
        dtype), every bit of the factored array (R and the stored
        reflectors) and of Q^H c matches the sequential reference."""
        for dtype in (np.float64, np.complex128, np.float32, np.complex64):
            a = random_matrix(rng, 48, 24, dtype)
            seq = factor(a, 8, None, family=family)
            par = factor(a, 8, workers, family=family, batch=batch)
            assert np.array_equal(par.tiled.array, seq.tiled.array), dtype
            c = random_matrix(rng, 48, 3, dtype)
            assert np.array_equal(par.apply_q(c.copy()),
                                  seq.apply_q(c.copy())), dtype

    def test_stress_more_threads_than_cores(self, rng):
        """Eight workers with a tiny switch interval: a lost in-degree
        or done-count update under the scheduler lock would hang the
        run, skip or repeat a task, or change a bit of the result."""
        import sys
        import threading

        a = random_matrix(rng, 64, 32)
        seq = factor(a, 8, None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for batch in ("off", 2):
                seen = []
                out = {}
                run = threading.Thread(target=lambda: out.setdefault(
                    "ctx", factor(a, 8, 8, batch=batch,
                                  on_task_done=lambda t, i, n: seen.append(i))))
                run.start()
                run.join(timeout=60)
                assert not run.is_alive(), "thread transport hung"
                n = len(seq.graph.tasks)
                assert sorted(seen) == list(range(1, n + 1))
                assert np.array_equal(out["ctx"].tiled.array,
                                      seq.tiled.array)
        finally:
            sys.setswitchinterval(interval)

    def test_ragged_close_to_reference(self, rng):
        a = random_matrix(rng, 50, 17)
        seq = factor(a, 8, None)
        par = factor(a, 8, 3)
        assert np.allclose(np.triu(par.tiled.array[:17]),
                           np.triu(seq.tiled.array[:17]), atol=1e-12)

    def test_threaded_deterministic_result(self, rng):
        """Different thread interleavings must not change the numbers
        (each tile sequence of kernels is fixed by the DAG)."""
        a = random_matrix(rng, 48, 24)
        results = [np.triu(factor(a, 8, 4).tiled.array[:24]) for _ in range(5)]
        for r in results[1:]:
            assert np.array_equal(r, results[0])

    def test_threaded_repeated_stress(self, rng):
        for trial in range(8):
            a = random_matrix(rng, 40, 24)
            ctx = factor(a, 8, 8, backend="lapack", ib=8)
            r = np.triu(ctx.tiled.array[:24])
            _, r_np = np.linalg.qr(a)
            assert np.allclose(np.abs(r), np.abs(r_np), atol=1e-11), trial


class TestErrorPropagation:
    def test_kernel_error_raised(self, rng):
        a = random_matrix(rng, 16, 8)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(2, 1), "TT")
        # sabotage: make ib invalid so the kernel raises
        with pytest.raises(Exception):
            execute_graph(g, tiled, ExecOptions(workers=2), ib=0)

    def test_sequential_kernel_error(self, rng):
        a = random_matrix(rng, 16, 8)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(2, 1), "TT")
        with pytest.raises(Exception):
            execute_graph(g, tiled, ib=0)


    @pytest.mark.parametrize("opts", [
        ExecOptions(), ExecOptions(workers=2), ExecOptions(mode="batched")],
        ids=["sequential", "threads", "batched"])
    def test_non_qr_graph_rejected(self, opts):
        """Only QR's kernels run: a Cholesky graph is refused up front
        in every mode, not run through QR kernels."""
        from repro.api import plan

        tiled = TiledMatrix(np.eye(24), 8)
        with pytest.raises(ValueError, match="QR task graphs"):
            execute_graph(plan("cholesky(t=3)"), tiled, opts, ib=4)
        assert np.array_equal(tiled.array, np.eye(24))


class TestProgressObserver:
    def test_sequential_callback(self, rng):
        a = random_matrix(rng, 24, 16)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        seen = []
        execute_graph(g, tiled, ib=4,
                      on_task_done=lambda t, i, n: seen.append((i, n)))
        assert len(seen) == len(g.tasks)
        assert seen[0] == (1, len(g.tasks))
        assert seen[-1] == (len(g.tasks), len(g.tasks))

    def test_threaded_callback_counts(self, rng):
        a = random_matrix(rng, 24, 16)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        seen = []
        execute_graph(g, tiled, ExecOptions(workers=4), ib=4,
                      on_task_done=lambda t, i, n: seen.append(i))
        assert sorted(seen) == list(range(1, len(g.tasks) + 1))

    def test_raising_observer_does_not_deadlock(self, rng):
        """Regression: an observer exception inside retire() used to
        escape before done was set, hanging done.wait() forever."""
        a = random_matrix(rng, 24, 16)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")

        def bad_observer(t, i, n):
            raise RuntimeError("observer blew up")

        with pytest.raises(RuntimeError, match="observer blew up"):
            execute_graph(g, tiled, ExecOptions(workers=4), ib=4,
                          on_task_done=bad_observer)

    def test_raising_observer_midway(self, rng):
        a = random_matrix(rng, 24, 16)
        tiled = TiledMatrix(a, 8)
        g = build_dag(greedy(tiled.p, tiled.q), "TT")
        calls = []

        def flaky(t, i, n):
            calls.append(i)
            if i == 5:
                raise ValueError("boom at 5")

        with pytest.raises(ValueError, match="boom at 5"):
            execute_graph(g, tiled, ExecOptions(workers=2), ib=4,
                          on_task_done=flaky)
        assert 5 in calls


class TestTracing:
    def test_threaded_tracer_records_every_task(self, rng):
        a = random_matrix(rng, 32, 16)
        tracer = Tracer()
        ctx = factor(a, 8, 4, tracer=tracer)
        assert ctx.tracer is tracer
        # one span per group; the members partition the tasks
        assert sum(s.count for s in tracer.spans) == len(ctx.graph.tasks)
        assert sorted(t for s in tracer.spans for t in s.tids) == [
            t.tid for t in ctx.graph.tasks]
        for s in tracer.spans:
            assert s.submit <= s.start <= s.finish
            assert 0 <= s.worker < 4
        assert tracer.makespan() > 0

    def test_sequential_tracer_single_worker(self, rng):
        a = random_matrix(rng, 24, 16)
        tracer = Tracer()
        ctx = factor(a, 8, None, tracer=tracer)
        assert len(tracer) == len(ctx.graph.tasks)
        assert {s.worker for s in tracer.spans} == {0}

    def test_null_tracer_records_nothing(self, rng):
        """Disabled tracing must not capture spans, and the result must
        match the sequential reference exactly."""
        a = random_matrix(rng, 32, 16)
        ctx = factor(a, 8, 4, tracer=NULL_TRACER)
        assert len(NULL_TRACER) == 0
        assert ctx.tracer is None  # null path: executor drops it entirely
        r_seq = np.triu(factor(a, 8, None).tiled.array[:16])
        assert np.allclose(np.triu(ctx.tiled.array[:16]), r_seq, atol=1e-12)

    def test_untraced_run_has_no_observability_state(self, rng):
        a = random_matrix(rng, 16, 8)
        ctx = factor(a, 8, 2)
        assert ctx.tracer is None and ctx.metrics is None


class TestMetrics:
    def test_collect_metrics_threaded(self, rng):
        a = random_matrix(rng, 32, 16)
        ctx = factor(a, 8, 4, metrics=MetricsRegistry())
        m = ctx.metrics
        assert m is not None
        n = len(ctx.graph.tasks)
        retired = sum(m.get(name).value for name in m.names()
                      if name.startswith("tasks.retired."))
        assert retired == n
        # one kernel-seconds observation per group
        hist_total = sum(m.get(name).count for name in m.names()
                         if name.startswith("kernel.seconds."))
        assert 0 < hist_total <= n
        assert m.counter("scheduler.tasks_total").value == n
        assert m.counter("scheduler.lock_hold_seconds").value > 0
        assert m.gauge("scheduler.inflight_tasks").samples  # time series

    def test_explicit_registry_reused(self, rng):
        a = random_matrix(rng, 16, 8)
        reg = MetricsRegistry()
        ctx = factor(a, 8, 2, metrics=reg)
        assert ctx.metrics is reg
        assert reg.counter("scheduler.tasks_total").value == len(
            ctx.graph.tasks)

    def test_sequential_metrics(self, rng):
        a = random_matrix(rng, 24, 16)
        ctx = factor(a, 8, None, metrics=MetricsRegistry())
        m = ctx.metrics
        retired = sum(m.get(name).value for name in m.names()
                      if name.startswith("tasks.retired."))
        assert retired == len(ctx.graph.tasks)


class TestApplyQ:
    def test_apply_q_shape_check(self, rng):
        a = random_matrix(rng, 16, 8)
        ctx = factor(a, 8, None)
        with pytest.raises(ValueError, match="rows"):
            ctx.apply_q(np.zeros((15, 1)))

    def test_ts_family_apply(self, rng):
        a = random_matrix(rng, 24, 8)
        tiled = TiledMatrix(a.copy(), 8)
        g = build_dag(flat_tree(tiled.p, tiled.q), "TS")
        ctx = execute_graph(g, tiled, ib=4)
        c = a.copy()
        ctx.apply_q(c, adjoint=True)
        assert np.allclose(c[:8], np.triu(tiled.array[:8]), atol=1e-12)
        assert np.allclose(c[8:], 0, atol=1e-12)


class TestQueueWaitHistogram:
    """Per-task ready-to-start latency (S21 satellite)."""

    def test_threaded_run_populates_queue_wait(self, rng):
        a = random_matrix(rng, 96, 96, np.float64)
        m = MetricsRegistry()
        factor(a, 16, workers=3, metrics=m)
        h = m.histogram("scheduler.queue_wait_seconds")
        # every retired task was queued once
        assert h.count == m.counter("scheduler.tasks_total").value
        assert h.sum >= 0.0
        # waits are epoch-relative deltas, never absolute clock values
        assert h.max < 60.0

    def test_sequential_run_records_no_queue_wait(self, rng):
        a = random_matrix(rng, 64, 64, np.float64)
        m = MetricsRegistry()
        factor(a, 16, workers=None, metrics=m)
        assert "scheduler.queue_wait_seconds" not in m.to_dict()

    def test_tracer_and_metrics_agree_on_waits(self, rng):
        from repro.obs import Tracer

        a = random_matrix(rng, 96, 96, np.float64)
        m = MetricsRegistry()
        tr = Tracer()
        factor(a, 16, workers=3, metrics=m, tracer=tr)
        h = m.histogram("scheduler.queue_wait_seconds")
        spans = tr.spans
        # one wait per member; a span's submit is its members' mean
        # ready stamp, so queue_delay * count sums their waits
        assert h.count == sum(s.count for s in spans)
        assert h.sum == pytest.approx(
            sum(max(0.0, s.queue_delay) * s.count for s in spans),
            rel=1e-6, abs=1e-9)


class TestExecutorBusIntegration:
    def test_bus_and_metrics_together(self, rng):
        from repro.obs import EventBus

        a = random_matrix(rng, 96, 96, np.float64)
        bus = EventBus()
        m = MetricsRegistry()
        ctx = factor(a, 16, workers=2, metrics=m, bus=bus)
        n = int(m.counter("scheduler.tasks_total").value)
        done = [e for e in bus.snapshot() if e.kind == "group_done"]
        assert sum(e.count for e in done) == n
        assert ctx is not None
