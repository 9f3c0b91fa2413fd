"""Tests for the span tracer: recording, thread-safety, null path."""

import threading

from repro.dag import build_dag
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.schemes import greedy


def graph():
    return build_dag(greedy(4, 2), "TT")


class TestSpanRecording:
    def test_record_fields(self):
        g = graph()
        tr = Tracer()
        t = g.tasks[0]
        span = tr.record_group(g, (t.tid,), submit=0.0, start=0.5,
                               finish=1.25, worker=3)
        assert span.tid == t.tid and span.tids == (t.tid,)
        assert span.count == 1
        assert span.kernel == t.kernel.value
        assert span.name == str(t)
        assert (span.row, span.piv, span.col, span.j) == (
            t.row, t.piv, t.col, t.j)
        assert span.worker == 3
        assert span.duration == 0.75
        assert span.queue_delay == 0.5
        assert len(tr) == 1 and tr.spans[0] is span

    def test_makespan_and_busy_fraction(self):
        g = graph()
        tr = Tracer()
        tr.record_group(g, (0,), submit=0.0, start=0.0, finish=1.0)
        tr.record_group(g, (1,), submit=0.0, start=1.0, finish=2.0)
        assert tr.makespan() == 2.0
        assert tr.busy_fraction() == 1.0

    def test_empty_capture(self):
        tr = Tracer()
        assert len(tr) == 0
        assert tr.makespan() == 0.0
        assert tr.busy_fraction() == 1.0

    def test_now_is_monotonic(self):
        tr = Tracer()
        a = tr.now()
        b = tr.now()
        assert 0 <= a <= b


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        g = build_dag(greedy(8, 4), "TT")
        tr = Tracer()
        per_thread = len(g.tasks)
        barrier = threading.Barrier(8)

        def work(w):
            barrier.wait()
            for t in range(per_thread):
                tr.record_group(g, (t,), submit=0.0, start=tr.now(),
                                finish=tr.now(), worker=w)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(tr) == 8 * per_thread
        # every thread's spans, under the worker it named
        assert sorted(s.tid for s in tr.spans) == sorted(
            list(range(per_thread)) * 8)
        workers = {s.worker for s in tr.spans}
        assert workers == set(range(8))
        assert tr.worker_count == 8


class TestNullTracer:
    def test_records_nothing(self):
        g = graph()
        nt = NullTracer()
        assert nt.enabled is False
        assert nt.record_group(g, (0,), 0.0, 0.0, 1.0) is None
        assert len(nt) == 0
        assert nt.makespan() == 0.0

    def test_shared_singleton_disabled(self):
        assert NULL_TRACER.enabled is False
        assert len(NULL_TRACER) == 0
