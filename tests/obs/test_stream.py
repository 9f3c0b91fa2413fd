"""Tests for the streaming event bus (S21): ring semantics, push/pull
consumers, and the executors as publishers."""

import threading

import numpy as np
import pytest

from repro.api import plan
from repro.obs import (EVENT_KINDS, NULL_BUS, Event, EventBus, LiveState,
                       NullBus)
from repro.runtime import ExecOptions
from repro.runtime.executor import execute_graph
from repro.runtime.groups import FACTOR_CODES
from repro.tiles.layout import TiledMatrix


# ----------------------------------------------------------------------
# Event record
# ----------------------------------------------------------------------

class TestEvent:
    def test_to_dict_elides_defaults(self):
        ev = Event("task_done", t=1.5, seq=3, tid=7, kernel="geqrt",
                   value=0.25)
        d = ev.to_dict()
        assert d == {"kind": "task_done", "t": 1.5, "seq": 3, "tid": 7,
                     "kernel": "geqrt", "value": 0.25}

    def test_round_trip(self):
        ev = Event("group_done", t=2.0, seq=9, kernel="tsmqr", count=12,
                   worker=0, value=0.125)
        assert Event.from_dict(ev.to_dict()) == ev

    def test_from_dict_ignores_unknown_keys(self):
        ev = Event.from_dict({"kind": "frontier", "t": 1.0, "bogus": 42})
        assert ev.kind == "frontier" and ev.t == 1.0

    def test_vocabulary_is_fixed(self):
        assert "task_start" in EVENT_KINDS
        assert "group_start" in EVENT_KINDS
        assert "frontier" in EVENT_KINDS


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------

class TestEventBus:
    def test_publish_returns_monotone_seq(self):
        bus = EventBus()
        seqs = [bus.publish("frontier", value=float(i)) for i in range(5)]
        assert seqs == [0, 1, 2, 3, 4]
        assert bus.published == 5 and bus.dropped == 0

    def test_events_since_materializes_events(self):
        bus = EventBus()
        bus.publish("task_start", tid=3, kernel="geqrt", worker=1)
        events, nxt = bus.events_since(0)
        assert nxt == 1
        (ev,) = events
        assert isinstance(ev, Event)
        assert (ev.kind, ev.tid, ev.kernel, ev.worker, ev.seq) == (
            "task_start", 3, "geqrt", 1, 0)

    def test_events_since_cursor_protocol(self):
        bus = EventBus()
        for i in range(4):
            bus.publish("frontier", value=float(i))
        first, cur = bus.events_since(0)
        bus.publish("frontier", value=99.0)
        rest, cur = bus.events_since(cur)
        assert [e.value for e in first] == [0.0, 1.0, 2.0, 3.0]
        assert [e.value for e in rest] == [99.0]

    def test_overflow_drops_oldest_and_counts(self):
        bus = EventBus(capacity=8)
        for i in range(20):
            bus.publish("frontier", value=float(i))
        assert bus.published == 20
        assert bus.dropped == 12
        events, _ = bus.events_since(0)
        assert [e.value for e in events] == [float(i) for i in range(12, 20)]
        # reader learns the gap from the first surviving seq
        assert events[0].seq == 12

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            EventBus(capacity=0)

    def test_timestamps_are_epoch_relative(self):
        bus = EventBus()
        s = bus.publish("run_start")
        (ev,), _ = bus.events_since(s)
        assert 0.0 <= ev.t < 5.0
        assert bus.now() >= ev.t

    def test_explicit_timestamp_respected(self):
        bus = EventBus()
        bus.publish("run_done", t=123.5)
        assert bus.snapshot()[0].t == 123.5

    def test_concurrent_publishers_lose_nothing(self):
        bus = EventBus(capacity=1 << 14)
        n_threads, per_thread = 8, 500

        def pound(worker):
            for i in range(per_thread):
                bus.publish("task_done", tid=worker * per_thread + i,
                            worker=worker)

        threads = [threading.Thread(target=pound, args=(w,))
                   for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events, _ = bus.events_since(0)
        assert bus.published == n_threads * per_thread
        assert bus.dropped == 0
        # every publish got a distinct slot and a distinct seq
        assert sorted(e.seq for e in events) == list(
            range(n_threads * per_thread))
        assert sorted(e.tid for e in events) == list(
            range(n_threads * per_thread))


# ----------------------------------------------------------------------
# NullBus
# ----------------------------------------------------------------------

class TestNullBus:
    def test_disabled_and_inert(self):
        assert NULL_BUS.enabled is False
        assert isinstance(NULL_BUS, NullBus)
        assert NULL_BUS.publish("task_done", tid=1, kernel="geqrt") is None

    def test_executor_skips_publishing_entirely(self):
        # bus normalization: a disabled bus never sees a publish, so
        # the hot path carries zero telemetry work
        pl = plan(3, 3, "greedy")
        a = np.random.default_rng(0).standard_normal((96, 96))
        execute_graph(pl, TiledMatrix(a, 32), ib=32, bus=NULL_BUS)
        assert NULL_BUS.published == 0
        assert NULL_BUS.snapshot() == []


# ----------------------------------------------------------------------
# LiveState reduction
# ----------------------------------------------------------------------

class TestLiveState:
    def _feed(self, state, bus):
        bus.publish("run_start", total=4, count=2)
        bus.publish("task_start", tid=0, kernel="geqrt", worker=0)
        bus.publish("task_done", tid=0, kernel="geqrt", worker=0,
                    value=0.01)
        bus.publish("frontier", value=3.0)

    def test_pull_mode_drains_on_view(self):
        bus = EventBus()
        state = LiveState().connect(bus)
        self._feed(state, bus)
        assert state.done == 0  # nothing reduced until a pump
        v = state.view()        # view() auto-pumps
        assert v["done"] == 1 and v["total"] == 4
        assert v["workers"] == 2 and v["frontier"] == 3
        assert v["kernel_done"] == {"geqrt": 1}

    def test_pump_is_incremental(self):
        bus = EventBus()
        state = LiveState().connect(bus)
        bus.publish("task_done", kernel="geqrt", value=0.01)
        assert state.pump() == 1
        assert state.pump() == 0
        bus.publish("task_done", kernel="geqrt", value=0.01)
        assert state.pump() == 1
        assert state.view()["done"] == 2

    def test_concurrent_pumps_never_double_count(self):
        bus = EventBus()
        state = LiveState().connect(bus)
        for _ in range(2000):
            bus.publish("task_done", kernel="geqrt", value=0.0)
        threads = [threading.Thread(target=state.pump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state.view()["done"] == 2000

    def test_flops_accumulate_with_nb(self):
        from repro.kernels.costs import Kernel, kernel_flops

        bus = EventBus()
        state = LiveState(nb=32).connect(bus)
        bus.publish("group_done", kernel="GEQRT", count=3, value=0.01)
        v = state.view()
        assert v["flops"] == pytest.approx(
            3 * kernel_flops(Kernel.GEQRT, 32))


# ----------------------------------------------------------------------
# executors publish the documented stream
# ----------------------------------------------------------------------

class TestExecutorPublishing:
    GRID = (4, 3)

    def _factor(self, bus, **kw):
        p, q = self.GRID
        pl = plan(p, q, "greedy")
        a = np.random.default_rng(1).standard_normal((p * 32, q * 32))
        execute_graph(pl, TiledMatrix(a, 32), ExecOptions(**kw), ib=32,
                      bus=bus)
        return pl, bus.snapshot()

    def test_sequential_stream(self):
        pl, events = self._factor(EventBus())
        kinds = [e.kind for e in events]
        n = len(pl.graph.tasks)
        assert kinds[0] == "run_start" and kinds[-1] == "run_done"
        # one group per factor task and one per stretch of a block's
        # updates (same kernel, row, piv and col; j rising by one)
        g = pl.graph
        factor = np.isin(g.codes, list(FACTOR_CODES))
        stretch = ~factor.copy()
        same = ((g.codes[1:] == g.codes[:-1]) & (g.rows[1:] == g.rows[:-1])
                & (g.pivs[1:] == g.pivs[:-1]) & (g.cols[1:] == g.cols[:-1])
                & (g.js[1:] == g.js[:-1] + 1))
        stretch[1:] &= ~(same & ~factor[:-1])
        firsts = np.flatnonzero(factor | stretch).tolist()
        assert len(firsts) < n
        done = [e for e in events if e.kind == "group_done"]
        assert kinds.count("group_start") == len(done) == len(firsts)
        assert [e.tid for e in done] == firsts
        assert sum(e.count for e in done) == n
        run_start = events[0]
        assert run_start.total == n and run_start.count == 1
        # per-task durations ride on group_done.value
        assert all(e.value >= 0.0 for e in events if e.kind == "group_done")

    def test_threaded_stream(self):
        pl, events = self._factor(EventBus(), workers=3)
        n = len(pl.graph.tasks)
        kinds = [e.kind for e in events]
        done = [e for e in events if e.kind == "group_done"]
        assert sum(e.count for e in done) == n
        assert kinds.count("group_start") == len(done)
        assert events[0].kind == "run_start" and events[0].count == 3
        assert kinds[-1] == "run_done"
        # retirements publish the post-retire ready-frontier depth
        assert kinds.count("frontier") >= len(done)
        assert {e.worker for e in done} <= {0, 1, 2}

    def test_batched_stream(self):
        pl, events = self._factor(EventBus(), mode="batched")
        n = len(pl.graph.tasks)
        kinds = [e.kind for e in events]
        groups = pl.level_groups()
        assert kinds.count("group_start") == len(groups)
        assert kinds.count("group_done") == len(groups)
        done = sum(e.count for e in events if e.kind == "group_done")
        assert done == n
        assert events[-1].kind == "run_done" and events[-1].count == n

    def test_tiled_qr_accepts_bus(self):
        from repro.core.tiled_qr import tiled_qr

        bus = EventBus()
        a = np.random.default_rng(2).standard_normal((96, 96))
        f = tiled_qr(a, nb=32, scheme="greedy", mode="batched", bus=bus)
        assert np.allclose(f.q() @ f.r(), a)
        assert bus.published > 0
        assert bus.snapshot()[-1].kind == "run_done"

