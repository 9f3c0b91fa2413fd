"""Tests for the live progress renderer and ETA dashboard (S21)."""

import io

import numpy as np
import pytest

from repro.api import plan
from repro.obs import (EventBus, LiveState, ProgressRenderer, kernel_totals)
from repro.obs.progress import render_bar
from repro.runtime import ExecOptions
from repro.runtime.executor import execute_graph
from repro.tiles.layout import TiledMatrix


class TestRenderBar:
    def test_extremes_and_clamping(self):
        assert render_bar(0.0, 8) == "[--------]"
        assert render_bar(1.0, 8) == "[########]"
        assert render_bar(2.0, 8) == "[########]"
        assert render_bar(-1.0, 8) == "[--------]"

    def test_half(self):
        assert render_bar(0.5, 8) == "[####----]"


class TestKernelTotals:
    def test_counts_match_graph(self):
        pl = plan(4, 3, "greedy")
        totals = kernel_totals(pl)           # accepts a Plan...
        assert totals == kernel_totals(pl.graph)   # ...or its graph
        assert sum(totals.values()) == len(pl.graph.tasks)
        # TT family factors every tile of every panel
        assert totals["GEQRT"] >= 3


def _wired(tty, **kw):
    """A bus/state/renderer triple over a fake stream."""
    bus = EventBus()
    state = LiveState(total=10, nb=32).connect(bus)
    stream = io.StringIO()
    r = ProgressRenderer(state, clock=bus.now, stream=stream, tty=tty,
                         totals={"GEQRT": 4, "TSMQR": 6}, **kw)
    return bus, r, stream


class TestLines:
    def test_head_line_reports_progress(self):
        bus, r, _ = _wired(tty=False, label="greedy 4x4")
        bus.publish("run_start", total=10, count=2)
        for i in range(4):
            bus.publish("task_done", tid=i, kernel="GEQRT", value=0.01)
        head = r.progress_line()
        assert head.startswith("greedy 4x4 | 4/10 tasks (40.0%)")
        assert "elapsed" in head

    def test_kernel_bars_in_canonical_order(self):
        bus, r, _ = _wired(tty=False)
        bus.publish("run_start", total=10)
        bus.publish("task_done", kernel="TSMQR", count=3, value=0.01)
        lines = r.lines()
        bars = [ln for ln in lines if "[" in ln and "workers" not in ln]
        assert bars[0].startswith("GEQRT") and "0/4" in bars[0]
        assert bars[1].startswith("TSMQR") and "3/6" in bars[1]

    def test_worker_and_frontier_status(self):
        bus, r, _ = _wired(tty=False)
        bus.publish("run_start", total=10, count=2)
        bus.publish("task_start", tid=0, kernel="GEQRT", worker=0)
        bus.publish("task_start", tid=1, kernel="TSMQR", worker=1)
        bus.publish("frontier", value=7.0)
        lines = r.lines()
        status = [ln for ln in lines if "workers" in ln][0]
        assert "2/2 busy" in status and "frontier 7" in status
        cells = lines[-1]
        assert "w0:GEQRT" in cells and "w1:TSMQR" in cells


class TestNonTtyMode:
    def test_emits_plain_lines_at_cadence(self):
        bus, r, stream = _wired(tty=False, nontty_interval=0.0)
        bus.publish("run_start", total=10)
        r.render_once()
        r.render_once(force=True)
        out = stream.getvalue()
        assert "\x1b" not in out          # no ANSI in logs
        assert out.count("\n") == 2

    def test_rate_limited_without_force(self):
        bus, r, stream = _wired(tty=False, nontty_interval=3600.0)
        bus.publish("run_start", total=10)
        r.render_once()
        r.render_once()                   # within the cadence window
        assert stream.getvalue().count("\n") == 1


class TestTtyMode:
    def test_repaints_in_place_with_ansi(self):
        bus, r, stream = _wired(tty=True)
        bus.publish("run_start", total=10)
        r.render_once()
        first = stream.getvalue()
        assert "\x1b[" not in first       # first paint: nothing to erase
        r.render_once()
        second = stream.getvalue()[len(first):]
        nlines = first.count("\n")
        assert second.startswith(f"\x1b[{nlines}F\x1b[0J")

    def test_autodetects_non_tty_stream(self):
        _, r, _ = _wired(tty=None)
        assert r.tty is False             # StringIO has no terminal


class TestEtaConvergence:
    def test_eta_converges_to_realized_makespan(self):
        # factor a Table-3-shaped (tall) grid and check the final
        # prediction equals the realized wall time exactly: once every
        # task has retired the model exchange rate is measured over the
        # whole run
        pl = plan(8, 4, "greedy")
        a = np.random.default_rng(3).standard_normal((8 * 32, 4 * 32))
        bus = EventBus()
        state = LiveState(total=len(pl.graph.tasks), nb=32).connect(bus)
        replay = pl.replay(None)
        r = ProgressRenderer(state, replay, clock=bus.now,
                             stream=io.StringIO(), tty=False,
                             totals=kernel_totals(pl))
        execute_graph(pl, TiledMatrix(a, 32), ExecOptions(mode="batched"),
                      ib=32, bus=bus)
        r.render_once(force=True)
        est = r.last_estimate
        assert est is not None and est.done == est.total
        realized = state.view()["last_t"]
        # prediction at 100% = elapsed-at-render scaled over the full
        # schedule; the render ran after run_done, so it must be within
        # the render latency of the realized makespan
        assert est.predicted_makespan == pytest.approx(realized, rel=0.25)
        assert est.remaining == 0.0 or est.remaining < 0.05

    def test_background_thread_paints_final_state(self):
        bus, r, stream = _wired(tty=False, nontty_interval=0.0)
        bus.publish("run_start", total=10)
        with r:
            bus.publish("task_done", kernel="GEQRT", count=10, value=0.01)
        assert "10/10 tasks (100.0%)" in stream.getvalue()
