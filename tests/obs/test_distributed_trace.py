"""Cross-process distributed tracing (S23).

Unit coverage for the clock-sync estimator and the parent/worker span
merge, plus end-to-end runs through a real process pool: six-phase
lifecycle records whose telescoping sum equals wall-clock latency,
clock alignment residuals bounded well under a millisecond, merged
multi-lane Chrome export with dispatch flow arrows, and the abort /
zero-task / spawn-vs-fork edge cases.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import factor, plan
from repro.dag.tasks import TaskGraph
from repro.obs import (EventBus, MetricsRegistry, analyze_chrome_trace,
                       chrome_trace)
from repro.obs.analyze import (IPC_PHASES, overhead_report,
                               render_overhead_report)
from repro.obs.chrome_trace import distributed_to_events
from repro.obs.tracer import (PHASES, ClockSync, DistributedTracer,
                              TaskPhases, Tracer, estimate_clock_sync)
from repro.runtime import ProcessPool
from repro.tiles import TiledMatrix
from tests.conftest import random_matrix

NB = 8


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2, start_method="fork") as p:
        yield p


def qr_graph():
    return plan(2, 2, "greedy").graph


def make_tracer(epoch=0.0):
    tr = DistributedTracer()
    tr.epoch = epoch  # synthetic stamps start at t=0
    return tr


def clock(worker, offset, residual=1e-5):
    return ClockSync(worker=worker, offset=offset, residual=residual,
                     rtt=2 * residual, samples=8, at=0.0)


# ----------------------------------------------------------------------
# clock handshake
# ----------------------------------------------------------------------

class TestClockSync:
    def test_min_rtt_sample_wins(self):
        # (t_send, t_worker, t_recv); the middle ping has the tightest
        # round-trip (0.2 s) so it alone provides the estimate
        samples = [(0.0, 10.5, 1.0), (2.0, 12.1, 2.2), (4.0, 14.9, 5.0)]
        sync = estimate_clock_sync(7, samples)
        assert sync.worker == 7
        assert sync.offset == pytest.approx(12.1 - 2.1)
        assert sync.rtt == pytest.approx(0.2)
        assert sync.residual == pytest.approx(0.1)
        assert sync.samples == 3
        assert sync.drift == 0.0

    def test_aligned_maps_onto_parent_clock(self):
        sync = estimate_clock_sync(0, [(0.0, 5.0, 0.0)])
        assert sync.offset == pytest.approx(5.0)
        assert sync.aligned(6.0) == pytest.approx(1.0)

    def test_drift_against_previous_estimate(self):
        prev = estimate_clock_sync(0, [(0.0, 10.0, 0.2)])   # offset 9.9
        nxt = estimate_clock_sync(0, [(2.0, 12.2, 2.2)], prev=prev)
        # offset moved 9.9 -> 10.1 over 2 s of parent time
        assert nxt.drift == pytest.approx(0.2 / 2.0)

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="ping sample"):
            estimate_clock_sync(0, [])

    def test_to_dict_round_trip_keys(self):
        d = estimate_clock_sync(3, [(0.0, 1.0, 0.1)]).to_dict()
        assert set(d) == {"worker", "offset_s", "residual_s", "rtt_s",
                          "samples", "drift"}


# ----------------------------------------------------------------------
# parent/worker span merge
# ----------------------------------------------------------------------

class TestDistributedMerge:
    def test_full_merge_aligns_and_telescopes(self):
        tr = make_tracer()
        tr.set_clock(clock(1, offset=100.0))
        g = qr_graph()
        t = g.tasks[0]
        tr.record_parent(g, [t.tid], ready=0.0, dispatch=0.01, retire=0.2,
                         worker=1, dt=0.05)
        # (tid, start, finish, recv, publish, free): idle since 0.0
        tr.add_worker_spans(1, [(t.tid, 100.03, 100.08, 100.02, 100.09,
                                 100.0)])
        assert tr.finalize() == 1
        (p,) = tr.phases
        assert p.measured and not p.aborted
        assert p.queued == pytest.approx(0.01)
        assert p.dispatched == pytest.approx(0.01)
        assert p.deserialized == pytest.approx(0.01)
        assert p.computing == pytest.approx(0.05)
        assert p.published == pytest.approx(0.01)
        assert p.retired == pytest.approx(0.11)
        assert sum(p.phase(n) for n in PHASES) == pytest.approx(
            p.latency, abs=1e-12)
        # the companion Span keeps the plain-tracer consumers working
        (s,) = tr.spans
        assert (s.tid, s.worker) == (t.tid, 1)
        assert s.submit == pytest.approx(0.01)
        assert s.start == pytest.approx(0.03)
        assert s.finish == pytest.approx(0.08)

    def test_misaligned_stamps_clamped_monotone(self):
        tr = make_tracer()
        # offset over-estimated: aligned worker stamps land *before*
        # the parent dispatch; clamping must absorb the residual
        tr.set_clock(clock(0, offset=100.05))
        g = qr_graph()
        t = g.tasks[0]
        tr.record_parent(g, [t.tid], ready=0.0, dispatch=0.04, retire=0.2,
                         worker=0)
        tr.add_worker_spans(0, [(t.tid, 100.03, 100.08, 100.02, 100.09,
                                 100.0)])
        tr.finalize()
        (p,) = tr.phases
        for name in PHASES:
            assert p.phase(name) >= 0.0
        assert sum(p.phase(n) for n in PHASES) == pytest.approx(
            p.latency, abs=1e-12)
        assert p.recv == p.start == p.dispatch  # clamped up

    def test_dropped_worker_span_falls_back_to_dt(self):
        tr = make_tracer()
        tr.record_parent(qr_graph(), [0], ready=0.0, dispatch=0.01,
                         retire=0.2, worker=0, dt=0.05)
        tr.finalize()
        (p,) = tr.phases
        assert not p.measured and not p.aborted
        assert p.computing == pytest.approx(0.05)
        assert p.published == 0.0 and p.retired == 0.0
        assert sum(p.phase(n) for n in PHASES) == pytest.approx(p.latency)

    def test_aborted_task_closed_not_dropped(self):
        tr = make_tracer()
        tr.record_parent(qr_graph(), [0], ready=0.0, dispatch=0.01,
                         retire=0.15, worker=1, aborted=True)
        tr.finalize()
        (p,) = tr.phases
        assert p.aborted and not p.measured
        assert p.retire == pytest.approx(0.15)
        assert p.computing == 0.0
        assert tr.aborted_count == 1
        assert tr.spans[0].aborted

    def test_idle_stamp_bounds_transit(self):
        """A descriptor that reached a still-busy worker waited by
        design: its transit counts from the worker's idle stamp, and
        the wait before it is ``queued``."""
        tr = make_tracer()
        g = qr_graph()
        tr.record_parent(g, [0], ready=0.0, dispatch=0.01, retire=0.2,
                         worker=0)
        # the worker went idle at 0.05, long after the 0.01 dispatch
        tr.add_worker_spans(0, [(0, 0.07, 0.1, 0.06, 0.11, 0.05)])
        tr.finalize()
        (p,) = tr.phases
        assert p.queued == pytest.approx(0.05)
        assert p.dispatched == pytest.approx(0.01)
        assert sum(p.phase(n) for n in PHASES) == pytest.approx(
            p.latency, abs=1e-12)

    def test_finalize_clears_pending_maps(self):
        tr = make_tracer()
        tr.record_parent(qr_graph(), [0], 0.0, 0.01, 0.2, worker=0)
        tr.add_worker_spans(0, [(0, 0.03, 0.08, 0.02, 0.09, 0.0)])
        assert tr.finalize() == 1
        assert not tr._parent and not tr._wspans
        assert tr.finalize() == 0  # idempotent on an empty backlog
        assert len(tr.phases) == 1

    def test_phase_accessor_rejects_unknown_name(self):
        p = TaskPhases(tid=0, name="t", kernel="GEQRT", worker=0,
                       ready=0.0, dispatch=0.0, recv=0.0, start=0.0,
                       finish=0.0, publish=0.0, retire=0.0)
        with pytest.raises(KeyError, match="unknown phase"):
            p.phase("warp")
        assert set(PHASES) < set(p.to_dict())


# ----------------------------------------------------------------------
# overhead attribution
# ----------------------------------------------------------------------

def merged_tracer(pl):
    """Two hand-merged tasks on two workers, perfectly aligned clocks."""
    tr = make_tracer()
    tr.set_clock(clock(0, offset=0.0))
    tr.set_clock(clock(1, offset=0.0, residual=2e-5))
    stamps = [(0.0, 0.01, 0.02, 0.03, 0.08, 0.09, 0.10, 0),
              (0.02, 0.10, 0.11, 0.12, 0.20, 0.21, 0.23, 1)]
    for tid, (rd, dp, rc, st, fi, pb, rt, w) in enumerate(stamps):
        tr.record_parent(pl.graph, [tid], rd, dp, rt, worker=w)
        # each worker idle since the group became ready
        tr.add_worker_spans(w, [(tid, st, fi, rc, pb, rd)])
    tr.finalize()
    return tr


class TestOverheadReport:
    def test_distributed_attribution(self):
        pl = plan(2, 2, "greedy")
        rep = overhead_report(merged_tracer(pl), graph=pl, label="unit")
        assert rep.distributed
        assert rep.tasks == rep.records == 2
        assert rep.workers == 2
        assert rep.makespan == pytest.approx(0.23)
        for name in PHASES:
            assert rep.phase_means[name] == pytest.approx(
                rep.phase_totals[name] / 2)
        assert rep.ipc_tax_s == pytest.approx(
            sum(rep.phase_means[n] for n in IPC_PHASES))
        lat = sum(rep.phase_totals.values())
        assert rep.overhead_share == pytest.approx(
            1.0 - rep.phase_totals["computing"] / lat)
        # the 2-task chain is sequential: the gating-chain share exists
        assert rep.critical_path_overhead_share is not None
        assert 0.0 <= rep.critical_path_overhead_share <= 1.0
        assert [r["worker"] for r in rep.per_worker] == [0, 1]
        assert sum(r["count"] for r in rep.per_kernel) == 2
        assert rep.max_residual_s == pytest.approx(2e-5)
        assert len(rep.clock) == 2
        assert rep.aborted == 0 and rep.unmeasured == 0

    def test_plain_tracer_degenerates_to_two_phases(self):
        tr = Tracer(epoch=0.0)
        for tid in range(2):
            tr.record_group(qr_graph(), (tid,), submit=0.0, start=0.01,
                            finish=0.05)
        rep = overhead_report(tr)
        assert not rep.distributed
        assert rep.ipc_tax_s == 0.0
        for name in IPC_PHASES:
            assert rep.phase_totals[name] == 0.0
        assert rep.phase_totals["queued"] == pytest.approx(0.02)
        assert rep.phase_totals["computing"] == pytest.approx(0.08)
        assert "two-phase fallback" in render_overhead_report(rep)

    def test_render_formats(self):
        pl = plan(2, 2, "greedy")
        rep = overhead_report(merged_tracer(pl), graph=pl)
        text = render_overhead_report(rep, "text")
        assert "IPC tax" in text and "clock alignment" in text
        assert "worst alignment residual" in text
        md = render_overhead_report(rep, "markdown")
        assert md.startswith("## overhead report")
        loaded = json.loads(render_overhead_report(rep, "json"))
        assert loaded["tasks"] == 2 and loaded["distributed"]
        with pytest.raises(ValueError, match="unknown format"):
            render_overhead_report(rep, "yaml")


# ----------------------------------------------------------------------
# merged Chrome export
# ----------------------------------------------------------------------

class TestMergedChromeExport:
    def test_lanes_slivers_and_flow_arrows(self):
        pl = plan(2, 2, "greedy")
        tr = merged_tracer(pl)
        ev = distributed_to_events(tr)
        lanes = {e["args"]["name"] for e in ev if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert lanes == {"dispatch", "worker 0", "worker 1"}
        disp = [e for e in ev if e.get("cat") == "dispatch"]
        assert len(disp) == 2 and all(e["tid"] == 0 for e in disp)
        kern = [e for e in ev if e.get("cat") in ("panel", "update")]
        assert len(kern) == 2 and all(e["tid"] >= 1 for e in kern)
        over = [e for e in ev if e.get("cat") == "overhead"]
        assert {e["name"] for e in over} == {"deserialize", "publish"}
        starts = {e["id"]: e for e in ev
                  if e.get("cat") == "flow" and e["ph"] == "s"}
        ends = {e["id"]: e for e in ev
                if e.get("cat") == "flow" and e["ph"] == "f"}
        assert set(starts) == set(ends) == {t.tid for t in
                                            pl.graph.tasks[:2]}
        assert all(e["tid"] == 0 for e in starts.values())
        assert all(e["tid"] >= 1 and e["bp"] == "e"
                   for e in ends.values())

    def test_chrome_trace_picks_distributed_lanes(self):
        pl = plan(2, 2, "greedy")
        trace = chrome_trace(tracer=merged_tracer(pl))
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"dispatch", "flow"} <= cats
        # a plain tracer keeps the flat per-thread export
        tr = Tracer(epoch=0.0)
        tr.record_group(qr_graph(), (0,), 0.0, 0.01, 0.05)
        flat = chrome_trace(tracer=tr)
        assert "flow" not in {e.get("cat") for e in flat["traceEvents"]}

    def test_empty_capture_emits_placeholder(self):
        ev = distributed_to_events(make_tracer())
        assert any(e.get("args", {}).get("placeholder") for e in ev)

    def test_analyze_merged_trace_counts_kernels_once(self):
        """Satellite: ``analyze --from-trace`` on a merged trace must
        report per-worker utilization without double-counting the
        parent dispatch lane or the overhead slivers."""
        pl = plan(2, 2, "greedy")
        reports = analyze_chrome_trace(chrome_trace(tracer=merged_tracer(pl)))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.tasks == 2
        assert rep.processors == 2  # worker lanes only, not dispatch
        assert sum(k.count for k in rep.kernels) == 2
        # busy time is the kernel slices alone (0.05 + 0.08)
        assert rep.total_busy == pytest.approx(0.13, abs=1e-6)


# ----------------------------------------------------------------------
# end-to-end through a real pool
# ----------------------------------------------------------------------

class TestProcessEndToEnd:
    def test_phases_cover_every_task_and_telescope(self, rng, pool):
        tracer = DistributedTracer()
        metrics = MetricsRegistry()
        a = random_matrix(rng, 64, 32, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool,
                   tracer=tracer, metrics=metrics)
        n = len(f.graph.tasks)
        # one record per group; the members partition the tasks
        assert len(tracer.phases) == len(tracer.spans)
        assert sorted(t for p in tracer.phases for t in p.tids) == \
            list(range(n))
        assert sum(p.count for p in tracer.phases) == n
        assert all(p.measured and not p.aborted for p in tracer.phases)
        # the ISSUE acceptance bound: alignment residual well under 1 ms
        assert 0.0 < tracer.max_residual < 1e-3
        for p in tracer.phases:
            b = [p.ready, p.dispatch, p.recv, p.start, p.finish,
                 p.publish, p.retire]
            assert b == sorted(b)
            assert abs(sum(p.phase(nm) for nm in PHASES)
                       - p.latency) < 1e-9
        assert {p.worker for p in tracer.phases} == set(range(pool.workers))
        # per-run bookkeeping fully retired
        assert not pool._pending
        assert not tracer._parent and not tracer._wspans
        names = metrics.names()
        assert "procpool.clock.residual_us.w0" in names
        assert "procpool.clock.offset_us.w1" in names

    def test_sync_outlasts_slow_replies(self, rng, pool, monkeypatch):
        """The first eight sync replies arrive 2.5 ms late, as on a
        loaded host: the handshake pings on until a fast round trip
        bounds the residual under 1 ms."""
        recv, late = pool._recv, [8]

        def slow_recv(deadline, what):
            msg = recv(deadline, what)
            if msg[0] == "sync_ack" and late[0]:
                late[0] -= 1
                time.sleep(2.5e-3)
            return msg

        monkeypatch.setattr(pool, "_recv", slow_recv)
        tracer = DistributedTracer()
        factor(random_matrix(rng, 64, 32, np.float64), nb=NB, ib=4,
               mode="process", pool=pool, tracer=tracer)
        assert late == [0]
        assert 0.0 < tracer.max_residual < 1e-3

    def test_overhead_report_from_live_run(self, rng, pool):
        tracer = DistributedTracer()
        a = random_matrix(rng, 64, 32, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool,
                   tracer=tracer)
        rep = overhead_report(tracer, graph=f.graph)
        assert rep.distributed and rep.unmeasured == 0
        assert rep.tasks == len(f.graph.tasks)
        assert rep.phase_totals["computing"] > 0.0
        assert rep.ipc_tax_s > 0.0
        assert 0.0 < rep.overhead_share < 1.0
        assert rep.critical_path_overhead_share is not None
        assert len(rep.clock) == pool.workers

    def test_bus_holds_full_run_on_return(self, rng, pool):
        """The parent publishes every event itself, and the workers'
        end-of-run acks carry their span rows before the tracer is
        finalized — the bus and the tracer are complete the moment
        factor returns, with no polling window."""
        bus = EventBus(capacity=65536)
        tracer = DistributedTracer()
        a = random_matrix(rng, 64, 32, np.float64)
        f = factor(a, nb=NB, ib=4, mode="process", pool=pool, bus=bus,
                   tracer=tracer)
        n = len(f.graph.tasks)
        evs = bus.snapshot()
        assert sum(e.count for e in evs if e.kind == "group_done") == n
        done = [e.kind for e in evs]
        assert "run_done" in done
        assert done.index("run_done") > done.index("run_start")
        assert sum(p.count for p in tracer.phases) == n

    def test_traced_run_starts_only_queue_feeders(self, rng):
        """Worker spans ride the completion queue: a traced run starts
        no parent thread but multiprocessing's queue feeders."""
        before = set(threading.enumerate())
        a = random_matrix(rng, 64, 32, np.float64)
        with ProcessPool(workers=2, start_method="fork") as p:
            tracer = DistributedTracer()
            factor(a, nb=NB, ib=4, mode="process", pool=p, tracer=tracer)
            started = {t.name for t in threading.enumerate()
                       if t not in before}
        assert started <= {"QueueFeederThread"}, started
        assert all(p_.measured for p_ in tracer.phases)

    def test_zero_task_graph(self, rng, pool):
        g = TaskGraph(1, 1)  # no tasks added
        tracer = DistributedTracer()
        a = random_matrix(rng, NB, NB, np.float64)
        pool.run(g, TiledMatrix(a.copy(), NB), ib=4, tracer=tracer)
        assert not tracer.phases and not tracer.spans
        trace = chrome_trace(tracer=tracer)
        assert any(e.get("args", {}).get("placeholder")
                   for e in trace["traceEvents"])
        rep = overhead_report(tracer)
        assert rep.tasks == 0 and rep.makespan == 0.0
        render_overhead_report(rep)  # renders without dividing by zero

    def test_worker_death_closes_inflight_spans(self, rng):
        """Satellite: a worker dying mid-run surfaces as RuntimeError
        and every dispatched-but-unretired task is closed with the
        ``aborted`` tag instead of being dropped."""
        a = random_matrix(rng, 64, 64, np.float64)
        tracer = DistributedTracer()
        killed = []
        with ProcessPool(workers=2, start_method="fork") as p:
            def kill_worker_0(task, done, total):
                if not killed:
                    killed.append(True)
                    p._inqs[0].put(("die",))  # unknown kind: worker exits

            with pytest.raises(RuntimeError, match="died"):
                factor(a, nb=NB, ib=4, mode="process", pool=p,
                       tracer=tracer, on_task_done=kill_worker_0)
        assert tracer.aborted_count >= 1
        assert not p._pending  # nothing leaks from the aborted run
        for p_ in tracer.phases:
            if p_.aborted:
                assert not p_.measured
                assert p_.retire >= p_.dispatch >= p_.ready
        # the merged export tags aborted slices rather than hiding them
        ev = distributed_to_events(tracer)
        assert any(e["args"].get("aborted") for e in ev
                   if e["ph"] == "X" and "args" in e)

    def test_spawn_and_fork_produce_same_trace_structure(self, rng):
        """Satellite: merged-trace *structure* (lanes, slice kinds,
        flow arrows, task names) is identical under both start
        methods; only the timestamps differ."""
        a = random_matrix(rng, 48, 16, np.float64)

        def structure(start_method):
            tracer = DistributedTracer()
            factor(a, nb=NB, ib=4, mode="process", workers=2,
                   start_method=start_method, tracer=tracer)
            ev = distributed_to_events(tracer)
            # overhead slivers are elided when their phase rounds to
            # zero width, so they are not structural
            shape = sorted((e["ph"], e.get("cat"), e["name"])
                           for e in ev if e.get("cat") != "overhead")
            lanes = {e["args"]["name"] for e in ev if e["ph"] == "M"}
            return shape, lanes

        assert structure("fork") == structure("spawn")
