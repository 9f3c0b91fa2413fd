"""Tests for schedule analytics (S19).

The acceptance identities, checked on the paper's Table 3-5 grids:

* ``sum(lane.busy) + sum(lane.idle) == makespan * P``;
* the extracted critical path's total weight equals the makespan
  (unbounded *and* bounded — the bounded chain mixes dependency and
  worker-reuse edges but still tiles ``[0, makespan]``);
* slack is non-negative everywhere and zero exactly on tasks of some
  unbounded critical path.
"""

import json

import numpy as np
import pytest

from repro.api import plan, simulate
from repro.dag import build_dag
from repro.obs import Tracer
from repro.obs.analyze import (
    analyze,
    analyze_chrome_trace,
    analyze_sim,
    analyze_tracer,
    critical_path_tasks,
    overlay_diff,
    render_overlay,
    render_report,
    task_slack,
)
from repro.obs.chrome_trace import chrome_trace
from repro.schemes import greedy
from repro.sim import simulate_bounded, simulate_unbounded

#: the paper's Table 3-5 shape sample: tall, square-ish, and the
#: acceptance grid, across the scheme families the tables compare
GRIDS = [(15, 6), (30, 10)]
SCHEMES = ["greedy", "fibonacci", "flat-tree", "binary-tree",
           "plasma-tree(bs=4)"]


def bounded_cases():
    for p, q in GRIDS:
        for scheme in SCHEMES:
            for P in (4, 16):
                yield scheme, p, q, P


@pytest.mark.parametrize("scheme,p,q,P", list(bounded_cases()))
def test_busy_idle_identity(scheme, p, q, P):
    report = analyze_sim(simulate(scheme, p, q, processors=P))
    assert len(report.lanes) == P
    busy = sum(l.busy for l in report.lanes)
    idle = sum(l.idle for l in report.lanes)
    assert busy + idle == pytest.approx(report.makespan * P)
    assert busy == pytest.approx(report.total_busy)
    assert report.utilization == pytest.approx(busy / (report.makespan * P))


@pytest.mark.parametrize("scheme,p,q,P", list(bounded_cases()))
def test_bounded_critical_path_tiles_makespan(scheme, p, q, P):
    result = simulate(scheme, p, q, processors=P)
    cp = critical_path_tasks(result)
    assert cp.length == pytest.approx(result.makespan)
    # gapless, ordered chain from t=0 to the makespan
    assert cp.steps[0].start == 0.0
    assert cp.steps[0].via == "source"
    assert cp.steps[-1].finish == pytest.approx(result.makespan)
    for a, b in zip(cp.steps, cp.steps[1:]):
        assert b.start == pytest.approx(a.finish)
        assert b.via in {"dep", "worker"}
    assert cp.dep_edges + cp.worker_edges == len(cp) - 1


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("p,q", GRIDS)
def test_unbounded_critical_path_matches_plan(scheme, p, q):
    pl = plan(p, q, scheme)
    result = simulate(pl)  # unbounded ASAP
    cp = critical_path_tasks(result)
    assert cp.length == pytest.approx(pl.critical_path())
    assert cp.length == pytest.approx(result.makespan)
    # every edge of an unbounded chain is a true dependency
    assert cp.worker_edges == 0
    assert cp.dep_edges == len(cp) - 1


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("p,q", GRIDS)
def test_slack_nonnegative_and_critical(scheme, p, q):
    pl = plan(p, q, scheme)
    slack = task_slack(pl)
    assert (slack >= 0.0).all()
    # zero-slack tasks exist (the critical path itself) and every task
    # of the extracted unbounded chain has zero slack
    cp = critical_path_tasks(pl.unbounded())
    tids = [s.tid for s in cp.steps]
    assert np.all(slack[tids] == 0.0)


class TestAcceptanceGrid:
    """The issue's acceptance case: GREEDY (30, 10) on P=16."""

    @pytest.fixture(scope="class")
    def report(self):
        return analyze_sim(simulate("greedy", 30, 10, processors=16),
                           label="accept")

    def test_reports_utilization(self, report):
        assert report.utilization is not None
        assert 0.0 < report.utilization <= 1.0

    def test_reports_kernel_shares(self, report):
        shares = report.kernel_shares()
        assert set(shares) <= {"GEQRT", "UNMQR", "TSQRT", "TSMQR",
                               "TTQRT", "TTMQR"}
        assert "GEQRT" in shares and "TTQRT" in shares
        assert sum(shares.values()) == pytest.approx(1.0)
        for k in report.kernels:
            assert k.total == pytest.approx(k.mean * k.count)

    def test_critical_path_weight_is_makespan(self, report):
        assert report.critical_path.length == pytest.approx(report.makespan)

    def test_bounds_and_efficiency(self, report):
        b = report.bounds
        assert b["lower"] == max(b["critical_path"], b["work"], b["alap"])
        # at this grid point the ALAP area bound strictly beats the
        # classical max(cp, work/P) pair
        assert b["alap"] > max(b["critical_path"], b["work"])
        assert 0.0 < b["efficiency"] <= 1.0
        assert b["efficiency"] == pytest.approx(b["lower"] / report.makespan)
        assert b["paper_cp_lower_bound"] == 22 * 10 - 30

    def test_summary_round_trips_to_json(self, report):
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d
        s = report.summary()
        assert s["critical_path_length"] == report.critical_path.length
        assert s["utilization"] == report.utilization


class TestPaperLowerBound:
    """Theorem 1(3)'s ``22q - 30`` is attached only where it is
    verified (``p >= 2q``): the paper's own Table 5 breaks it on
    near-square grids, and a printed "lower bound" above an achieved
    critical path is wrong."""

    @pytest.mark.parametrize("q,cp", [(37, 780), (38, 796), (39, 812),
                                      (40, 826)])
    def test_table5_near_square_rows_get_no_bound(self, q, cp):
        report = analyze_sim(simulate("greedy", 40, q))
        assert report.critical_path.length == cp
        assert cp < 22 * q - 30  # the bound would be violated
        assert "paper_cp_lower_bound" not in report.bounds

    def test_attached_from_p_equal_2q(self):
        report = analyze_sim(simulate("greedy", 40, 20))
        bound = report.bounds["paper_cp_lower_bound"]
        assert bound == 22 * 20 - 30
        assert report.critical_path.length >= bound


class TestDispatch:
    def test_sim_result(self):
        res = simulate("greedy", 8, 4, processors=4)
        assert analyze(res).source == "sim"

    def test_plan_scheduled(self):
        pl = plan(8, 4, "greedy")
        rep = analyze(pl, processors=4)
        assert rep.processors == 4
        assert rep.makespan == simulate(pl, processors=4).makespan

    def test_plan_unbounded(self):
        pl = plan(8, 4, "greedy")
        rep = analyze(pl)
        assert rep.processors is None
        assert rep.makespan == pl.critical_path()

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            analyze(42)


def make_capture(p=4, q=2, scale=1e-4):
    g = build_dag(greedy(p, q), "TT")
    tr = Tracer()
    res = simulate_bounded(g, 2)
    for t in g.tasks:
        s, f = res.start[t.tid] * scale, res.finish[t.tid] * scale
        tr.record_group(g, (t.tid,), submit=s, start=s, finish=f,
                        worker=int(res.worker[t.tid]))
    return g, tr, res


class TestTracerAndTrace:
    def test_tracer_report(self):
        g, tr, res = make_capture()
        rep = analyze_tracer(tr)
        assert rep.source == "measured"
        assert rep.tasks == len(g.tasks)
        assert rep.makespan == pytest.approx(res.makespan * 1e-4)
        assert rep.critical_path is None and rep.bounds is None
        busy = sum(l.busy for l in rep.lanes)
        idle = sum(l.idle for l in rep.lanes)
        assert busy + idle == pytest.approx(rep.makespan * len(rep.lanes))

    def test_chrome_trace_round_trip(self):
        g, tr, res = make_capture()
        doc = chrome_trace(tracer=tr, sim=res, sim_time_scale=1e-4 * 1e6)
        reports = analyze_chrome_trace(doc)
        assert [r.label for r in reports] == ["measured", "simulated"]
        direct = analyze_tracer(tr)
        assert reports[0].tasks == direct.tasks
        assert reports[0].makespan == pytest.approx(direct.makespan)
        assert reports[0].total_busy == pytest.approx(direct.total_busy)
        assert reports[1].makespan == pytest.approx(res.makespan * 1e-4)

    def test_chrome_trace_from_file(self, tmp_path):
        _, tr, _ = make_capture()
        path = tmp_path / "t.json"
        path.write_text(json.dumps(chrome_trace(tracer=tr)))
        (rep,) = analyze_chrome_trace(str(path))
        assert rep.tasks == analyze_tracer(tr).tasks

    def test_empty_trace_placeholder_skipped(self):
        doc = chrome_trace(tracer=Tracer())
        (rep,) = analyze_chrome_trace(doc)
        assert rep.tasks == 0 and rep.makespan == 0.0

    def test_group_spans_count_tasks(self):
        """An inline capture holds one span per stacked group: every
        report counts the tasks the spans cover, live and after a
        Chrome round trip, and the kernel pivot spends each group's
        window once."""
        from repro.api import factor

        pl = plan(8, 8, "greedy")
        tr = Tracer()
        a = np.random.default_rng(3).standard_normal((256, 256))
        factor(a, nb=32, ib=8, scheme=pl, mode="batched", tracer=tr)
        n = len(pl.graph)
        assert len(tr) == len(pl.level_groups()) < n
        live = analyze_tracer(tr)
        (trip,) = analyze_chrome_trace(chrome_trace(tracer=tr))
        for rep in (live, trip):
            assert rep.tasks == n
            assert sum(k.count for k in rep.kernels) == n
            assert sum(lane.tasks for lane in rep.lanes) == n
            assert sum(k.total for k in rep.kernels) == pytest.approx(
                sum(s.duration for s in tr.spans))


class TestOverlay:
    def test_overhead_attribution(self):
        g, tr, res = make_capture(scale=2.0)  # "measured" = 2x model time
        measured = analyze_tracer(tr)
        simulated = analyze_sim(res)
        diff = overlay_diff(measured, simulated)
        assert diff["makespan"]["ratio"] == pytest.approx(2.0)
        for k, d in diff["kernels"].items():
            assert d["ratio"] == pytest.approx(2.0)
            assert d["overhead"] == pytest.approx(d["measured"]
                                                  - d["simulated"])
        text = render_overlay(diff)
        assert "measured vs simulated" in text
        assert "2.00x" in text


class TestRendering:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_sim(simulate("greedy", 8, 4, processors=4))

    def test_text(self, report):
        text = render_report(report, "text")
        assert "schedule report" in text
        assert "GEQRT" in text and "critical path" in text

    def test_markdown_has_tables(self, report):
        md = render_report(report, "markdown")
        assert md.startswith("## ")
        assert "| kernel" in md

    def test_json_is_deterministic(self, report):
        a = render_report(report, "json")
        assert a == render_report(report, "json")
        assert json.loads(a)["makespan"] == report.makespan

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, "yaml")


class TestEdgeCases:
    def test_empty_graph(self):
        from repro.dag.tasks import TaskGraph

        rep = analyze_sim(simulate_unbounded(TaskGraph(1, 1, "empty")))
        assert rep.tasks == 0
        assert rep.makespan == 0.0
        assert rep.critical_path.length == 0.0

    def test_single_task(self):
        res = simulate_bounded(build_dag(greedy(1, 1), "TT"), 1)
        rep = analyze_sim(res)
        assert rep.tasks == 1
        assert rep.utilization == pytest.approx(1.0)
        assert len(rep.critical_path) == 1
        assert rep.critical_path.steps[0].via == "source"

    def test_zero_weight_tasks_terminate(self):
        # measured-weight graphs can contain 0.0-weight kernels; the
        # backward walk must not cycle through simultaneous events
        g = build_dag(greedy(6, 2), "TT")
        zeroed = g.rescale({k: 0.0 for k in {t.kernel for t in g.tasks}})
        res = simulate_bounded(zeroed, 2)
        cp = critical_path_tasks(res)
        assert cp.length == pytest.approx(res.makespan) == 0.0
        assert len(cp) <= len(g.tasks)


class TestAnalyzeEvents:
    """Reports rebuilt from event-bus captures (S21)."""

    def _events(self):
        from repro.obs import EventBus
        bus = EventBus()
        bus.publish("run_start", total=4, count=2)
        bus.publish("task_done", t=0.10, tid=0, kernel="GEQRT",
                    worker=0, value=0.10)
        bus.publish("task_done", t=0.15, tid=1, kernel="TSQRT",
                    worker=1, value=0.05)
        bus.publish("group_done", t=0.40, kernel="TSMQR", worker=0,
                    count=2, value=0.20)
        bus.publish("run_done", count=4, value=0.40)
        return bus.snapshot()

    def test_report_from_live_snapshot(self):
        from repro.obs.analyze import analyze_events
        rep = analyze_events(self._events(), label="live")
        # window: earliest start (0.10-0.10=0) to last finish (0.40)
        assert rep.makespan == pytest.approx(0.40)
        assert rep.tasks == 4           # group_done counts 2 tasks
        assert rep.total_busy == pytest.approx(0.35)
        assert rep.processors == 2
        assert rep.utilization == pytest.approx(0.35 / (2 * 0.40))
        ks = {k.kernel: k for k in rep.kernels}
        assert ks["TSMQR"].count == 2
        assert ks["TSMQR"].mean == pytest.approx(0.10)

    def test_empty_capture(self):
        from repro.obs.analyze import analyze_events
        rep = analyze_events([])
        assert rep.tasks == 0 and rep.makespan == 0.0

    def test_kernels_in_canonical_order(self):
        from repro.obs.analyze import analyze_events
        rep = analyze_events(self._events())
        names = [k.kernel for k in rep.kernels]
        assert names == ["GEQRT", "TSQRT", "TSMQR"]


class TestAnalyzeTraceFile:
    """Format sniffing: Chrome JSON vs JSONL event logs (S21)."""

    def _run_with_bus(self):
        from repro.obs import EventBus, LiveState
        from repro.runtime import ExecOptions
        from repro.runtime.executor import execute_graph
        from repro.tiles.layout import TiledMatrix
        pl = plan(4, 4, "greedy")
        a = np.random.default_rng(0).standard_normal((4 * 16, 4 * 16))
        bus = EventBus()
        LiveState(total=len(pl.graph.tasks), nb=16).connect(bus)
        execute_graph(pl, TiledMatrix(a, 16), ExecOptions(mode="batched"),
                      ib=16, bus=bus)
        return pl, bus.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        from repro.obs import write_events_jsonl
        from repro.obs.analyze import analyze_trace_file
        pl, events = self._run_with_bus()
        path = write_events_jsonl(tmp_path / "run.jsonl", events)
        (rep,) = analyze_trace_file(path)
        assert rep.tasks == len(pl.graph.tasks)
        assert rep.makespan > 0
        assert sum(k.count for k in rep.kernels) == rep.tasks

    def test_gzipped_jsonl(self, tmp_path):
        from repro.obs import write_events_jsonl
        from repro.obs.analyze import analyze_trace_file
        _, events = self._run_with_bus()
        path = write_events_jsonl(tmp_path / "run.jsonl.gz", events)
        (rep,) = analyze_trace_file(path)
        assert rep.tasks > 0

    def test_chrome_trace_still_sniffed(self, tmp_path):
        from repro.obs.chrome_trace import write_chrome_trace
        tr = Tracer()
        tr.enabled = True
        pl = plan(3, 3, "greedy")
        a = np.random.default_rng(1).standard_normal((3 * 16, 3 * 16))
        from repro.runtime.executor import execute_graph
        from repro.tiles.layout import TiledMatrix
        execute_graph(pl, TiledMatrix(a, 16), ib=16, tracer=tr)
        path = tmp_path / "run.trace.json"
        write_chrome_trace(path, tr)
        from repro.obs.analyze import analyze_trace_file
        reports = analyze_trace_file(path)
        assert reports and reports[0].tasks == len(pl.graph.tasks)

    def test_report_renders(self, tmp_path):
        from repro.obs import write_events_jsonl
        from repro.obs.analyze import analyze_trace_file
        _, events = self._run_with_bus()
        path = write_events_jsonl(tmp_path / "run.jsonl", events)
        (rep,) = analyze_trace_file(path)
        text = render_report(rep)
        assert "makespan" in text.lower() or "TSMQR" in text
