"""Tests for the Chrome trace-event exporter (schema and lanes)."""

import json

import pytest

from repro.dag import build_dag
from repro.obs import Tracer, chrome_trace, write_chrome_trace
from repro.obs.chrome_trace import sim_to_events, to_chrome_json, tracer_to_events
from repro.schemes import greedy
from repro.sim import simulate_bounded, simulate_unbounded


@pytest.fixture
def capture():
    g = build_dag(greedy(4, 2), "TT")
    tr = Tracer()
    t0 = 0.0
    for t in g.tasks:
        tr.record_group(g, (t.tid,), submit=t0, start=t0 + 1e-4,
                        finish=t0 + 2e-4)
        t0 += 2e-4
    return g, tr


@pytest.fixture
def bounded():
    return simulate_bounded(build_dag(greedy(4, 2), "TT"), 3)


def complete_events(events):
    return [e for e in events if e["ph"] == "X"]


class TestEventSchema:
    def test_tracer_events_have_required_keys(self, capture):
        g, tr = capture
        xs = complete_events(tracer_to_events(tr))
        assert len(xs) == len(g.tasks)
        for e in xs:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert e["ph"] == "X"
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert e["pid"] == 1
            assert e["args"]["kernel"] in {"GEQRT", "UNMQR", "TSQRT",
                                           "TSMQR", "TTQRT", "TTMQR"}

    def test_sim_events_have_required_keys(self, bounded):
        xs = complete_events(sim_to_events(bounded))
        assert len(xs) == len(bounded.graph.tasks)
        for e in xs:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert e["pid"] == 2
            assert 0 <= e["tid"] < 3

    def test_metadata_names_lanes(self, bounded):
        ms = [e for e in sim_to_events(bounded) if e["ph"] == "M"]
        names = {e["name"] for e in ms}
        assert "process_name" in names and "thread_name" in names

    def test_time_scale(self, bounded):
        base = complete_events(sim_to_events(bounded, time_scale=1.0))
        scaled = complete_events(sim_to_events(bounded, time_scale=1e6))
        for a, b in zip(base, scaled):
            assert b["ts"] == pytest.approx(a["ts"] * 1e6)
            assert b["dur"] == pytest.approx(a["dur"] * 1e6)

    def test_unbounded_sim_goes_to_one_lane(self):
        res = simulate_unbounded(build_dag(greedy(4, 2), "TT"))
        xs = complete_events(sim_to_events(res))
        assert {e["tid"] for e in xs} == {0}


class TestEdgeCases:
    """Empty sources and zero-duration spans must stay Perfetto-visible."""

    def test_empty_tracer_emits_placeholder(self):
        doc = chrome_trace(tracer=Tracer())
        xs = complete_events(doc["traceEvents"])
        assert len(xs) == 1
        assert xs[0]["args"]["placeholder"] is True
        assert xs[0]["dur"] > 0

    def test_empty_sim_emits_placeholder(self):
        from repro.dag.tasks import TaskGraph

        res = simulate_unbounded(TaskGraph(1, 1, "empty"))
        assert len(res.graph.tasks) == 0
        xs = complete_events(sim_to_events(res))
        assert len(xs) == 1
        assert xs[0]["args"]["placeholder"] is True

    def test_zero_duration_span_is_clamped(self):
        from repro.obs.chrome_trace import MIN_EVENT_DUR_US

        g = build_dag(greedy(3, 1), "TT")
        tr = Tracer()
        for t in g.tasks:
            tr.record_group(g, (t.tid,), submit=0.0, start=1.0, finish=1.0)
        xs = complete_events(tracer_to_events(tr))
        assert len(xs) == len(g.tasks)
        for e in xs:
            assert e["dur"] == MIN_EVENT_DUR_US
            assert e["args"]["zero_duration"] is True

    def test_zero_weight_sim_task_is_clamped(self):
        g = build_dag(greedy(3, 1), "TT")
        rescaled = g.rescale({k: 0.0 for k in
                              {t.kernel for t in g.tasks}})
        res = simulate_unbounded(rescaled)
        for e in complete_events(sim_to_events(res)):
            assert e["dur"] > 0
            assert e["args"]["zero_duration"] is True

    def test_positive_durations_not_tagged(self, bounded):
        for e in complete_events(sim_to_events(bounded)):
            assert "zero_duration" not in e["args"]

    def test_normal_trace_has_no_placeholder(self, capture):
        _, tr = capture
        for e in complete_events(tracer_to_events(tr)):
            assert "placeholder" not in e["args"]


class TestTopLevel:
    def test_overlay_has_both_process_groups(self, capture, bounded):
        _, tr = capture
        doc = chrome_trace(tracer=tr, sim=bounded)
        pids = {e["pid"] for e in complete_events(doc["traceEvents"])}
        assert pids == {1, 2}
        assert doc["displayTimeUnit"] == "ms"

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            chrome_trace()

    def test_json_is_valid(self, capture):
        _, tr = capture
        doc = json.loads(to_chrome_json(tracer=tr))
        assert isinstance(doc["traceEvents"], list)

    def test_write_roundtrip(self, tmp_path, capture, bounded):
        _, tr = capture
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(path, tracer=tr, sim=bounded,
                                  sim_time_scale=1e6) == path
        doc = json.load(open(path))
        assert len(complete_events(doc["traceEvents"])) > 0
