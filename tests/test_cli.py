"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.api import plan
from repro.cli import build_parser, main, render_reference
from repro.runtime import ExecOptions


class TestCp:
    def test_basic(self, capsys):
        assert main(["cp", "greedy", "15", "6"]) == 0
        out = capsys.readouterr().out
        assert "128" in out

    def test_ts_family(self, capsys):
        assert main(["cp", "flat-tree", "15", "6", "--family", "TS"]) == 0
        assert str(12 * 15 + 18 * 6 - 32) in capsys.readouterr().out

    def test_plasma_bs(self, capsys):
        assert main(["cp", "plasma-tree", "15", "6", "--bs", "5"]) == 0
        assert "166" in capsys.readouterr().out


class TestTable:
    def test_table(self, capsys):
        assert main(["table", "greedy", "15", "3"]) == 0
        out = capsys.readouterr().out
        assert "38" in out  # last zero-out of Table 4a(a)


class TestSweep:
    def test_sweep(self, capsys):
        assert main(["sweep", "15", "6"]) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "fibonacci", "flat-tree", "binary-tree"):
            assert name in out
        assert "plan cache:" in out
        # greedy first (shortest cp)
        lines = [l for l in out.splitlines() if l.strip().startswith("greedy")]
        assert lines

    def test_metrics_json(self, tmp_path, capsys):
        import json

        from repro import clear_plan_cache
        path = tmp_path / "metrics.json"
        clear_plan_cache()
        assert main(["sweep", "15", "6", "--metrics-json", str(path)]) == 0
        snap1 = json.loads(path.read_text())
        assert snap1["plan_cache"]["builds"] >= 1
        # second identical sweep: every plan is a cache hit
        assert main(["sweep", "15", "6", "--metrics-json", str(path)]) == 0
        snap2 = json.loads(path.read_text())
        delta = snap2["plan_cache"]["hits"] - snap1["plan_cache"]["hits"]
        assert delta >= 1
        assert snap2["plan_cache"]["builds"] == snap1["plan_cache"]["builds"]
        assert "plan.build.seconds" in snap2["metrics"]

    def test_scheme_spec_via_cp(self, capsys):
        assert main(["cp", "plasma(bs=5)", "15", "6"]) == 0
        assert "166" in capsys.readouterr().out


class TestTune:
    def test_tune(self, capsys):
        assert main(["tune", "15", "6"]) == 0
        out = capsys.readouterr().out
        assert "best BS" in out
        assert "*" in out


class TestFactor:
    def test_random(self, capsys):
        assert main(["factor", "--random", "48x24", "--nb", "8"]) == 0
        out = capsys.readouterr().out
        assert "backward error" in out and "stable" in out

    def test_input_file(self, tmp_path, capsys):
        a = np.random.default_rng(0).standard_normal((24, 12))
        path = tmp_path / "a.npy"
        np.save(path, a)
        assert main(["factor", "--input", str(path), "--nb", "8"]) == 0

    def test_save_and_reload(self, tmp_path, capsys):
        out_path = tmp_path / "f.npz"
        assert main(["factor", "--random", "24x12", "--nb", "8",
                     "--save", str(out_path)]) == 0
        from repro import load_factorization
        g = load_factorization(out_path)
        assert g.n == 12

    def test_missing_source(self, capsys):
        assert main(["factor"]) == 2


class TestTrace:
    def test_gantt(self, capsys):
        assert main(["trace", "greedy", "8", "3", "--workers", "4"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_csv(self, capsys):
        assert main(["trace", "greedy", "6", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("task,")

    def test_json(self, capsys):
        import json
        assert main(["trace", "greedy", "6", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and data

    def test_priority_option(self, capsys):
        assert main(["trace", "greedy", "6", "2", "--priority",
                     "panel-first"]) == 0

    def test_chrome(self, capsys):
        import json
        assert main(["trace", "greedy", "6", "2", "--workers", "3",
                     "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs
        for e in xs:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)


class TestProfile:
    def test_profile_writes_trace_and_summary(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["profile", "greedy", "4", "2", "--nb", "8", "--ib", "4",
                     "--backend", "reference", "--workers", "2",
                     "--out", str(out_path),
                     "--metrics-json", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "tasks.retired.GEQRT" in out
        assert "kernel.seconds.GEQRT" in out
        assert "makespan" in out
        doc = json.loads(out_path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs and {e["pid"] for e in xs} == {1, 2}  # measured + simulated
        snap = json.loads(metrics_path.read_text())
        assert snap["tasks.retired.GEQRT"]["value"] > 0

    def test_profile_no_sim_sequential(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "trace.json"
        assert main(["profile", "greedy", "3", "2", "--nb", "8", "--ib", "4",
                     "--backend", "reference", "--workers", "1", "--no-sim",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {1}  # measured lanes only


class TestOverhead:
    """``profile`` prints the overhead report in every mode: six phases
    from process mode's distributed tracer, the two-phase view from the
    plain spans of the other modes."""

    ARGS = ["profile", "greedy", "3", "2", "--nb", "8", "--ib", "4",
            "--mode", "process", "--workers", "2", "--start-method", "fork",
            "--no-sim"]

    def test_process_mode_phase_breakdown(self, tmp_path, capsys):
        import json
        json_path = tmp_path / "overhead.json"
        assert main(self.ARGS + ["--overhead-json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "overhead report" in out
        assert "IPC tax" in out
        assert "clock alignment" in out
        for phase in ("queued", "dispatched", "deserialized", "computing",
                      "published", "retired"):
            assert phase in out
        doc = json.loads(json_path.read_text())
        assert doc["distributed"] and doc["tasks"] > 0
        assert doc["aborted"] == 0
        # phase sums equal summed task latency (telescoping identity)
        lat = sum(w["latency"] for w in doc["per_worker"])
        assert abs(sum(doc["phase_totals"].values()) - lat) < 1e-6
        assert 0 < doc["max_residual_s"] < 1e-3

    def test_task_mode_degenerates(self, capsys):
        assert main(["profile", "greedy", "3", "2", "--nb", "8",
                     "--ib", "4", "--mode", "task", "--workers", "2"]) == 0
        assert "two-phase fallback" in capsys.readouterr().out

    def test_profile_process_merged_trace_round_trips(self, tmp_path,
                                                      capsys):
        """profile --mode process writes a merged multi-lane trace that
        analyze --from-trace reads back without double-counting the
        dispatch lane."""
        import json
        out_path = tmp_path / "merged.json"
        assert main(["profile", "greedy", "3", "2", "--nb", "8",
                     "--ib", "4", "--workers", "2", "--mode", "process",
                     "--start-method", "fork", "--no-sim",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "overhead report" in out and "IPC tax" in out
        doc = json.loads(out_path.read_text())
        evs = doc["traceEvents"]
        flows = [e for e in evs if e.get("cat") == "flow"]
        assert flows and {e["ph"] for e in flows} == {"s", "f"}
        assert any(e.get("cat") == "dispatch" for e in evs)
        assert main(["analyze", "--from-trace", str(out_path)]) == 0
        report = capsys.readouterr().out
        assert "schedule report" in report


class TestAnalyze:
    def test_bounded_report(self, capsys):
        assert main(["analyze", "greedy", "30", "10", "--workers", "16"]) == 0
        out = capsys.readouterr().out
        assert "schedule report" in out
        assert "utilization" in out
        assert "critical path" in out and "(= makespan)" in out
        for kernel in ("GEQRT", "UNMQR", "TTQRT", "TTMQR"):
            assert kernel in out

    def test_unbounded_report(self, capsys):
        assert main(["analyze", "greedy", "15", "6"]) == 0
        out = capsys.readouterr().out
        assert "processors unbounded" in out
        assert "128" in out  # the Table 5 critical path

    def test_json_format(self, capsys):
        import json
        assert main(["analyze", "greedy", "8", "4", "--workers", "4",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["processors"] == 4
        assert doc["critical_path"]["length"] == doc["makespan"]
        assert len(doc["lanes"]) == 4

    def test_markdown_format(self, capsys):
        assert main(["analyze", "greedy", "6", "3", "--workers", "2",
                     "--format", "markdown"]) == 0
        assert "| kernel" in capsys.readouterr().out

    def test_from_trace(self, tmp_path, capsys):
        import json
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "greedy", "6", "2", "--workers", "3",
                     "--format", "chrome"]) == 0
        trace_path.write_text(capsys.readouterr().out)
        assert main(["analyze", "--from-trace", str(trace_path)]) == 0
        assert "schedule report" in capsys.readouterr().out

    def test_trace_and_scheme_conflict(self, tmp_path, capsys):
        assert main(["analyze", "greedy", "6", "2",
                     "--from-trace", "x.json"]) == 2

    def test_missing_args(self, capsys):
        assert main(["analyze"]) == 2
        assert main(["analyze", "greedy"]) == 2

    def test_scheme_spec(self, capsys):
        assert main(["analyze", "plasma(bs=5)", "15", "6",
                     "--workers", "8"]) == 0
        assert "schedule report" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["cholesky(t=8)", "lu(p=8,q=8)",
                                      "qr(p=8,q=4)"])
    def test_problem_spec_bounds(self, capsys, spec):
        """A problem spec reports its makespan against every lower
        bound that applies, ALAP included."""
        assert main(["analyze", spec, "--workers", "4"]) == 0
        out = capsys.readouterr().out
        for line in ("makespan", "DAG critical path", "work / P",
                     "ALAP area bound", "best lower bound", "efficiency"):
            assert line in out, (spec, line)
        assert ("paper 22q - 30" in out) == spec.startswith("qr")

    def test_bad_spec_fails_cleanly(self, capsys):
        assert main(["analyze", "cholesky(t=0)"]) == 2
        assert main(["analyze", "no-such-tree", "4", "2"]) == 2
        assert "analyze:" in capsys.readouterr().err


class TestSweepCacheLine:
    def test_sweep_reports_evictions_and_disk_errors(self, capsys):
        assert main(["sweep", "15", "6"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "plan cache:" in l)
        assert "evictions" in line
        assert "disk errors" in line


class TestProfileAnalytics:
    def test_profile_prints_report_and_overlay(self, tmp_path, capsys):
        assert main(["profile", "greedy", "4", "2", "--nb", "8", "--ib", "4",
                     "--backend", "reference", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "schedule report" in out
        assert "measured vs simulated" in out

    def test_batched_profile_counts_tasks_and_overlays(self, capsys):
        """Inline spans are groups: the summary counts tasks, and the
        simulated overlay runs on per-task means (kernel seconds over
        retired tasks)."""
        assert main(["profile", "greedy", "4", "4", "--nb", "16", "--ib",
                     "8", "--mode", "batched"]) == 0
        out = capsys.readouterr().out
        n = len(plan(4, 4, "greedy").graph)
        assert f"tasks            {n}\n" in out
        assert "measured vs simulated" in out
        assert "simulated        " in out

    def test_no_analyze_flag(self, capsys):
        assert main(["profile", "greedy", "3", "2", "--nb", "8", "--ib", "4",
                     "--backend", "reference", "--workers", "1",
                     "--no-analyze"]) == 0
        out = capsys.readouterr().out
        assert "schedule report" not in out


class TestRecommend:
    def test_cp_only(self, capsys):
        assert main(["recommend", "40", "5"]) == 0
        out = capsys.readouterr().out
        assert "scheme='greedy'" in out

    def test_with_model(self, capsys):
        assert main(["recommend", "40", "5", "--cores", "48",
                     "--gamma", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "pred GFLOP/s" in out and "greedy" in out


class TestCoarse:
    def test_greedy_table(self, capsys):
        assert main(["coarse", "greedy", "15", "6"]) == 0
        out = capsys.readouterr().out
        assert "critical path 14" in out

    def test_unknown_algorithm(self, capsys):
        assert main(["coarse", "magic", "5", "2"]) == 2


class TestOptimal:
    def test_small_grid(self, capsys):
        assert main(["optimal", "4", "1"]) == 0
        out = capsys.readouterr().out
        assert "optimal critical path" in out

    def test_banded(self, capsys):
        assert main(["optimal", "4", "4", "--band", "3"]) == 0
        out = capsys.readouterr().out
        assert "58" in out  # 22q - 30 at q = 4

    def test_too_large_rejected(self, capsys):
        assert main(["optimal", "30", "30", "--max-leaves", "10"]) == 2


class TestPredict:
    def test_predict_runs(self, capsys):
        assert main(["predict", "--nb", "16", "--cores", "8", "--p", "16"]) == 0
        out = capsys.readouterr().out
        assert "gamma_seq" in out and "greedy" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fly"])


class TestExecFlags:
    """The execution flags come from ExecOptions's fields: one set for
    every subcommand that executes, with the fields' choices and help,
    and the fields' defaults except for these overrides; each help
    ends with the command's own default."""

    OVERRIDES = {"factor": {}, "profile": {"workers": 4}}

    def _flags(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a for a in sub.choices[command]._actions
                if a.dest in {f.name for f in fields(ExecOptions)}}

    def test_same_flags_choices_and_defaults(self):
        for command, overrides in self.OVERRIDES.items():
            flags = self._flags(command)
            assert sorted(flags) == sorted(
                f.name for f in fields(ExecOptions) if f.metadata), command
            for f in fields(ExecOptions):
                if not f.metadata:
                    continue
                act = flags[f.name]
                assert act.option_strings == [
                    "--" + f.name.replace("_", "-")]
                assert act.default == overrides.get(f.name, f.default), (
                    command, f.name)
                assert act.choices == f.metadata.get("choices")
                shown = (f.metadata["unset"] if act.default is None
                         else act.default)
                assert act.help == f"{f.metadata['help']}; default: {shown}"

    def test_profile_help_shows_its_workers_default(self, capsys):
        """profile runs 4 workers unless told otherwise, and its help
        says so: omitting the flag does not run sequentially there."""
        with pytest.raises(SystemExit):
            main(["profile", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("--workers WORKERS worker threads (task mode; 1 runs "
                "sequentially) or worker processes (process mode); batched "
                "mode ignores it; default: 4") in text
        assert "omit for sequential" not in text

    def test_simulation_workers_is_a_processor_count(self):
        for command in ("trace", "analyze"):
            sub = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
            dests = {a.dest for a in sub.choices[command]._actions}
            assert "workers" in dests and "backend" not in dests

    def test_flags_build_the_bundle(self, capsys):
        assert main(["factor", "--random", "40x16", "--nb", "8",
                     "--mode", "batched", "--backend", "reference"]) == 0
        assert "batched/reference" in capsys.readouterr().out


class TestProgress:
    """--progress dashboards degrade to plain stderr lines off-TTY,
    keeping stdout machine-parseable."""

    def test_factor_progress_headless(self, capsys):
        assert main(["factor", "--random", "96x48", "--nb", "16",
                     "--progress"]) == 0
        res = capsys.readouterr()
        assert "\x1b[" not in res.err        # no ANSI escapes in logs
        assert "tasks (100.0%)" in res.err   # final forced paint
        assert "backward error" in res.out   # results stay on stdout

    def test_factor_progress_batched(self, capsys):
        assert main(["factor", "--random", "96x48", "--nb", "16",
                     "--mode", "batched", "--progress"]) == 0
        res = capsys.readouterr()
        assert "tasks (100.0%)" in res.err
        assert "drift" in res.out            # predicted-vs-realized line

    def test_profile_progress(self, capsys):
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--progress", "--no-sim",
                     "--no-analyze"]) == 0
        assert "tasks (100.0%)" in capsys.readouterr().err


class TestProfileExports:
    def test_events_jsonl_feeds_analyze(self, tmp_path, capsys):
        ev = tmp_path / "run.jsonl.gz"
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--events", str(ev), "--no-sim",
                     "--no-analyze"]) == 0
        assert ev.exists()
        capsys.readouterr()
        assert main(["analyze", "--from-trace", str(ev)]) == 0
        out = capsys.readouterr().out
        assert "GEQRT" in out

    def test_prometheus_export_parses(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text
        prom = tmp_path / "metrics.prom"
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--prometheus", str(prom),
                     "--no-sim", "--no-analyze"]) == 0
        fams = parse_prometheus_text(prom.read_text())
        assert any(n.startswith("repro_") for n in fams)
        # the sampler's process series ride along
        assert "repro_sampler_rss_bytes" in fams

    def test_batched_events(self, tmp_path, capsys):
        ev = tmp_path / "run.jsonl"
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--mode", "batched", "--events",
                     str(ev), "--no-analyze"]) == 0
        from repro.obs import read_events_jsonl
        kinds = [e.kind for e in read_events_jsonl(ev)]
        assert kinds[0] == "run_start" and kinds[-1] == "run_done"
        assert "group_done" in kinds


class TestTop:
    """``profile --progress`` is the live dashboard: the final paint on
    stderr, the drift and summary lines on stdout."""

    def test_headless_run_summarizes(self, capsys):
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--mode", "batched", "--progress"]) == 0
        res = capsys.readouterr()
        assert "retired 50/50 tasks" in res.out
        assert "published" in res.out and "dropped" in res.out
        assert "tasks (100.0%)" in res.err   # dashboard final paint

    def test_threaded_mode(self, capsys):
        assert main(["profile", "greedy", "3", "3", "--nb", "16",
                     "--ib", "16", "--workers", "2", "--progress"]) == 0
        assert "drift" in capsys.readouterr().out


class TestAnalyzeFromTrace:
    def test_chrome_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(["profile", "greedy", "4", "4", "--nb", "16",
                     "--ib", "16", "--out", str(trace), "--no-sim",
                     "--no-analyze"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--from-trace", str(trace)]) == 0
        assert "GEQRT" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["analyze", "--from-trace", "/nonexistent.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_is_one_document(self, tmp_path, capsys):
        """A profile trace holds a measured and a simulated process:
        --format json prints one array of their reports, and a
        single-process trace prints the report object itself."""
        import json
        trace = tmp_path / "t.json"
        assert main(["profile", "greedy", "4", "2", "--nb", "8", "--ib",
                     "4", "--backend", "reference", "--workers", "2",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--from-trace", str(trace),
                     "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert isinstance(docs, list) and len(docs) == 2
        assert all(d["makespan"] > 0 for d in docs)
        single = tmp_path / "sim.json"
        assert main(["trace", "greedy", "6", "2", "--workers", "3",
                     "--format", "chrome"]) == 0
        single.write_text(capsys.readouterr().out)
        assert main(["analyze", "--from-trace", str(single),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["processors"] == 3


class TestReference:
    """docs/cli.md is the parser's own ``--help`` text; each command
    is one job."""

    DOC = Path(__file__).resolve().parents[1] / "docs" / "cli.md"

    def test_docs_match_the_parser(self):
        assert self.DOC.read_text(encoding="utf-8") == render_reference(), (
            "docs/cli.md is stale; regenerate it with PYTHONPATH=src "
            "python -c \"from repro.cli import render_reference; "
            "print(render_reference(), end='')\" > docs/cli.md")

    def test_render_ignores_columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        wide = render_reference()
        monkeypatch.setenv("COLUMNS", "40")
        assert render_reference() == wide
        assert max(len(line) for line in wide.splitlines()) <= 80

    def test_examples_parse(self):
        parser = build_parser()
        text = parser.epilog.replace("\\\n", " ")
        examples = [shlex.split(line) for line in text.splitlines()
                    if line.strip().startswith("python -m repro")]
        assert len(examples) >= 10
        for argv in examples:
            parser.parse_args(argv[3:])

    @pytest.mark.parametrize("command", ["overhead", "top", "sim"])
    def test_folded_commands_are_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "greedy", "4", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
