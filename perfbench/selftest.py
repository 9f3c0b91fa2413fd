#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They check that a corrupted result is counted as a failed operation
(and its time dropped), that a run in which an operation fails on
every rep still reports its failures, that a traced factor is
``factor()`` itself, that ``BENCHMARK.json`` is well formed, and that
a tiny-size run of every workload, untraced and traced, passes,
prints exactly the declared metric set and leaves no process behind.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.prepare_process()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import repro.api as api  # noqa: E402
from spans import SpanLog  # noqa: E402
from spec import SMOKE, TIMED, WORKLOADS  # noqa: E402
from work import FACTOR_LAYERS, tail, traced_factor  # noqa: E402


def _corrupting_run(workload: str, corrupt):
    values, attempted, failed, record = run.run(
        workload, seed=3, seconds=0, trace=False, smoke=True, min_rounds=2,
        corrupt=corrupt, out_dir=None)
    return record


def test_corrupted_r_counts_as_failure():
    def corrupt(metric, rep, result):
        if metric == "batched_s" and rep == 0:
            result.context.tiled.array[0, 1] += 1.0  # an entry of R
        return result

    record = _corrupting_run("square-nb64", corrupt)
    assert record["failed"] == 1, record["failures"]
    assert "R differs" in record["failures"][0]
    assert record["detail"]["timings"]["batched_s"]["n"] == 3


def test_wrong_critical_path_counts_as_failure():
    def corrupt(metric, rep, rows):
        if metric == "sweep_s" and rep == 1:
            rows[0] = dict(rows[0], cp=rows[0]["cp"] + 1)  # flat-tree
        return rows

    record = _corrupting_run("tall-ts-nb32", corrupt)
    assert record["failed"] == 1, record["failures"]
    assert "cp" in record["failures"][0]
    assert record["detail"]["timings"]["sweep_s"]["n"] == 3


def test_operation_failing_every_rep_still_reports_its_failures():
    def corrupt(metric, rep, result):
        if metric == "lapack_s":
            result.context.tiled.array[0, 1] += 1.0
        return result

    values, attempted, failed, record = run.run(
        "square-nb64", seed=3, seconds=0, trace=False, smoke=True,
        min_rounds=2, corrupt=corrupt, out_dir=None)
    assert values is None
    assert failed == 4, record["failures"]  # lapack runs twice a round
    line = json.loads(run.result_line(values, {}, attempted, failed))
    assert line == {"correct": False, "attempted": attempted,
                    "failed": failed, "metrics": {}}


def test_traced_factor_is_factor_with_layer_spans():
    module = importlib.import_module("repro.core.tiled_qr")
    names = {attr: getattr(module, attr) for attr in FACTOR_LAYERS}
    a = np.random.default_rng(0).standard_normal((40, 24))
    log = SpanLog()
    fact, root = traced_factor(log, "task",
                               lambda: api.factor(a, nb=8, ib=4))
    assert {attr: getattr(module, attr) for attr in FACTOR_LAYERS} == names
    assert set(log.child_durations(root)) == set(FACTOR_LAYERS.values())
    assert np.array_equal(fact.r(), api.factor(a, nb=8, ib=4).r())


def test_sweep_checks_catch_each_formula():
    good = {"problem": "qr", "spec": "flat-tree", "p": 40, "q": 4,
            "family": "TT", "cp": 6 * 40 + 16 * 4 - 22, "makespan": 1e9,
            "work": 1.0, "tasks": 1, "analyze_lower": 1.0}
    assert checks.check_sweep_row(good, 48) is None
    for bad in (dict(good, cp=good["cp"] - 1),          # flat-tree exact
                dict(good, spec="binary-tree", p=32, cp=1e6),  # exact
                dict(good, spec="greedy", cp=1e6),      # above the bound
                dict(good, spec="fibonacci", cp=10.0),  # below 22q - 30
                dict(good, makespan=good["cp"] - 1),    # beats the cp
                dict(good, problem="cholesky", spec="cholesky(t=4)",
                     cp=27.0)):                         # golden 9t - 10
        assert checks.check_sweep_row(bad, 48) is not None, bad


def test_benchmark_json_is_well_formed():
    decl = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(decl) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in decl["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in decl["workloads"]]
    for m in decl["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in decl["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert len(names) == len(set(names))
    for name in names:
        assert checks.METRIC_NAME.fullmatch(name), name
    e2e = {m["name"]: m for m in decl["end_to_end"]}
    assert set(e2e) == set(TIMED) | {"peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_tail_and_span_self_times():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)
    values = [float(i) for i in range(1, 41)]  # 40 samples: p75
    assert tail(values) == (30.0, 75)
    log = SpanLog()
    with log.span("root") as root:
        with log.span("a"):
            with log.span("b"):
                pass
        with log.span("a"):
            pass
    selfs = log.self_times(root)
    assert abs(sum(selfs.values()) - log.duration(root)) < 1e-12
    assert set(selfs) == {"root", "a", "b"}


def _session_members(sid: int) -> list[str]:
    """Processes still in session ``sid``, exited but unreaped ones
    included; empty where there is no ``/proc``."""
    proc_dir = Path("/proc")
    if not proc_dir.is_dir():
        return []
    left = []
    for entry in proc_dir.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        head, rest = stat.rsplit(")", 1)
        fields = rest.split()  # state, ppid, pgrp, session, ...
        if int(fields[3]) == sid:
            left.append(f"{head}) {fields[0]}")
    return left


def _smoke(workload: str, trace: int) -> dict:
    """One tiny run in a session of its own; it must leave no process
    behind."""
    with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "0", "--trace", str(trace),
             "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=run.ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert proc.returncode == 0, err[-2000:]
    left = _session_members(proc.pid)
    assert not left, f"the run left processes behind: {left}"
    return json.loads(out.strip().splitlines()[-1])


def test_smoke_runs_print_the_declared_metrics():
    declared = run.declared_metrics()
    for workload in SMOKE:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = _smoke(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] is True and out["failed"] == 0, out
            assert out["attempted"] >= 1
            assert set(out["metrics"]) == set(declared[kind])
            for name, m in out["metrics"].items():
                assert m["unit"] == declared[kind][name]
                assert isinstance(m["value"], float)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
