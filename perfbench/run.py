#!/usr/bin/env python3
"""The repository's benchmark: factor, solve and plan-sweep, drift-corrected.

Usage (from the repository root)::

    python3 perfbench/run.py --workload square-nb64 --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: all operations of the
workload run round-robin, one rep each per round, each rep preceded by
a calibration slice (``calib.py``) and followed by a correctness check
(``checks.py``); every timing is the median over the run's passing
reps, corrected for host drift.  ``--trace 1`` is the separate traced
run: it probes each layer from outside (``layers.py``), repeats each
operation with spans around its layer calls, and reports the
per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the metric names and units are those of ``BENCHMARK.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from spec import PINNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def prepare_process() -> None:
    """Pin BLAS threads, disable the on-disk plan cache (the run must
    write only inside its checkout), and make the program importable
    from source."""
    for k in PINNED:
        os.environ[k] = "1"
    os.environ["REPRO_PLAN_CACHE"] = "off"
    for p in (str(ROOT), str(ROOT / "src"), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


def setup_trial(name: str, smoke: bool) -> None:
    """One cold set-up, in a fresh process: import ``repro.api``, plan
    the workload's shape with its lazy artifacts, start a 1-worker pool
    through its first run.  Prints the parts as one JSON line."""
    from spec import SMOKE, WORKLOADS

    wl = (SMOKE if smoke else WORKLOADS)[name]
    t0 = time.perf_counter()
    import repro.api as api
    t1 = time.perf_counter()
    pl = api.plan(wl.p, wl.q, wl.scheme, wl.family)
    pl.bottom_levels()
    pl.level_groups()
    pl.dispatch_arrays()
    t2 = time.perf_counter()
    import numpy as np
    from repro.runtime import ProcessPool

    pool = ProcessPool(workers=1)
    try:
        api.factor(np.eye(wl.nb), nb=wl.nb, ib=wl.ib, mode="process",
                   pool=pool)
        t3 = time.perf_counter()
    finally:
        pool.close()
    print(json.dumps({"import_s": t1 - t0, "plan_s": t2 - t1,
                      "pool_s": t3 - t2, "setup_s": t3 - t0,
                      "tasks": len(pl)}))


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it to end.

    The process runtime starts the tracker before forking its workers;
    left alone, the tracker outlives the process that started it.  Call
    this after every pool is closed and every shared-memory segment is
    unlinked.  ``_stop`` is the standard library's own shutdown of the
    tracker (closing its pipe, then ``waitpid``); there is no public one.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` from
    ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        decl = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in decl[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(values: dict | None, units: dict, attempted: int,
                failed: int) -> str:
    """The final JSON line; refuses a metric set that differs from the
    declared one.  ``values`` is ``None`` for a run in which some
    operation failed on every rep: the line then reports the failures
    and no metrics."""
    if values is None:
        return json.dumps({"correct": False, "attempted": attempted,
                           "failed": failed, "metrics": {}})
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    })


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, min_rounds: int = 3, corrupt=None,
        out_dir: Path | None = HERE / "out") -> tuple:
    """Run one workload; return (metrics, attempted, failed, record).

    The metrics are ``None`` when some operation failed on every rep.
    """
    import numpy as np

    import calib
    import report
    from spec import SMOKE, WORKLOADS
    from work import Bench, failures

    wl = (SMOKE if smoke else WORKLOADS)[workload]
    calibrate = calib.Calibrator()
    bench = Bench(wl, seed, smoke=smoke)
    try:
        bench.warm_up()
        if trace:
            values, record = report.traced(bench, calibrate, seconds,
                                           min_rounds, corrupt,
                                           np.random.default_rng(seed))
        else:
            values, record = report.untraced(bench, calibrate, seconds,
                                             min_rounds, corrupt)
    except report.NoPassingReps as exc:
        # no metrics, but the failures are still counted and reported
        values, record = None, {"series": exc.series,
                                "table": [f"# {exc}"], "detail": {}}
    finally:
        bench.close()
    series, spans = record.pop("series"), record.pop("spans", None)
    attempted, failed, reasons = failures(series)
    record["samples"] = {name: [[s.raw, s.before, s.after, s.failure]
                                for s in ser.samples]
                         for name, ser in series.items()}
    record.update(workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), attempted=attempted, failed=failed,
                  failures=reasons)
    if out_dir is not None:
        report.write_record(out_dir, record, spans)
    return values, attempted, failed, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes, one round (self-tests)")
    ap.add_argument("--setup-trial", metavar="WORKLOAD",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    prepare_process()
    try:
        return run_command(ap, args)
    finally:
        stop_resource_tracker()


def run_command(ap: argparse.ArgumentParser,
                args: argparse.Namespace) -> int:
    """A set-up trial or one run of a workload; returns the exit code."""
    if args.setup_trial:
        setup_trial(args.setup_trial, args.smoke)
        return 0
    from spec import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = 50.0 if args.seconds is None else args.seconds
    units = declared_metrics()["per_layer" if args.trace
                               else "end_to_end"]
    values, attempted, failed, record = run(
        args.workload, seed, seconds, bool(args.trace), smoke=args.smoke,
        min_rounds=1 if args.smoke else 3)
    for line in record["table"]:
        print(line)
    print("# detail " + json.dumps(record["detail"]))
    print(result_line(values, units, attempted, failed))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())
