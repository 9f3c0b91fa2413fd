"""Turn a run's samples and spans into metrics, a table and a record."""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path

import layers
from spans import SpanLog
from spec import CALIB_REF_S, PATHS, TIMED, TRACED_TIMED
from work import Bench, blas_threads, kernel_counts, tail

from benchmarks.snapshot import host_metadata

med = statistics.median


def host_record(bench: Bench, calib_median: float) -> dict:
    """Host facts every result is written with."""
    rec = host_metadata()
    rec.update(blas_threads=blas_threads(),
               start_method=bench.pool.start_method,
               pool_workers=bench.pool.workers,
               threaded_workers=PATHS["threaded"]["workers"],
               calib_median_s=calib_median, calib_ref_s=CALIB_REF_S)
    return rec


def parent_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calib_median(series: dict) -> float:
    """Median time of the run's calibration slices."""
    return med(s.before for ser in series.values() for s in ser.samples)


class NoPassingReps(Exception):
    """An operation failed on every rep, so the run has no value for
    it; carries the run's series so its failures can still be counted."""

    def __init__(self, name: str, series: dict):
        super().__init__(f"every {name} rep failed: "
                         f"{series[name].samples[0].failure}")
        self.series = series


def require_passing(series: dict) -> None:
    """Raise :class:`NoPassingReps` if some series has no passing rep."""
    for name, ser in series.items():
        if not ser.ok():
            raise NoPassingReps(name, series)


def timing_summary(series: dict,
                   metrics: tuple = TIMED) -> tuple[dict, list[str]]:
    """Per timed metric: corrected and raw medians, tail, sample count."""
    out, lines = {}, []
    lines.append(f"{'metric':<12}{'corrected':>12}{'raw':>12}"
                 f"{'tail':>12}{'pct':>5}{'n':>5}")
    for m in metrics:
        ok = series[m].ok()
        corr = [s.corrected for s in ok]
        t_val, t_pct = tail(corr)
        out[m] = {"corrected": med(corr), "raw": med(s.raw for s in ok),
                  "tail": t_val, "tail_pct": t_pct, "n": len(ok)}
        r = out[m]
        lines.append(f"{m:<12}{r['corrected']:>12.5f}{r['raw']:>12.5f}"
                     f"{r['tail']:>12.5f}{r['tail_pct']:>5}{r['n']:>5}")
    return out, lines


def untraced(bench: Bench, calibrate, seconds: float, min_rounds: int,
             corrupt) -> tuple[dict, dict]:
    """The end-to-end run: interleaved rounds, no spans."""
    series = bench.measure(calibrate, seconds, min_rounds, corrupt=corrupt)
    require_passing(series)
    worker_mb = bench.worker_peak_mb()
    summary, lines = timing_summary(series)
    values = {m: summary[m]["corrected"] for m in TIMED}
    values["peak_rss_mb"] = parent_peak_mb() + worker_mb
    calib_median = _calib_median(series)
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} "
                 f"(parent {parent_peak_mb():.1f} + worker {worker_mb:.1f})"
                 f"; {bench.rounds} rounds; calib median "
                 f"{calib_median * 1e3:.2f} ms")
    detail = {"host": host_record(bench, calib_median),
              "rounds": bench.rounds, "timings": summary}
    return values, {"series": series, "table": lines, "detail": detail}


def _factor_breakdown(spans: SpanLog, root: int) -> tuple[dict, float]:
    """Self time per layer of one traced factor, and its residual.

    The self times over the factor's span tree add up to its wall time
    by construction; the check guards the recorder.  The reported
    residual is the factor span's own self time: the wall time of
    ``factor()``'s own code between its layer calls (argument checks
    and the zero-padded copy of the matrix it tiles).
    """
    selfs = spans.self_times(root)
    wall = spans.duration(root)
    if abs(sum(selfs.values()) - wall) > 1e-9 * max(1.0, wall):
        raise RuntimeError("span self times do not add up to the wall time")
    return selfs, selfs[spans.names[root]]


def traced(bench: Bench, calibrate, seconds: float, min_rounds: int,
           corrupt, rng) -> tuple[dict, dict]:
    """The traced run: layer probes, then rounds of untraced + traced
    reps of every operation."""
    wl = bench.wl
    v: dict = {}
    kern, secs = layers.kernel_metrics(wl.nb, wl.ib, rng)
    v.update(kern)
    v.update(layers.tile_metrics(bench.a, wl.nb))
    v.update(layers.planner_metrics(wl, bench.rewarm))

    spans = SpanLog()
    series = bench.measure(calibrate, seconds, min_rounds, spans=spans,
                           corrupt=corrupt)
    require_passing(series)
    worker_mb = bench.worker_peak_mb()
    summary, lines = timing_summary(series, TIMED + TRACED_TIMED)
    calib_median = _calib_median(series)
    v["calib_s"] = calib_median
    for m in TRACED_TIMED:
        v[m] = summary[m]["corrected"]
    for m in TIMED + TRACED_TIMED:
        v[f"raw.{m}"] = summary[m]["raw"]
        v[f"tail.{m}"] = summary[m]["tail"]
        v[f"tail.{m}.pct"] = float(summary[m]["tail_pct"])
        v[f"samples.{m}"] = float(summary[m]["n"])
        if m != "setup_s":
            v[f"trace_overhead.{m}"] = (series[f"traced.{m}"].median()
                                        / summary[m]["corrected"])
    v["setup.import_s"] = med(p["import_s"] for p in bench.setup_op.parts)

    # runtime and core: from the traced factors' spans
    counts = kernel_counts(bench.plan)
    v["runtime.tasks"] = float(len(bench.plan))
    overheads = []
    lines.append("one traced factor per path: layer self times (s)")
    for path, op in bench.factor_ops.items():
        execs = [spans.child_durations(r)["runtime.execute_graph"]
                 for r in op.roots]
        overheads += [spans.duration(r) - e for r, e in zip(op.roots, execs)]
        floor = layers.kernel_floor(path, counts, secs)
        v[f"runtime.{path}.exec_s"] = med(execs)
        v[f"runtime.{path}.kernel_floor_s"] = floor
        v[f"runtime.{path}.overhead_s"] = med(execs) - floor
        residuals = [_factor_breakdown(spans, r)[1] for r in op.roots]
        v[f"trace.{path}.residual_s"] = med(residuals)
        selfs, resid = _factor_breakdown(spans, op.roots[-1])
        parts = ", ".join(f"{k} {t:.5f}" for k, t in selfs.items()
                          if k != spans.names[op.roots[-1]])
        lines.append(f"  {path:<9} wall {spans.duration(op.roots[-1]):.5f}"
                     f" = {parts}, residual {resid:.2e}")
    v["core.factor_overhead_s"] = med(overheads)

    def reg_values(path, name, attr="value"):
        vals = [getattr(r.get(name), attr, 0.0)
                for r in bench.factor_ops[path].registries]
        return med(vals)

    v["runtime.batched.groups"] = reg_values("batched", "batched.groups")
    v["runtime.process.descriptors"] = reg_values(
        "process", "procpool.batch.descriptors")
    v["runtime.threaded.lock_wait_s"] = reg_values(
        "threaded", "scheduler.lock_wait_seconds")
    v["runtime.threaded.queue_wait_s"] = reg_values(
        "threaded", "scheduler.queue_wait_seconds", "sum")
    v["runtime.process.pool_start_s"] = bench.pool_start_s

    # planner, sim and analyze: from the traced sweeps' spans
    sweep = bench.sweep_op
    per_rep = [spans.self_times(r) for r in sweep.roots]
    for name, key in (("sim.bounded", "sim.bounded_s"),
                      ("sim.unbounded", "sim.unbounded_s"),
                      ("obs.analyze", "obs.analyze_s")):
        v[key] = med(s.get(name, 0.0) for s in per_rep)
    v["sim.tasks_per_s"] = sweep.tasks / v["sim.bounded_s"]
    v["planner.builds"] = float(sweep.builds)
    v["planner.hits"] = float(sum(op.hits
                                  for op in bench.factor_ops.values()))

    solve = bench.solve_op
    v["core.apply_qh_s"] = med(solve.parts["apply_qh"])
    v["core.backsub_s"] = (summary["solve_s"]["raw"] - v["core.apply_qh_s"]
                           - med(solve.parts["r"]))
    v["rss.parent_mb"] = parent_peak_mb()
    v["rss.worker_mb"] = worker_mb
    detail = {"host": host_record(bench, calib_median),
              "rounds": bench.rounds, "timings": summary,
              "setup_parts": bench.setup_op.parts}
    return v, {"series": series, "table": lines, "detail": detail,
               "spans": spans}


def write_record(out_dir: Path, record: dict,
                 spans: SpanLog | None) -> None:
    """Write the run's record (and, for a traced run, its spans) once."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in record.items() if k != "table"}, fh,
                  indent=1, default=str)
    if spans is not None:
        spans.write(out_dir / f"{stem}-spans.json")
