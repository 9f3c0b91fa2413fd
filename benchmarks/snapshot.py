"""Bench-snapshot harness: the repo's performance trajectory.

Runs a pinned grid of (scheme, p, q, P) cases and emits a versioned
``BENCH_<n>.json`` at the repository root — wall times (plan build
cold/warm, simulation, analysis), plan-cache stats, simulator
throughput, and the :mod:`repro.obs.analyze` summary of each schedule.
A comparator diffs two snapshots:

* **structural** metrics (makespan, critical-path length, task count,
  utilization) are deterministic — any drift is a behavior change and
  fails the comparison;
* **timing** metrics are flagged when they regress by more than
  ``--tolerance`` (default 15%); they fail the run only under
  ``--strict-timing``, since absolute times are machine-dependent
  (CI runs them advisory).

Usage::

    python benchmarks/snapshot.py                 # full grid, next BENCH_<n>.json
    python benchmarks/snapshot.py --quick         # CI-sized subset
    python benchmarks/snapshot.py --quick --check --baseline BENCH_1.json \
        --out bench-ci.json                       # the CI smoke step

The quick grid is a strict subset of the full grid, so a quick run
always compares cleanly against a committed full snapshot.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# make `python benchmarks/snapshot.py` work without PYTHONPATH=src
_src = str(REPO_ROOT / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)

import numpy as np  # noqa: E402

from repro.api import plan  # noqa: E402
from repro.obs.analyze import analyze_sim  # noqa: E402
from repro.planner import clear_plan_cache, plan_cache_stats  # noqa: E402

SCHEMA = "repro-bench-snapshot"
SCHEMA_VERSION = 1

#: the CI-sized subset — GREEDY at the acceptance grid plus two
#: contrasting trees on the same grid
QUICK_CASES = [
    ("greedy", 30, 10, 16),
    ("fibonacci", 30, 10, 16),
    ("flat-tree", 30, 10, 16),
]

#: the full pinned grid (superset of QUICK_CASES)
FULL_CASES = QUICK_CASES + [
    ("plasma(bs=8)", 30, 10, 16),
    ("binary-tree", 32, 8, 16),
    ("greedy", 40, 5, 16),
    ("greedy", 60, 20, 32),
]

#: timing metrics, lower is better (seconds)
TIMING_LOWER = ("plan_cold_s", "plan_warm_s", "sim_s", "analyze_s")
#: timing metrics, higher is better
TIMING_HIGHER = ("sim_tasks_per_s",)

#: numeric factorization cases: (scheme, family, m, n, nb, ib).
#: ib = nb/4 makes the widest reference/batched contrast while staying
#: a realistic inner blocking (see docs/performance.md).
FACTOR_QUICK_CASES = [
    ("greedy", "TT", 256, 256, 32, 8),
]

#: full factor grid — includes the ISSUE 5 acceptance case
#: (1024 x 1024, nb=64)
FACTOR_FULL_CASES = FACTOR_QUICK_CASES + [
    ("greedy", "TT", 1024, 1024, 64, 16),
]

#: factor timing metrics, lower / higher is better.
#: ``tracing_overhead`` is the traced/untraced process-mode ratio —
#: already drift-immune, and bounded absolutely by the CI guard.
FACTOR_TIMING_LOWER = ("reference_s", "batched_s", "process_s",
                       "process_traced_s", "process_off_s",
                       "tracing_overhead")
FACTOR_TIMING_HIGHER = ("speedup", "reference_gflops", "batched_gflops",
                        "process_speedup", "process_gflops",
                        "batch_speedup")


def case_key(scheme: str, p: int, q: int, processors: int) -> str:
    return f"{scheme}|p={p}|q={q}|P={processors}"


def run_case(scheme: str, p: int, q: int, processors: int) -> dict:
    """Benchmark one (scheme, p, q, P) cell; cold plan, warm plan, sim."""
    clear_plan_cache()
    stats0 = plan_cache_stats()

    t0 = time.perf_counter()
    pl = plan(p, q, scheme)
    plan_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan(p, q, scheme)
    plan_warm = time.perf_counter() - t0

    from repro.sim.simulate import simulate_bounded

    t0 = time.perf_counter()
    res = simulate_bounded(pl, processors)
    sim_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = analyze_sim(res)
    analyze_s = time.perf_counter() - t0

    stats1 = plan_cache_stats()
    cp = report.critical_path
    # "efficiency" keeps its historical closed-form definition
    # (max(cp, work/P) / makespan) so snapshots stay comparable across
    # the ALAP-bound addition; the tightened bound lands in new keys
    # that the comparator's key-intersection skips for old baselines.
    closed_form = max(report.bounds["critical_path"], report.bounds["work"])
    return {
        "structural": {
            "tasks": report.tasks,
            "total_work": report.total_busy,
            "makespan": report.makespan,
            "critical_path_length": cp.length,
            "critical_path_tasks": len(cp),
            "unbounded_cp": report.bounds["critical_path"],
            "utilization": round(report.utilization, 12),
            "efficiency": round(closed_form / report.makespan, 12),
            "alap_bound": round(report.bounds["alap"], 12),
            "efficiency_alap": round(report.bounds["efficiency"], 12),
            "max_slack": report.slack.max,
            "kernel_shares": {k: round(v, 12)
                              for k, v in report.kernel_shares().items()},
        },
        "timing": {
            "plan_cold_s": plan_cold,
            "plan_warm_s": plan_warm,
            "sim_s": sim_s,
            "analyze_s": analyze_s,
            "sim_tasks_per_s": report.tasks / sim_s if sim_s else 0.0,
        },
        "plan_cache": {
            "warm_hits": stats1["hits"] - stats0["hits"],
            "builds": stats1["builds"] - stats0["builds"],
        },
    }


def qr_flops(m: int, n: int) -> float:
    """Householder QR flop count ``2mn^2 - 2n^3/3`` (real arithmetic)."""
    return 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def factor_case_key(scheme: str, family: str, m: int, n: int,
                    nb: int, ib: int) -> str:
    return f"{scheme}|{family}|m={m}|n={n}|nb={nb}|ib={ib}"


def run_factor_case(scheme: str, family: str, m: int, n: int,
                    nb: int, ib: int, rounds: int = 3) -> dict:
    """Time the reference task executor against the batched backend.

    Wall clock on shared machines drifts minute to minute, so each
    round times the backends back to back and the recorded speedups
    are *medians of per-round ratios* — drift hits both sides of a
    ratio equally.  Absolute seconds are still recorded (advisory, like
    every other timing metric here).

    The process backend is timed through one persistent
    :class:`~repro.runtime.ProcessPool` sized to the host
    (``os.cpu_count()`` workers) — the intended reuse pattern; worker
    start-up is paid once, outside the timed rounds.
    ``process_speedup`` is the per-round ``task_s / process_s`` ratio,
    directly comparable to ``speedup`` (``task_s / batched_s``).

    Each round also times a process run with a fresh
    :class:`~repro.obs.DistributedTracer` attached, and a few extra
    untraced/traced pairs run back to back after the grid rounds.
    ``tracing_overhead`` — the number the CI tracing-overhead guard
    holds to its budget — is **best-of-N traced over best-of-N
    untraced** across those pairs: contention on a shared runner only
    ever inflates a time, so the minima estimate the uncontended cost
    of each side and the ratio is robust to load spikes that would
    make a 3-round median a coin flip.

    Micro-batched dispatch (``--batch``) context rides along: the
    process rounds run the default ``batch="auto"``, each round also
    times ``batch="off"`` (``process_off_s``; ``batch_speedup`` is the
    per-round off/auto ratio), and one instrumented run records the
    realized group-size histogram summary under the case's ``batch``
    key — context the comparator never diffs, like
    ``process_workers``.  Baselines predating these keys compare
    cleanly: the key intersection simply skips them.
    """
    import os

    from repro.api import factor
    from repro.obs import DistributedTracer
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import ProcessPool
    from repro.runtime.groups import resolve_batch

    rng = np.random.default_rng(20110814)  # the paper's SC 2011 vintage
    a = rng.standard_normal((m, n))
    pl = plan(m // nb, n // nb, scheme, family)
    groups = pl.level_groups()  # the inline transport's drain order
    sizes = [len(tids) for _, tids in groups]
    workers = os.cpu_count() or 1

    with ProcessPool(workers=workers) as pool:
        def time_mode(mode: str, **kw) -> float:
            t0 = time.perf_counter()
            factor(a, nb=nb, ib=ib, scheme=pl, mode=mode, **kw)
            return time.perf_counter() - t0

        time_mode("batched")  # warm all paths (plan, pools, LAPACK
        time_mode("task")     # wrappers, pool workers)
        time_mode("process", pool=pool)
        time_mode("process", pool=pool, tracer=DistributedTracer())
        # one instrumented run records the realized micro-batch shape
        reg = MetricsRegistry()
        time_mode("process", pool=pool, metrics=reg)
        gh = reg.histogram("procpool.batch.group_size")
        batch_ctx = {
            "mode": "auto",
            "resolved_size": resolve_batch(
                "auto", nb, float(np.mean([t.weight
                                           for t in pl.graph.tasks])),
                workers=workers),
            "groups": gh.count,
            "descriptors": int(
                reg.counter("procpool.batch.descriptors").value),
            "group_size": ({"mean": round(gh.mean, 3),
                            "min": gh.min, "max": gh.max}
                           if gh.count else
                           {"mean": 0.0, "min": 0, "max": 0}),
        }
        ref_s, bat_s, pro_s, off_s = [], [], [], []
        trc_s, ratios, pro_ratios, off_ratios = [], [], [], []
        for _ in range(rounds):
            tb = time_mode("batched")
            tr = time_mode("task")
            tp = time_mode("process", pool=pool)
            to = time_mode("process", pool=pool, batch="off")
            tt = time_mode("process", pool=pool,
                           tracer=DistributedTracer())
            bat_s.append(tb)
            ref_s.append(tr)
            pro_s.append(tp)
            off_s.append(to)
            trc_s.append(tt)
            ratios.append(tr / tb)
            pro_ratios.append(tr / tp)
            off_ratios.append(to / tp)
        guard_plain, guard_traced = list(pro_s), list(trc_s)
        for _ in range(4):
            guard_plain.append(time_mode("process", pool=pool))
            guard_traced.append(time_mode("process", pool=pool,
                                          tracer=DistributedTracer()))
    ref = float(np.median(ref_s))
    bat = float(np.median(bat_s))
    pro = float(np.median(pro_s))
    trc = float(np.median(trc_s))
    flops = qr_flops(m, n)
    return {
        "structural": {
            "tasks": len(pl.graph.tasks),
            "groups": len(groups),
            "max_batch": max(sizes) if sizes else 0,
            "mean_batch": round(float(np.mean(sizes)), 12) if sizes else 0.0,
        },
        "timing": {
            "reference_s": ref,
            "batched_s": bat,
            "process_s": pro,
            "process_traced_s": trc,
            "process_off_s": float(np.median(off_s)),
            "speedup": float(np.median(ratios)),
            "process_speedup": float(np.median(pro_ratios)),
            "batch_speedup": float(np.median(off_ratios)),
            "tracing_overhead": float(min(guard_traced)
                                      / min(guard_plain)),
            "reference_gflops": flops / 1e9 / ref if ref else 0.0,
            "batched_gflops": flops / 1e9 / bat if bat else 0.0,
            "process_gflops": flops / 1e9 / pro if pro else 0.0,
            "process_workers": workers,  # context only, never compared
        },
        "batch": batch_ctx,  # context only, never compared
    }


def host_metadata() -> dict:
    """Host context a performance number is meaningless without.

    CPU count, platform/machine, Python/NumPy/SciPy versions, and the
    BLAS implementation NumPy is linked against (the single biggest
    machine-to-machine variable for these benchmarks).  Every probe is
    guarded — a missing SciPy or an older NumPy without
    ``show_config(mode=...)`` degrades to ``None``, never an error.
    """
    import os

    meta = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None,
        "blas": None,
    }
    try:
        import scipy

        meta["scipy"] = scipy.__version__
    except ImportError:
        pass
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        meta["blas"] = blas.get("name") or None
    except Exception:
        pass  # older NumPy without show_config(mode="dicts")
    return meta


def take_snapshot(quick: bool) -> dict:
    cases = QUICK_CASES if quick else FULL_CASES
    factor_cases = FACTOR_QUICK_CASES if quick else FACTOR_FULL_CASES
    t0 = time.perf_counter()
    out_cases = {}
    for scheme, p, q, processors in cases:
        key = case_key(scheme, p, q, processors)
        print(f"  running {key} ...", flush=True)
        out_cases[key] = run_case(scheme, p, q, processors)
    out_factor = {}
    for scheme, family, m, n, nb, ib in factor_cases:
        key = factor_case_key(scheme, family, m, n, nb, ib)
        print(f"  factoring {key} ...", flush=True)
        out_factor[key] = run_factor_case(scheme, family, m, n, nb, ib)
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": host_metadata(),
        "cases": out_cases,
        "factor": out_factor,
        "plan_cache": plan_cache_stats(),
        "wall_seconds": time.perf_counter() - t0,
    }


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------

def _flat(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}.{k}" if prefix else k
        if isinstance(v, dict):
            out.update(_flat(v, key))
        else:
            out[key] = v
    return out


def compare_snapshots(base: dict, new: dict,
                      tolerance: float = 0.15) -> tuple[list[dict], int]:
    """Diff two snapshots; returns ``(issues, compared_case_count)``.

    Issues are dicts with ``kind`` ``"structural"`` (exact-match
    metrics drifted) or ``"timing"`` (a timing metric regressed past
    ``tolerance``).  Only cases present in both snapshots are
    compared.
    """
    issues: list[dict] = []
    compared = 0
    # (section, timing-lower metrics, timing-higher metrics); a baseline
    # predating a section simply contributes no common keys for it
    sections = (("cases", TIMING_LOWER, TIMING_HIGHER),
                ("factor", FACTOR_TIMING_LOWER, FACTOR_TIMING_HIGHER))
    for section, lower, higher in sections:
        common = sorted(set(base.get(section, {}))
                        & set(new.get(section, {})))
        compared += len(common)
        for key in common:
            b, n = base[section][key], new[section][key]
            bs = _flat(b.get("structural", {}))
            ns = _flat(n.get("structural", {}))
            for metric in sorted(set(bs) & set(ns)):
                bv, nv = bs[metric], ns[metric]
                if not np.isclose(bv, nv, rtol=1e-9, atol=1e-12):
                    issues.append({"case": key, "metric": metric,
                                   "kind": "structural",
                                   "base": bv, "new": nv})
            bt, nt = b.get("timing", {}), n.get("timing", {})
            for metric in lower:
                if metric in bt and metric in nt and bt[metric] > 0:
                    ratio = nt[metric] / bt[metric]
                    if ratio > 1.0 + tolerance:
                        issues.append({"case": key, "metric": metric,
                                       "kind": "timing", "base": bt[metric],
                                       "new": nt[metric], "ratio": ratio})
            for metric in higher:
                if metric in bt and metric in nt and bt[metric] > 0:
                    ratio = nt[metric] / bt[metric]
                    if ratio < 1.0 - tolerance:
                        issues.append({"case": key, "metric": metric,
                                       "kind": "timing", "base": bt[metric],
                                       "new": nt[metric], "ratio": ratio})
    return issues, compared


def render_issues(issues: list[dict]) -> str:
    lines = []
    for i in issues:
        if i["kind"] == "structural":
            lines.append(f"STRUCTURAL  {i['case']}  {i['metric']}: "
                         f"{i['base']} -> {i['new']}")
        else:
            lines.append(f"TIMING      {i['case']}  {i['metric']}: "
                         f"{i['base']:.6g} -> {i['new']:.6g} "
                         f"({i['ratio']:.2f}x)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# snapshot numbering and CLI
# ----------------------------------------------------------------------

def existing_snapshots(root: Path = REPO_ROOT) -> list[tuple[int, Path]]:
    """``BENCH_<n>.json`` files at the repo root, ascending by n."""
    found = []
    for path in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="pinned bench-snapshot grid + regression comparator")
    ap.add_argument("--quick", action="store_true",
                    help="run the CI-sized subset of the grid")
    ap.add_argument("--out", metavar="PATH",
                    help="write the snapshot here (default: the next "
                         "BENCH_<n>.json at the repo root)")
    ap.add_argument("--check", action="store_true",
                    help="compare-only: never allocate a new BENCH_<n> "
                         "number (still writes --out when given)")
    ap.add_argument("--baseline", metavar="PATH",
                    help="snapshot to compare against (default: the "
                         "highest committed BENCH_<n>.json)")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative timing-regression threshold "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--strict-timing", action="store_true",
                    help="timing regressions fail the run (structural "
                         "drift always does)")
    args = ap.parse_args(argv)

    prior = existing_snapshots()
    label = "quick" if args.quick else "full"
    print(f"bench snapshot ({label} grid)")
    snap = take_snapshot(quick=args.quick)

    out_path = None
    if args.out:
        out_path = Path(args.out)
    elif not args.check:
        n = prior[-1][0] + 1 if prior else 1
        out_path = REPO_ROOT / f"BENCH_{n}.json"
    if out_path is not None:
        out_path.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
        print(f"snapshot written to {out_path}")

    base_path = Path(args.baseline) if args.baseline else (
        prior[-1][1] if prior else None)
    if base_path is None or (out_path is not None
                             and base_path.resolve() == out_path.resolve()):
        print("no baseline snapshot to compare against")
        return 0
    base = json.loads(base_path.read_text())
    issues, compared = compare_snapshots(base, snap,
                                         tolerance=args.tolerance)
    structural = [i for i in issues if i["kind"] == "structural"]
    timing = [i for i in issues if i["kind"] == "timing"]
    print(f"compared {compared} cases against {base_path.name}: "
          f"{len(structural)} structural mismatches, "
          f"{len(timing)} timing regressions "
          f"(> {args.tolerance * 100:.0f}%)")
    if issues:
        print(render_issues(issues))
    if structural:
        return 1
    if timing and args.strict_timing:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
