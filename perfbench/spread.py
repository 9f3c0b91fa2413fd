#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, raw and drift-corrected.

Runs ``run.py`` once per seed (one fresh process each, one after the
other) and reports, per metric, the median of the run values and the
distance between their first and third quartiles as a share of that
median — ``statistics.quantiles(values, n=4)`` — for the corrected
values and for the raw (uncorrected) medians behind them.  Usage::

    python3 perfbench/spread.py --workload square-nb64 --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def iqr_share(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(ln for ln in lines
                             if ln.startswith("# detail "))[9:])
    return {"seed": seed, "result": result, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--out", type=Path,
                    help="also write every run's result here (JSON)")
    args = ap.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(one_run(args.workload, seed, args.seconds))
        r = runs[-1]["result"]
        print(f"seed {seed}: correct={r['correct']} attempted="
              f"{r['attempted']} failed={r['failed']}", flush=True)
    metrics = runs[0]["result"]["metrics"]
    print(f"{'metric':<13}{'median':>11}{'spread':>9}{'raw spread':>12}")
    for name in metrics:
        corr = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["detail"]["timings"][name]["raw"] for r in runs
               if name in r["detail"]["timings"]]
        raw_s = f"{iqr_share(raw):12.3f}" if raw else f"{'-':>12}"
        print(f"{name:<13}{statistics.median(corr):11.5f}"
              f"{iqr_share(corr):9.3f}{raw_s}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
