"""Measure the streaming-telemetry overhead of the batched backend.

The acceptance bar for the event bus (S21) is that full telemetry —
EventBus publishing + LiveState reduction + background Sampler — costs
<= 5% wall time on the repo's standard batched case (512x512, nb=32).
Measurement on shared machines is the hard part: the wall time of a
~60 ms run drifts by several percent between neighbouring executions,
more than the effect being measured.  The bench therefore interleaves
bare (``bus=None``, no registry) and instrumented runs, alternating
which goes first each round to cancel order bias, and gates on the
*ratio of medians* — the median of each population is robust to the
multi-ms spikes a noisy box injects into individual runs.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --rounds 9

Record the result in docs/performance.md ("telemetry overhead").
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.api import plan  # noqa: E402
from repro.obs import (EventBus, LiveState, MetricsRegistry,  # noqa: E402
                       Sampler)
from repro.runtime import ExecOptions  # noqa: E402
from repro.runtime.executor import execute_graph  # noqa: E402
from repro.tiles.layout import TiledMatrix  # noqa: E402


def run_case(m: int, n: int, nb: int, rounds: int, mode: str,
             workers=None) -> dict:
    rng = np.random.default_rng(20110814)
    a = rng.standard_normal((m, n))
    pl = plan(m // nb, n // nb, "greedy")
    opts = ExecOptions(mode=mode, workers=workers)

    def bare() -> float:
        tiled = TiledMatrix(a.copy(), nb)
        t0 = time.perf_counter()
        execute_graph(pl, tiled, opts, ib=min(32, nb))
        return time.perf_counter() - t0

    def instrumented() -> float:
        # exactly the `repro profile --progress` wiring: bus published
        # by the executor, LiveState in pull mode, sampler at the
        # default cadence.  The sampler thread is started/stopped
        # outside the timed window — it is one-time setup (like
        # constructing the bus), not per-run telemetry cost; on a
        # loaded box a thread start is a multi-ms scheduler round trip
        # that would swamp the steady-state signal.
        tiled = TiledMatrix(a.copy(), nb)
        bus = EventBus()
        state = LiveState(total=len(pl.graph.tasks), nb=nb).connect(bus)
        metrics = MetricsRegistry()
        with Sampler(metrics, state):
            t0 = time.perf_counter()
            execute_graph(pl, tiled, opts, ib=min(32, nb), bus=bus)
            dt = time.perf_counter() - t0
        return dt

    bare()            # warm plan cache, pools, BLAS
    instrumented()
    bare_s, inst_s = [], []
    for i in range(rounds):
        if i % 2 == 0:
            bare_s.append(bare())
            inst_s.append(instrumented())
        else:
            inst_s.append(instrumented())
            bare_s.append(bare())
    mb, mi = float(np.median(bare_s)), float(np.median(inst_s))
    return {
        "case": f"{m}x{n} nb={nb} mode={mode}",
        "bare_s": mb,
        "instrumented_s": mi,
        "overhead_ratio": mi / mb,
        "overhead_pct": (mi / mb - 1.0) * 100.0,
        "rounds": rounds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--size", type=int, default=512)
    ap.add_argument("--nb", type=int, default=32)
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON only")
    args = ap.parse_args(argv)

    result = run_case(args.size, args.size, args.nb, args.rounds, "batched")
    if args.json:
        print(json.dumps(result, indent=1))
    else:
        print(f"telemetry overhead, {result['case']} "
              f"({result['rounds']} rounds, ratio of medians):")
        print(f"  bare          {result['bare_s'] * 1e3:8.2f} ms")
        print(f"  instrumented  {result['instrumented_s'] * 1e3:8.2f} ms "
              "(bus + LiveState + 50ms sampler)")
        print(f"  overhead      {result['overhead_pct']:+.2f}%  "
              f"(target <= 5%)")
    return 0 if result["overhead_pct"] <= 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
