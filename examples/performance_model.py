"""Predict parallel performance on *your* machine (Section 4's model).

Measures the six kernels' sequential rates at a chosen tile size, feeds
them into the paper's Roofline-style predictor
``gamma_pred = gamma_seq * T / max(T / P, cp)`` and prints predicted
GFLOP/s for a sweep of matrix shapes and core counts — the analysis a
user would run before picking an elimination tree for their machine.

Run: ``python examples/performance_model.py [nb] [cores]``
"""

import sys

from repro.analysis import PerformanceModel, predicted_gflops
from repro.bench import format_series, time_kernels
from repro.bench.kernel_timing import measure_gamma_seq


def main() -> None:
    nb = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    cores = int(sys.argv[2]) if len(sys.argv) > 2 else 48

    print(f"measuring kernels at nb={nb} (LAPACK backend, warm cache)...")
    rates = time_kernels(nb, ib=32, backend="lapack", strategy="warm")
    for k in rates.seconds:  # the measured (QR) kernels
        print(f"  {k.value}: {rates.gflops[k]:6.2f} GFLOP/s "
              f"({rates.seconds[k] * 1e6:8.1f} us)")
    gamma = measure_gamma_seq(rates)
    print(f"aggregate sequential rate gamma_seq = {gamma:.3f} GFLOP/s")
    print(f"TS-vs-TT kernel time ratios: factor "
          f"{rates.ts_vs_tt_factor_ratio():.2f}, update "
          f"{rates.ts_vs_tt_update_ratio():.2f} (paper: ~1.3)")

    model = PerformanceModel(gamma_seq=gamma, processors=cores)
    p = 40
    qs = [1, 2, 4, 5, 8, 10, 20, 30, 40]
    series = {}
    for scheme in ("greedy", "fibonacci", "flat-tree", "binary-tree"):
        series[scheme] = [predicted_gflops(scheme, p, q, model) for q in qs]
    print()
    print(format_series(
        "q", qs, series,
        title=f"predicted GFLOP/s on {cores} cores, p=40 tile rows "
              f"(the paper's Figure 1 for your machine)"))
    peak = cores * gamma
    print(f"\nmachine roofline: {peak:.1f} GFLOP/s; Greedy reaches "
          f"{100 * series['greedy'][-1] / peak:.0f}% of it at q=40.")


if __name__ == "__main__":
    main()
