"""Per-layer probes of the traced run, each timed from outside.

Every probe calls one layer's public entry points directly and reports
the median per-call time, so a layer's number does not depend on the
layers around it.  Rates are given against floors measured in the same
run: the ``nb x nb`` tile-GEMM peak for kernels, ``np.copyto`` of the
same bytes for tile staging.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.api as api
from repro import kernels as ref_kernels
from repro.dag import build_dag, build_index
from repro.kernels import Kernel, kernel_flops
from repro.kernels import batched as stacked_kernels
from repro.kernels import lapack as lapack_kernels
from repro.problems import get_problem
from repro.schemes import get_scheme
from repro.tiles import SharedTilePool, TiledMatrix, TilePool

#: tiles per stacked-kernel call: the mean (level, kernel) group of
#: the square workload is ~14 tiles
STACK = 16

KERNELS = ("geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr")
FACTOR_KERNELS = ("geqrt", "tsqrt", "ttqrt")

IMPLS = {
    "ref": {k: getattr(ref_kernels, k) for k in KERNELS},
    "lapack": {k: getattr(lapack_kernels, f"lapack_{k}") for k in KERNELS},
    "stacked": {k: getattr(stacked_kernels, f"{k}_batched")
                for k in KERNELS},
}


def per_call(fn, prep=tuple, budget: float = 0.03, min_calls: int = 5,
             max_calls: int = 400) -> float:
    """Median wall time of ``fn(*prep())``; ``prep`` runs untimed."""
    times = []
    t_end = time.perf_counter() + budget
    while len(times) < min_calls or (time.perf_counter() < t_end
                                     and len(times) < max_calls):
        args = prep()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def gemm_peak_gflops(nb: int, rng) -> float:
    """Tile-GEMM rate: one ``nb x nb`` ``np.matmul``, single thread."""
    a, b = rng.standard_normal((2, nb, nb))
    c = np.empty((nb, nb))
    t = per_call(lambda: np.matmul(a, b, out=c), budget=0.05,
                 max_calls=5000)
    return 2.0 * nb ** 3 / t / 1e9


def kernel_seconds(nb: int, ib: int, rng) -> dict[tuple[str, str], float]:
    """Per-tile seconds of every kernel in every implementation.

    Operands are fresh copies per call (copied untimed): the factor
    kernels work in place.  ``stacked`` calls process ``STACK`` tiles
    at once; their time is divided by ``STACK``.
    """
    out = {}
    for impl, fns in IMPLS.items():
        shape = (STACK, nb, nb) if impl == "stacked" else (nb, nb)
        per_tile = STACK if impl == "stacked" else 1
        a, c, c2 = (rng.standard_normal(shape) for _ in range(3))
        tri, tri2 = np.triu(rng.standard_normal(shape)), np.triu(
            rng.standard_normal(shape))
        # factor kernels, and the V/T each apply kernel consumes
        v_ge = a.copy()
        t_ge = fns["geqrt"](v_ge, ib)
        r_ts, v_ts = tri.copy(), a.copy()
        t_ts = fns["tsqrt"](r_ts, v_ts, ib)
        r_tt, v_tt = tri.copy(), tri2.copy()
        t_tt = fns["ttqrt"](r_tt, v_tt, ib)
        calls = {
            "geqrt": (lambda x: fns["geqrt"](x, ib), lambda: (a.copy(),)),
            "unmqr": (lambda x: fns["unmqr"](v_ge, t_ge, x),
                      lambda: (c.copy(),)),
            "tsqrt": (lambda r, x: fns["tsqrt"](r, x, ib),
                      lambda: (tri.copy(), a.copy())),
            "tsmqr": (lambda x, y: fns["tsmqr"](v_ts, t_ts, x, y),
                      lambda: (c.copy(), c2.copy())),
            "ttqrt": (lambda r, x: fns["ttqrt"](r, x, ib),
                      lambda: (tri.copy(), tri2.copy())),
            "ttmqr": (lambda x, y: fns["ttmqr"](v_tt, t_tt, x, y),
                      lambda: (c.copy(), c2.copy())),
        }
        for k, (fn, prep) in calls.items():
            out[(k, impl)] = per_call(fn, prep) / per_tile
    return out


def kernel_metrics(nb: int, ib: int, rng) -> tuple[dict, dict]:
    """``kernels.*`` metrics and the per-tile seconds behind them."""
    peak = gemm_peak_gflops(nb, rng)
    secs = kernel_seconds(nb, ib, rng)
    m = {"kernels.gemm_peak_gflops": peak}
    for k in KERNELS:
        flops = kernel_flops(Kernel(k.upper()), nb)
        rates = {impl: flops / secs[(k, impl)] / 1e9 for impl in IMPLS}
        for impl, rate in rates.items():
            m[f"kernels.{k}.{impl}_gflops"] = rate
        m[f"kernels.{k}.peak_share"] = max(rates.values()) / peak
    return m, secs


def path_impl(path: str, kernel: str) -> str:
    """Which kernel implementation an execution path runs.

    ``task``/``threaded`` run the reference kernels, ``lapack`` the
    LAPACK tile kernels; ``batched``/``process`` (``numeric="auto"``)
    factor per slice with LAPACK and apply as stacked 3-D kernels.
    """
    if path in ("task", "threaded"):
        return "ref"
    if path == "lapack" or kernel in FACTOR_KERNELS:
        return "lapack"
    return "stacked"


def kernel_floor(path: str, counts: dict, secs: dict) -> float:
    """Sum over the plan's tasks of the kernel layer's per-call time."""
    return sum(n * secs[(k.lower(), path_impl(path, k.lower()))]
               for k, n in counts.items())


def tile_metrics(a: np.ndarray, nb: int) -> dict:
    """``tiles.*``: pad copy, pool gather/scatter, shared allocation."""
    m, n = a.shape
    mp = -(-m // nb) * nb

    def pad():
        work = np.zeros((mp, n), dtype=a.dtype)
        work[:m] = a
        return TiledMatrix(work, nb)

    tiled = pad()
    pool = TilePool(tiled)
    nbytes = float(pool.stack.nbytes)
    dst = np.empty_like(tiled.array)
    shared = []

    def shared_alloc():
        shared.append(SharedTilePool(tiled))

    def close_shared():
        while shared:
            shared.pop().close()
        return ()

    out = {
        "tiles.pad_s": per_call(pad, budget=0.05),
        "tiles.gather_s": per_call(pool.gather, budget=0.05),
        "tiles.scatter_s": per_call(pool.scatter, budget=0.05),
        "tiles.shared_alloc_s": per_call(shared_alloc, prep=close_shared,
                                         budget=0.05),
    }
    close_shared()
    copy_s = per_call(lambda: np.copyto(dst, tiled.array), budget=0.05)
    out["tiles.memcpy_gbps"] = float(tiled.array.nbytes) / copy_s / 1e9
    out["tiles.gather_gbps"] = nbytes / out["tiles.gather_s"] / 1e9
    out["tiles.gather_share"] = (out["tiles.gather_gbps"]
                                 / out["tiles.memcpy_gbps"])
    return out


def planner_metrics(wl, rewarm) -> dict:
    """Cold plan, cache hit, lazy artifacts, and the layers below."""
    args = (wl.p, wl.q, wl.scheme, wl.family)

    def cold():
        api.clear_plan_cache()
        return ()

    out = {"planner.plan_cold_s": per_call(lambda: api.plan(*args),
                                           prep=cold, budget=0.1)}
    rewarm()
    out["planner.plan_hit_s"] = per_call(lambda: api.plan(*args),
                                         budget=0.02, max_calls=2000)

    def artifacts(pl):
        pl.bottom_levels()
        pl.level_groups()
        pl.dispatch_arrays()

    out["planner.artifacts_s"] = per_call(
        artifacts, prep=lambda: (api.plan(*args, cache=False),), budget=0.1)
    out["schemes.elim_s"] = per_call(
        lambda: get_scheme(wl.scheme, wl.p, wl.q), budget=0.05)
    elims = get_scheme(wl.scheme, wl.p, wl.q)
    out["dag.build_s"] = per_call(lambda: build_dag(elims, wl.family),
                                  budget=0.1)
    graph = build_dag(elims, wl.family)
    out["dag.index_s"] = per_call(lambda: build_index(graph), budget=0.05)
    out["dag.tasks"] = float(len(graph))
    out["problems.build_s"] = sum(
        per_call(lambda s=spec: get_problem(s).build(), budget=0.05)
        for spec in wl.problems)
    return out
