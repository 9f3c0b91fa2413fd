"""Workload shapes and the benchmark's fixed constants.

``BENCHMARK.json`` at the repository root declares the metric names,
units and bounds; this module holds what that file has no keys for:
the shapes each workload runs, the seeds, and the drift calibration
constant.  See ``perfbench/README.md`` for why each value was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: BLAS/OpenMP thread variables pinned to 1 before NumPy is imported:
#: with the threaded runtime at 2 workers, or parent plus one pool
#: worker, the run never has more busy threads than the host's 2 CPUs
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: seed the benchmark uses when none is given, and a held-out seed
#: kept unused while tuning, for re-checking later claims
DEFAULT_SEED = 1
HELDOUT_SEED = 20111112

#: drift-corrected times are "seconds at the reference speed": the
#: median of t_op / t_calib times this constant, the calibration
#: slice's typical time on the 2-vCPU Xeon host the bounds were fit on
CALIB_REF_S = 0.030

#: processor count of the swept simulations (the paper's core count)
SIM_PROCESSORS = 48

#: every registered QR scheme, with the paper's domain size for the
#: two domain trees; the sweep runs each in both kernel families
SWEEP_SCHEMES = ("flat-tree", "binary-tree", "fibonacci", "greedy",
                 "plasma-tree(bs=5)", "hadri-tree(bs=5)", "asap",
                 "grasap(k=1)")

#: execution paths of ``factor()``, as ``repro.api.factor`` keywords;
#: the process path also gets the benchmark's persistent pool
PATHS = {
    "batched": {"mode": "batched"},
    "process": {"mode": "process"},
    "task": {"mode": "task", "backend": "reference"},
    "lapack": {"mode": "task", "backend": "lapack"},
    "threaded": {"mode": "task", "workers": 2},
}

#: end-to-end timings
TIMED = ("setup_s", "sweep_s", "batched_s", "task_s", "lapack_s",
         "threaded_s", "solve_s")

#: timings measured in the traced run only and reported with the
#: per-layer metrics: the two-process path slows by up to 2x with the
#: host's load on its second CPU, which the one-CPU calibration slice
#: does not see (perfbench/README.md, "Demoted")
TRACED_TIMED = ("process_s",)

#: one round, in run order; the untraced run skips the operations of
#: TRACED_TIMED.  Every operation but the threaded path runs twice, the
#: solve four times, heavy and light operations alternating, so most
#: medians rest on twice the reps for a round only ~1.6x as long (the
#: threaded path is the costliest rep)
ROUND = ("setup_s", "batched_s", "process_s", "task_s", "solve_s",
         "solve_s", "lapack_s", "sweep_s", "setup_s", "batched_s",
         "process_s", "threaded_s", "solve_s", "solve_s", "lapack_s",
         "task_s", "sweep_s")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a factor shape plus a plan sweep."""

    name: str
    m: int
    n: int
    nb: int
    ib: int
    family: str
    #: (p, q) tile grids of the cold-cache plan sweep, each swept with
    #: every scheme in both families
    sweep: tuple
    #: (scheme, family, p, q) shapes swept alongside: the paper's wide
    #: grids (q up to 40), too costly to sweep with every scheme
    sweep_large: tuple
    #: non-QR problem plans swept alongside (golden critical paths)
    problems: tuple
    scheme: str = "greedy"

    @property
    def p(self) -> int:
        return -(-self.m // self.nb)

    @property
    def q(self) -> int:
        return -(-self.n // self.nb)


WORKLOADS = {
    "square-nb64": Workload(
        name="square-nb64", m=1024, n=1024, nb=64, ib=16, family="TT",
        sweep=((40, 8), (32, 8)), sweep_large=(("greedy", "TT", 40, 40),),
        problems=("cholesky(t=8)", "lu(p=8,q=8)")),
    "tall-ts-nb32": Workload(
        name="tall-ts-nb32", m=2048, n=256, nb=32, ib=8, family="TS",
        sweep=((40, 1), (40, 2), (40, 4), (32, 4)),
        sweep_large=(("greedy", "TS", 40, 10), ("greedy", "TT", 40, 20)),
        problems=("cholesky(t=4)", "lu(p=4,q=4)")),
}

#: tiny variants of each workload, for the self-tests' smoke runs
SMOKE = {
    "square-nb64": Workload(
        name="square-nb64", m=128, n=128, nb=32, ib=8, family="TT",
        sweep=((8, 4),), sweep_large=(("greedy", "TT", 10, 10),),
        problems=("cholesky(t=4)", "lu(p=4,q=4)")),
    "tall-ts-nb32": Workload(
        name="tall-ts-nb32", m=256, n=64, nb=16, ib=4, family="TS",
        sweep=((8, 2), (8, 4)), sweep_large=(("greedy", "TS", 10, 6),),
        problems=("cholesky(t=3)", "lu(p=3,q=3)")),
}
