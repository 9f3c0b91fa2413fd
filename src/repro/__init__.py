"""repro — Tiled QR factorization algorithms.

A production-quality reproduction of *Bouwmeester, Jacquelin, Langou,
Robert — "Tiled QR factorization algorithms"* (INRIA RR-7601 / SC'11):
the six tile kernels, every elimination-tree algorithm the paper
studies (FlatTree/Sameh-Kuck, Fibonacci, Greedy, Asap, Grasap,
BinaryTree, PlasmaTree), the critical-path discrete-event simulator,
the closed-form analysis, execution runtimes, and the benchmark
harness that regenerates every table and figure of the evaluation.

Quick start (the :mod:`repro.api` facade)::

    import numpy as np
    from repro import plan, factor, simulate

    pl = plan(8, 4, "greedy")            # cached planning artifacts
    simulate(pl, processors=4).makespan  # schedule it
    a = np.random.default_rng(0).standard_normal((400, 200))
    f = factor(a, nb=50, scheme="greedy")
    assert f.residual(a) < 1e-12

The QR-shaped entry points (:func:`tiled_qr`, :func:`critical_path`)
remain and plan through the same :func:`plan` and cache.
"""

from .api import ExecOptions, analyze, factor, plan, plan_problem, simulate
from .core.auto import SchemeChoice, select_scheme
from .core.paths import critical_path, zero_out_steps
from .core.serialize import load_factorization, save_factorization
from .core.tiled_qr import TiledQRFactorization, tiled_qr
from .kernels.costs import Kernel, KernelFamily, total_weight
from .planner import Plan, clear_plan_cache, plan_cache_stats
from .problems import Problem, available_problems, get_problem
from .schemes.registry import (
    available_schemes,
    get_scheme,
    parse_scheme_spec,
)

__version__ = "1.2.0"

__all__ = [
    "plan",
    "plan_problem",
    "factor",
    "simulate",
    "analyze",
    "Plan",
    "Problem",
    "ExecOptions",
    "available_problems",
    "get_problem",
    "plan_cache_stats",
    "clear_plan_cache",
    "tiled_qr",
    "TiledQRFactorization",
    "critical_path",
    "zero_out_steps",
    "save_factorization",
    "load_factorization",
    "select_scheme",
    "SchemeChoice",
    "available_schemes",
    "get_scheme",
    "parse_scheme_spec",
    "Kernel",
    "KernelFamily",
    "total_weight",
    "__version__",
]
