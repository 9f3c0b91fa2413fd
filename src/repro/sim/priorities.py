"""Scheduling priority policies for the bounded-P list scheduler (S11).

The paper's experiments rely on PLASMA's dynamic scheduler; exactly
which ready task a free core grabs is a degree of freedom the paper
does not explore.  This module collects the classical policies so the
ablation benchmark (``benchmarks/bench_ablation_priority.py``) can
quantify how much the elimination *tree* matters relative to the
dispatch *order* — the answer: the tree dominates, dispatch order
perturbs makespans by only a few percent, confirming the paper's
framing of critical path as the right metric.

Every policy maps a :class:`~repro.dag.tasks.TaskGraph` to an array of
priorities (lower = dispatched first), reading the graph's columns.
"""

from __future__ import annotations

import numpy as np

from ..dag.tasks import KERNEL_CODES, TaskGraph
from ..kernels.costs import Kernel
from .simulate import _resolve, bottom_levels

__all__ = ["PRIORITIES", "priority_vector"]

_PANEL_CODES = [KERNEL_CODES.index(k)
                for k in (Kernel.GEQRT, Kernel.TSQRT, Kernel.TTQRT)]


def _graph_of(graph) -> TaskGraph:
    """Accept a TaskGraph or a Plan, return the TaskGraph."""
    g, _ = _resolve(graph)
    return g


def critical_path_priority(graph) -> np.ndarray:
    """Largest bottom level first — the standard CP heuristic."""
    return -bottom_levels(graph)


def fifo_priority(graph) -> np.ndarray:
    """Emission (program) order."""
    return np.arange(len(_graph_of(graph)), dtype=float)


def panel_first_priority(graph) -> np.ndarray:
    """Factor kernels before update kernels, then program order.

    Mirrors PLASMA's practice of prioritizing the panel to expose new
    parallelism early.
    """
    graph = _graph_of(graph)
    n = len(graph)
    prio = np.arange(n, dtype=float)
    prio[np.isin(graph.codes, _PANEL_CODES)] -= n  # ahead of every update
    return prio


def column_major_priority(graph) -> np.ndarray:
    """Leftmost panel column first (greedy pipeline draining)."""
    graph = _graph_of(graph)
    n = len(graph)
    return (graph.cols.astype(np.int64) * n + np.arange(n)).astype(float)


def heaviest_first_priority(graph) -> np.ndarray:
    """Longest processing time (LPT) first, tie-broken by program order."""
    graph = _graph_of(graph)
    n = len(graph)
    return -graph.weights * n + np.arange(n)


def random_priority(graph, seed: int = 0) -> np.ndarray:
    """Uniformly random dispatch order (the ablation's control arm)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(len(_graph_of(graph))).astype(float)


PRIORITIES = {
    "critical-path": critical_path_priority,
    "fifo": fifo_priority,
    "panel-first": panel_first_priority,
    "column-major": column_major_priority,
    "heaviest-first": heaviest_first_priority,
    "random": random_priority,
}


def priority_vector(graph, name: str, **kwargs) -> np.ndarray:
    """Resolve a policy by name and compute its priority vector."""
    try:
        fn = PRIORITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown priority {name!r}; available: {sorted(PRIORITIES)}"
        ) from None
    return fn(graph, **kwargs)
