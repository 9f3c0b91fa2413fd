"""``repro.api`` — the unified plan/factor/simulate/analyze facade (S18).

One import surface for the things users do with this package:

- :func:`plan` — build (or fetch from the process-wide cache) the
  planning artifacts of one problem shape: a QR grid, or any
  registered problem family (``"cholesky(t=8)"``, ``"lu(p=8,q=8)"``).
  Every spelling resolves to one :class:`~repro.problems.Problem` and
  one cache lookup; :func:`plan_problem` is the same function;
- :func:`factor` — numerically factor a matrix (QR only), optionally
  from a prebuilt plan; the same function as :func:`repro.tiled_qr`,
  its execution keywords the fields of
  :class:`~repro.runtime.ExecOptions`;
- :func:`simulate` — plan any of those spellings and schedule the
  DAG on ``P`` processors (or unbounded);
- :func:`analyze` — turn a simulation, plan, or trace into a
  :class:`~repro.obs.analyze.ScheduleReport` with Theorem-1 and ALAP
  lower bounds;
- :func:`overhead_report` — attribute a traced run's time to the six
  task-lifecycle phases (queued / dispatched / deserialized /
  computing / published / retired); pass a
  :class:`~repro.obs.tracer.DistributedTracer` to ``factor(...,
  mode="process", tracer=...)`` for the full cross-process
  attribution with clock-aligned worker spans.

These compose: a :class:`~repro.planner.Plan` built once can be
passed to both :func:`factor` and :func:`simulate`, and everything a
scheme or problem name can express is also writable as a spec string
(``"plasma(bs=5)"``, ``"cholesky(t=8)"``).  The QR-shaped entry
points (:func:`repro.tiled_qr`, :func:`repro.critical_path`, the CLI)
call :func:`plan` too, so mixing styles never rebuilds a DAG.

>>> import numpy as np
>>> from repro.api import plan, factor, simulate
>>> pl = plan(8, 4, "greedy")
>>> simulate(pl, processors=4).makespan
166.0
>>> simulate("cholesky(t=8)").makespan
62.0
>>> a = np.random.default_rng(0).standard_normal((64, 32))
>>> f = factor(a, nb=8, scheme=pl)
>>> bool(np.allclose(f.q() @ f.r(), a))
True
"""

from __future__ import annotations

from typing import Optional, Union

from .core.tiled_qr import tiled_qr
from .kernels.costs import KernelFamily
from .obs.analyze import OverheadReport, analyze, overhead_report
from .obs.tracer import DistributedTracer
from .planner import (
    Plan,
    clear_plan_cache,
    plan,
    plan_cache_stats,
    plan_problem,
)
from .problems import (
    Problem,
    available_problems,
    get_problem,
    parse_problem_spec,
)
from .runtime.options import ExecOptions
from .schemes.elimination import EliminationList
from .schemes.registry import available_schemes, parse_scheme_spec
from .sim.simulate import SimResult

__all__ = [
    "plan",
    "plan_problem",
    "factor",
    "simulate",
    "analyze",
    "overhead_report",
    "OverheadReport",
    "DistributedTracer",
    "Plan",
    "Problem",
    "ExecOptions",
    "SimResult",
    "available_schemes",
    "available_problems",
    "get_problem",
    "parse_scheme_spec",
    "parse_problem_spec",
    "plan_cache_stats",
    "clear_plan_cache",
]


#: the factorization entry point is :func:`repro.tiled_qr` itself
factor = tiled_qr


def simulate(
    scheme: Union[str, EliminationList, Plan, Problem],
    p: Optional[int] = None,
    q: Optional[int] = None,
    *,
    processors: Optional[int] = None,
    priority: str = "critical-path",
    family: KernelFamily | str | None = None,
    costs=None,
    **params,
) -> SimResult:
    """Schedule one problem shape and return its timing.

    Takes every spelling of a shape that :func:`plan` takes, the grid
    and ``family`` as keywords (``None`` = not given), and schedules
    the plan.

    Parameters
    ----------
    scheme : str, EliminationList, Plan, or Problem
        What to simulate.  A *scheme* name/spec string (``"greedy"``,
        ``"plasma(bs=5)"``) requires ``p`` and ``q``; a *problem* spec
        string (``"cholesky(t=8)"``, ``"lu(p=8,q=8)"``,
        ``"qr(p=8,q=4)"``) or :class:`~repro.problems.Problem` carries
        its own parameters (a bare family name takes them as keywords:
        ``simulate("cholesky", t=8)``); a Plan or EliminationList
        carries its own shape (``p``/``q``, if given, must agree).
    p, q : int, optional
        Tile-grid dimensions (mandatory only when ``scheme`` is a
        scheme name).
    processors : int or None
        ``None`` = unbounded ASAP schedule (the critical-path view);
        an int = bounded list scheduling.
    priority : str
        Ready-queue policy for the bounded case (see
        :func:`repro.sim.priorities.priority_vector`).
    family : {"TT", "TS"}, optional
        Kernel family; QR only (``TT`` when not given), checked
        against a Plan's when given.
    costs : mapping of Kernel -> float, optional
        Per-kernel weight overrides (distinct cache entries).
    **params
        Scheme parameters (``bs=...``, ``k=...``), or problem
        parameters (``t=...``) in the problem-centric form.

    Returns
    -------
    SimResult
        Memoized on the plan for named priorities — treat as read-only.
    """
    return plan(scheme, p=p, q=q, family=family, costs=costs,
                **params).schedule(processors, priority)
