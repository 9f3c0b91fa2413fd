"""Planning layer: memoized plans for the plan/execute split (S18).

:func:`plan` turns a problem spec (``"cholesky(t=8)"``), a
:class:`~repro.problems.Problem` or the QR-shaped ``(p, q, scheme,
family)`` into one problem and then into a :class:`Plan` — task DAG +
CSR graph index + memoized schedules (+ the elimination list, for QR)
— consulting a process-wide LRU cache and an optional on-disk cache
(``REPRO_PLAN_CACHE``) once.  ``plan_problem`` is the same function.
See :mod:`repro.planner.plan`, :mod:`repro.planner.cache` and
:mod:`repro.problems`.
"""

from .cache import (DEFAULT_CACHE_DIR, PLAN_METRICS, clear_plan_cache,
                    plan_cache_dir, plan_cache_stats)
from .plan import Plan, load_plan, plan, plan_problem, plan_signature, save_plan
from .replay import EtaEstimate, ScheduleReplay

__all__ = [
    "Plan",
    "plan",
    "plan_problem",
    "plan_signature",
    "save_plan",
    "load_plan",
    "ScheduleReplay",
    "EtaEstimate",
    "PLAN_METRICS",
    "plan_cache_stats",
    "clear_plan_cache",
    "plan_cache_dir",
    "DEFAULT_CACHE_DIR",
]
