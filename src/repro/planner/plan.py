"""The plan/execute split: build expensive planning artifacts once (S18).

Everything a tiled-QR run needs ahead of the numeric kernels —
elimination list → task DAG → CSR graph index → (optionally) a
schedule — depends only on the *shape* of the problem:
``(scheme, params, p, q, kernel family, costs)``.  A :class:`Plan`
bundles those artifacts; :func:`plan` produces one.  It resolves
every spelling of a shape — a QR grid and scheme, a problem spec, a
:class:`~repro.problems.Problem` — to one problem, keys it, consults
the process-wide cache (:mod:`repro.planner.cache`) once and builds
on a miss with ``problem.build()``, so CLI sweeps and repeated
:func:`~repro.core.tiled_qr.tiled_qr` calls on same-shaped grids skip
DAG construction entirely.  This mirrors the plan/execute
separation of PLASMA's dynamic scheduler and the QUARK runtime
(PAPERS.md [12]): dependency analysis is a property of the algorithm,
not of the matrix.

Plans are shared across callers — treat them (and the
:class:`~repro.sim.simulate.SimResult` objects they memoize) as
immutable.  Pass ``cache=False`` (or a custom
:class:`~repro.schemes.elimination.EliminationList`, which is never
cached) to bypass sharing, e.g. when you intend to mutate the graph.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ..dag.index import GraphIndex
from ..dag.tasks import TaskGraph
from ..kernels.costs import KERNEL_WEIGHTS, Kernel, KernelFamily
from ..problems import (PROBLEMS, Problem, QRProblem, get_problem,
                        parse_problem_spec)
from ..schemes.elimination import Elimination, EliminationList
from ..schemes.registry import canonical_scheme_spec
from ..sim.simulate import (SimResult, bottom_levels, simulate_bounded,
                            simulate_unbounded)
from . import cache as _cache
from ..core._npz import pack_meta, unpack_meta

__all__ = ["Plan", "plan", "plan_problem", "plan_signature",
           "save_plan", "load_plan"]

_FORMAT_VERSION = 2


def _normalize_costs(costs) -> Optional[dict[Kernel, float]]:
    if costs is None:
        return None
    return {Kernel(k): float(v) for k, v in costs.items()}


def plan_signature(
    spec: str, p: int, q: int,
    family: Optional[KernelFamily],
    costs: Optional[dict[Kernel, float]] = None,
    *,
    problem: str = "qr",
) -> str:
    """Stable cache key of a plan.

    Covers every input the planning artifacts depend on — problem
    family, canonical spec (name + params), grid shape, kernel family
    (``None`` for families without the TT/TS distinction), and any
    cost overrides — so two plans share a key iff they are
    interchangeable.  Including ``problem`` keeps same-shaped plans of
    different families (a ``15 x 6`` QR vs LU grid, say) from ever
    aliasing in the LRU or the disk tier.
    """
    return _signature(
        str(problem), spec, int(p), int(q),
        None if family is None else str(KernelFamily(family)),
        None if not costs else
        tuple(sorted((k.value, float(v)) for k, v in costs.items())))


@functools.lru_cache(maxsize=1024)
def _signature(problem: str, spec: str, p: int, q: int,
               family: Optional[str], costs: Optional[tuple]) -> str:
    # memoized: every factor() call keys its plan, and the JSON and
    # sha256 are most of a cache hit
    payload = {"v": _FORMAT_VERSION, "problem": problem, "scheme": spec,
               "p": p, "q": q, "family": family,
               "costs": None if costs is None else dict(costs)}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:32]


@dataclass
class Plan:
    """Reusable planning artifacts of one factorization shape.

    Attributes
    ----------
    p, q : int
        Tile-grid dimensions.
    family : KernelFamily or None
        Kernel family the DAG was built for; ``None`` for problem
        families without the TT/TS distinction (Cholesky, LU).
    scheme : str or None
        Canonical spec that keyed the plan — a scheme spec
        (``"plasma-tree(bs=5)"``) for QR, a problem spec
        (``"cholesky(t=8)"``) otherwise; ``None`` for plans built from
        a custom elimination list.
    elims : EliminationList or None
        The elimination list (QR only; ``None`` for other families).
    graph : TaskGraph
    problem : str
        Problem family name (``"qr"``, ``"cholesky"``, ``"lu"``).
    costs : dict or None
        Per-kernel weight overrides baked into the graph (``None`` =
        Table 1).
    key : str or None
        Cache signature; ``None`` for uncacheable custom plans.
    built_seconds : float
        Wall-clock spent building (0 when loaded from cache).
    """

    p: int
    q: int
    family: Optional[KernelFamily]
    scheme: Optional[str]
    elims: Optional[EliminationList]
    graph: TaskGraph
    problem: str = "qr"
    costs: Optional[dict[Kernel, float]] = None
    key: Optional[str] = None
    built_seconds: float = 0.0
    _schedules: dict = field(default_factory=dict, repr=False, compare=False)
    _level_groups: Optional[list] = field(
        default=None, repr=False, compare=False)
    _dispatch_arrays: Optional[object] = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def index(self) -> GraphIndex:
        """The graph's CSR index (memoized on the graph)."""
        return self.graph.index()

    def __len__(self) -> int:
        return len(self.graph)

    def unbounded(self) -> SimResult:
        """Memoized unbounded-processor (ASAP) simulation (its arrays
        are the graph index's memo,
        :func:`~repro.sim.simulate.simulate_unbounded`)."""
        res = self._schedules.get(None)
        if res is None:
            res = self._schedules[None] = simulate_unbounded(self)
        return res

    def critical_path(self) -> float:
        """Critical path length in the plan's time units."""
        return self.unbounded().makespan

    def zero_out_steps(self) -> np.ndarray:
        """The paper's Table-3-style matrix of tile zero-out times."""
        return self.unbounded().zero_out_table()

    def schedule(self, processors: Optional[int] = None,
                 priority: str | np.ndarray = "critical-path") -> SimResult:
        """A (memoized) schedule of the plan.

        ``processors=None`` gives the unbounded ASAP schedule;
        otherwise bounded list scheduling.  Results for named priority
        policies are memoized on the plan; explicit priority vectors
        are simulated fresh each call.
        """
        if processors is None:
            return self.unbounded()
        if isinstance(priority, str):
            mkey = (int(processors), priority)
            res = self._schedules.get(mkey)
            if res is None:
                res = simulate_bounded(self, processors, priority)
                self._schedules[mkey] = res
            return res
        return simulate_bounded(self, processors, priority)

    def bottom_levels(self) -> np.ndarray:
        """Per-task bottom levels (critical-path priority), memoized
        on the graph index and read-only.

        The frontier core's priority keys and the bounded simulator's;
        see :func:`repro.sim.simulate.bottom_levels`.
        """
        return bottom_levels(self)

    def level_groups(self) -> list:
        """Memoized drain order of the frontier core: the groups the
        inline transport (``mode="batched"``) runs, in order.

        Built once per plan (it needs the bottom levels and dispatch
        arrays too), never on the per-factor path; see
        :func:`repro.runtime.groups.drain_groups`.
        """
        if self._level_groups is None:
            from ..runtime.groups import drain_groups
            self._level_groups = drain_groups(self)
        return self._level_groups

    def dispatch_arrays(self):
        """Memoized flat per-task dispatch/groupability arrays.

        Kernel codes, tile coordinates and T-store slot assignments,
        aligned by tid — what the frontier core and the group executor
        index; see
        :func:`repro.runtime.groups.dispatch_arrays`.  Cached here so
        a persistent pool skips the O(tasks) flattening on every run
        and micro-batch formation stays O(frontier).
        """
        if self._dispatch_arrays is None:
            from ..runtime.groups import dispatch_arrays
            self._dispatch_arrays = dispatch_arrays(self.graph)
        return self._dispatch_arrays

    def total_weight(self) -> float:
        """Sum of task weights."""
        return self.graph.total_weight()

    def replay(self, processors: Optional[int] = None,
               priority: str = "critical-path"):
        """A :class:`~repro.planner.replay.ScheduleReplay` over the
        plan's memoized schedule — the live-ETA primitive of the
        ``--progress`` dashboard: realized (done, elapsed)
        progress maps onto the simulated schedule to predict the wall
        makespan while the run is still going.
        """
        from .replay import ScheduleReplay
        return ScheduleReplay(self.schedule(processors, priority))

    def rescaled(self, costs: dict) -> "Plan":
        """A derived plan with per-kernel weights replaced.

        Shares the elimination list and the index's structural arrays;
        only weights differ.  Used to feed *measured* kernel times into
        the simulator.  The derived plan is not cached.
        """
        merged = dict(KERNEL_WEIGHTS)
        merged.update(_normalize_costs(costs))
        graph = self.graph.rescale(merged)
        return Plan(p=self.p, q=self.q, family=self.family,
                    scheme=self.scheme, elims=self.elims, graph=graph,
                    problem=self.problem, costs=merged, key=None)


# ----------------------------------------------------------------------
# building and caching
# ----------------------------------------------------------------------

#: the QR-shaped form's arguments, in positional order
_GRID = ("p", "q", "scheme", "family")


def _problem_of(args: tuple, kwargs: dict, costs) -> "Problem | Plan":
    """The one :class:`Problem` a :func:`plan` call spells (or the
    :class:`Plan` it passes through).  A ``None`` grid keyword counts
    as not given."""
    grid = {n: v for n in _GRID if (v := kwargs.pop(n, None)) is not None}
    head = args[0] if args else None
    if isinstance(head, (str, Problem, Plan, EliminationList)):
        if len(args) > 1:
            raise TypeError(
                "plan(spec) takes no positional grid; pass parameters "
                "as keywords, e.g. plan('lu', p=8, q=8)")
        if isinstance(head, Problem) or (
                isinstance(head, str)
                and parse_problem_spec(head)[0] in PROBLEMS):
            return get_problem(head, **grid, **kwargs)
        args = (None, None, head)  # a scheme first, its grid as keywords
    if len(args) > len(_GRID):
        raise TypeError(
            f"plan() takes at most {len(_GRID)} positional arguments "
            f"({len(args)} given)")
    for name, value in zip(_GRID, args):
        if value is not None:
            if name in grid:
                raise TypeError(
                    f"plan() got multiple values for argument {name!r}")
            grid[name] = value
    scheme = grid.get("scheme", "greedy")
    if isinstance(scheme, (Plan, EliminationList)):
        grid = {"p": scheme.p, "q": scheme.q, **grid}  # its own grid
    p, q = grid.get("p"), grid.get("q")
    if p is None or q is None:
        raise ValueError(
            "p and q are required when scheme is a name (a problem spec "
            "such as 'cholesky(t=8)' carries its own)")
    if isinstance(scheme, Plan):
        if (scheme.p, scheme.q) != (p, q):
            raise ValueError(
                f"plan is for a {scheme.p} x {scheme.q} grid, "
                f"requested {p} x {q}")
        family = grid.get("family")
        if family is not None and scheme.family is not KernelFamily(family):
            raise ValueError(
                f"plan was built for family {scheme.family}, "
                f"requested {KernelFamily(family)}")
        if costs is not None or kwargs:
            raise ValueError(
                "a Plan already carries its costs and parameters; "
                "pass them to plan() instead")
        return scheme
    if not isinstance(scheme, (str, EliminationList)):
        raise TypeError(
            "scheme must be a scheme name/spec string, an EliminationList, "
            f"or a Plan, got {type(scheme).__name__}")
    if kwargs:
        scheme = canonical_scheme_spec(scheme, kwargs)
    return QRProblem(p, q, scheme, grid.get("family", KernelFamily.TT))


def _build(problem: Problem, costs: Optional[dict[Kernel, float]],
           key: Optional[str]) -> Plan:
    t0 = time.perf_counter()
    elims, graph = problem.build()
    if costs:
        graph = graph.rescale({**KERNEL_WEIGHTS, **costs})
    graph.index()  # part of the plan: simulations reuse it for free
    built = time.perf_counter() - t0
    _cache.PLAN_METRICS.histogram("plan.build.seconds").observe(built)
    return Plan(p=problem.p, q=problem.q, family=problem.family,
                scheme=problem.plan_spec, elims=elims, graph=graph,
                problem=problem.name, costs=costs, key=key,
                built_seconds=built)


def plan(*args, costs=None, cache: bool = True, disk_cache=None,
         **kwargs) -> Plan:
    """Build (or fetch from cache) the :class:`Plan` of one problem.

    Every spelling of a shape resolves to one
    :class:`~repro.problems.Problem`, whose key picks the cache entry:

    * a problem spec string or :class:`~repro.problems.Problem`::

          plan("cholesky(t=8)")
          plan("lu", p=8, q=8)
          plan("qr(p=8, q=4, scheme='greedy')")

    * a QR grid and scheme, positionally or by keyword::

          plan(8, 4, "greedy")
          plan("greedy", p=8, q=4)

      both exactly ``plan("qr", p=8, q=4, scheme="greedy")``, one
      cache entry per shape.

    Parameters
    ----------
    p, q : int
        Tile-grid dimensions, ``p >= q >= 1`` (QR form).
    scheme : str, EliminationList, or Plan
        Scheme name or spec (``"greedy"``, ``"plasma(bs=5)"``), a
        prebuilt elimination list (never cached), or an existing Plan
        (validated against ``p``/``q``/``family`` and returned as-is).
        The grid defaults to a list's or Plan's own.
    family : {"TT", "TS"}
        Kernel family (Section 2.1); ``TT`` when not given.
    costs : mapping of Kernel -> float, optional
        Per-kernel weight overrides (e.g. measured seconds).  Part of
        the cache key — plans with different costs never alias.
    cache : bool
        ``False`` bypasses both cache tiers (always builds fresh, does
        not store).  Use when you intend to mutate the result.
    disk_cache : path-like, bool, or None
        Override for the disk tier: a directory, ``True`` (default
        location), ``False`` (disable).  ``None`` defers to the
        ``REPRO_PLAN_CACHE`` environment variable.
    **params
        Scheme parameters (``bs=...``, ``k=...``) in the QR form;
        problem parameters (``t=...``, ``p=...``) with a problem spec.
        They override identically named inline spec parameters.  A
        ``None`` ``p``, ``q``, ``scheme`` or ``family`` counts as not
        given.

    Returns
    -------
    Plan
        Shared with other callers when cached — treat as immutable.
    """
    problem = _problem_of(args, kwargs, costs)
    if isinstance(problem, Plan):
        return problem
    costs = _normalize_costs(costs)
    spec = problem.plan_spec
    key = None if spec is None else plan_signature(
        spec, problem.p, problem.q, problem.family, costs,
        problem=problem.name)
    if key is None or not cache:
        return _build(problem, costs, key)

    cached = _cache.memory_get(key)
    if cached is not None:
        return cached
    cache_dir = _cache.plan_cache_dir(disk_cache)
    built = None if cache_dir is None else _load_from_dir(cache_dir, key)
    if built is None:
        built = _build(problem, costs, key)
        if cache_dir is not None:
            _save_to_dir(cache_dir, built)
    _cache.memory_put(key, built)
    return built


#: the problem-first name of :func:`plan`, the same function
plan_problem = plan


# ----------------------------------------------------------------------
# disk format
# ----------------------------------------------------------------------

def save_plan(p: Plan, path) -> None:
    """Persist a plan to ``path`` (an ``.npz`` archive).

    Stores the elimination list and the task graph in flat-array form
    (:meth:`TaskGraph.to_arrays`), so loading skips dataflow inference.
    """
    meta = {
        "version": _FORMAT_VERSION,
        "problem": p.problem,
        "p": p.p,
        "q": p.q,
        "family": None if p.family is None else str(p.family),
        "scheme": p.scheme,
        "elims_name": None if p.elims is None else p.elims.name,
        "graph_name": p.graph.name,
        "key": p.key,
        "costs": None if not p.costs else
                 {k.value: float(v) for k, v in p.costs.items()},
    }
    arrays = {f"g_{name}": arr for name, arr in p.graph.to_arrays().items()}
    elim_rows = [] if p.elims is None else [list(e) for e in p.elims]
    arrays["elims"] = np.array(elim_rows, dtype=np.int32).reshape(-1, 3)
    arrays["meta"] = pack_meta(meta)
    np.savez_compressed(path, **arrays)


def load_plan(path) -> Plan:
    """Restore a plan saved by :func:`save_plan`."""
    with np.load(path) as data:
        meta = unpack_meta(data)
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported plan format {meta.get('version')!r}")
        if meta.get("elims_name") is None:
            elims = None
        else:
            elims = EliminationList(
                meta["p"], meta["q"],
                [Elimination(*row) for row in data["elims"].tolist()],
                name=meta["elims_name"])
        graph = TaskGraph.from_arrays(
            meta["p"], meta["q"], meta["graph_name"],
            {name[2:]: data[name] for name in data.files
             if name.startswith("g_")}, problem=meta.get("problem", "qr"))
    costs = meta.get("costs")
    family = meta.get("family")
    return Plan(p=meta["p"], q=meta["q"],
                family=None if family is None else KernelFamily(family),
                scheme=meta.get("scheme"), elims=elims, graph=graph,
                problem=meta.get("problem", "qr"),
                costs=None if not costs else
                      {Kernel(k): v for k, v in costs.items()},
                key=meta.get("key"))


def _load_from_dir(cache_dir: Path, key: str) -> Optional[Plan]:
    path = cache_dir / f"{key}.npz"
    if not path.is_file():
        _cache.PLAN_METRICS.counter("plan.cache.disk.misses").inc()
        return None
    t0 = time.perf_counter()
    try:
        loaded = load_plan(path)
        if loaded.key != key:
            raise ValueError("plan signature mismatch")
    except Exception:
        # unreadable/stale entry: treat as a miss and let the fresh
        # build overwrite it
        _cache.PLAN_METRICS.counter("plan.cache.disk.load_errors").inc()
        _cache.PLAN_METRICS.counter("plan.cache.disk.misses").inc()
        return None
    _cache.PLAN_METRICS.counter("plan.cache.disk.hits").inc()
    _cache.PLAN_METRICS.histogram("plan.cache.disk.load_seconds").observe(
        time.perf_counter() - t0)
    return loaded


def _save_to_dir(cache_dir: Path, p: Plan) -> None:
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache_dir / f".{p.key}.{os.getpid()}.tmp.npz"
        save_plan(p, tmp)
        os.replace(tmp, cache_dir / f"{p.key}.npz")
        _cache.PLAN_METRICS.counter("plan.cache.disk.writes").inc()
    except OSError:
        # a read-only or full cache directory must never fail the run
        _cache.PLAN_METRICS.counter("plan.cache.disk.write_errors").inc()
