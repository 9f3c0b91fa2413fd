"""Schedule analytics: where the time of a schedule goes (S19).

The paper's whole argument is an *attribution* argument — critical
paths (Table 5), processor efficiency at small ``q`` (Tables 6-9),
kernel-cost tradeoffs (Table 1).  This module turns a schedule into a
structured :class:`ScheduleReport` answering those questions for any
of the three schedule sources the repo produces:

* a simulated :class:`~repro.sim.simulate.SimResult` (bounded or
  unbounded) — :func:`analyze_sim`;
* a measured capture — a :class:`~repro.obs.tracer.Tracer` or an
  :class:`~repro.runtime.executor.ExecutionContext` that carries one —
  :func:`analyze_tracer`;
* a Chrome trace-event JSON document (or file) previously exported by
  :mod:`repro.obs.chrome_trace` — :func:`analyze_chrome_trace`.

A report holds the per-processor busy/idle/utilization breakdown, the
time-by-kernel-family pivot (GEQRT/TSQRT/TTQRT/UNMQR/TSMQR/TTMQR),
the *actual* chain of tasks realizing the makespan
(:func:`critical_path_tasks`, a backward walk over the CSR
:class:`~repro.dag.index.GraphIndex`), per-task slack/laxity from the
existing bottom-levels pass (:func:`task_slack`), and efficiency
against the closed-form lower bounds of Theorem 1.  A measured report
and a simulated report of the same DAG diff into a per-kernel
overhead attribution via :func:`overlay_diff`.

Rendering: ``report.to_dict()`` is JSON-ready;
:func:`render_report` gives ``text`` / ``markdown`` / ``json``.

Identities (tested on the paper's Table 3-5 grids):

* ``sum(lane.busy) + sum(lane.idle) == makespan * processors``;
* the critical path's total weight equals the makespan — for the
  unbounded ASAP schedule that is the classical critical path, for a
  bounded list schedule the chain alternates dependency edges and
  worker-reuse edges but still tiles ``[0, makespan]`` exactly;
* ``slack >= 0`` everywhere, with equality exactly on tasks lying on
  some unbounded critical path.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..kernels.costs import Kernel
from ..sim.simulate import SimResult, bottom_levels, simulate_unbounded
from .tracer import PHASES, TaskPhases, Tracer

__all__ = [
    "LaneStats",
    "KernelStats",
    "CriticalPathStep",
    "CriticalPath",
    "SlackStats",
    "ScheduleReport",
    "OverheadReport",
    "analyze",
    "analyze_sim",
    "analyze_tracer",
    "analyze_chrome_trace",
    "analyze_events",
    "analyze_trace_file",
    "alap_lower_bound",
    "critical_path_tasks",
    "task_slack",
    "overhead_report",
    "overlay_diff",
    "render_report",
    "render_overhead_report",
    "render_overlay",
]

#: canonical kernel-family order of every pivot table
KERNEL_ORDER = tuple(k.value for k in Kernel)


# ----------------------------------------------------------------------
# report containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LaneStats:
    """Busy/idle accounting of one processor lane."""

    lane: int
    tasks: int
    busy: float
    idle: float
    utilization: float

    def to_dict(self) -> dict:
        return {"lane": self.lane, "tasks": self.tasks, "busy": self.busy,
                "idle": self.idle, "utilization": self.utilization}


@dataclass(frozen=True)
class KernelStats:
    """Time attributed to one kernel family."""

    kernel: str
    count: int
    total: float
    mean: float
    share: float  #: fraction of the schedule's total busy time

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "count": self.count,
                "total": self.total, "mean": self.mean, "share": self.share}


@dataclass(frozen=True)
class CriticalPathStep:
    """One task on the makespan-realizing chain.

    ``via`` records what pinned the task's start time: ``"source"``
    (starts at t=0), ``"dep"`` (a predecessor finished then), or
    ``"worker"`` (the task was ready earlier but waited for a
    processor that another task's completion freed — only possible in
    bounded schedules).
    """

    tid: int
    name: str
    kernel: str
    weight: float
    start: float
    finish: float
    via: str

    def to_dict(self) -> dict:
        return {"tid": self.tid, "name": self.name, "kernel": self.kernel,
                "weight": self.weight, "start": self.start,
                "finish": self.finish, "via": self.via}


@dataclass(frozen=True)
class CriticalPath:
    """The chain of tasks realizing a schedule's makespan.

    ``length`` (the sum of step weights) equals the makespan: the
    steps tile ``[0, makespan]`` with no gaps.  ``dep_edges`` counts
    true dependency links, ``worker_edges`` resource waits.
    """

    steps: tuple[CriticalPathStep, ...]
    length: float
    makespan: float
    dep_edges: int
    worker_edges: int

    def __len__(self) -> int:
        return len(self.steps)

    def kernel_counts(self) -> dict[str, int]:
        """How many chain steps each kernel family contributes."""
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.kernel] = out.get(s.kernel, 0) + 1
        return {k: out[k] for k in KERNEL_ORDER if k in out}

    def to_dict(self) -> dict:
        return {"length": self.length, "makespan": self.makespan,
                "tasks": len(self.steps), "dep_edges": self.dep_edges,
                "worker_edges": self.worker_edges,
                "kernel_counts": self.kernel_counts(),
                "steps": [s.to_dict() for s in self.steps]}


@dataclass(frozen=True)
class SlackStats:
    """Distribution summary of per-task slack (laxity)."""

    min: float
    max: float
    mean: float
    critical_tasks: int  #: tasks with zero slack (on some critical path)

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "mean": self.mean,
                "critical_tasks": self.critical_tasks}


@dataclass
class ScheduleReport:
    """Structured analytics of one schedule.

    ``source`` is ``"sim"``, ``"measured"``, or ``"trace"``.  Fields
    that need the task DAG (critical path, slack, bounds) are ``None``
    for sources that do not carry one.
    """

    source: str
    label: str
    makespan: float
    processors: Optional[int]
    tasks: int
    total_busy: float
    utilization: Optional[float]
    #: problem/kernel-family label ("qr", "qr[TT]", "cholesky"); empty
    #: when the source does not carry one (e.g. foreign Chrome traces)
    problem: str = ""
    lanes: list[LaneStats] = field(default_factory=list)
    kernels: list[KernelStats] = field(default_factory=list)
    critical_path: Optional[CriticalPath] = None
    slack: Optional[SlackStats] = None
    bounds: Optional[dict] = None
    #: ready-to-start queue-wait summary of a measured capture
    #: (min/mean/p95/max/total seconds) — ``None`` for sim sources
    queue_wait: Optional[dict] = None

    # ------------------------------------------------------------------
    def kernel_shares(self) -> dict[str, float]:
        """``{kernel: fraction of total busy time}`` in canonical order."""
        return {k.kernel: k.share for k in self.kernels}

    def total_idle(self) -> float:
        return sum(l.idle for l in self.lanes)

    def to_dict(self) -> dict:
        """JSON-ready snapshot of the full report."""
        return {
            "source": self.source,
            "label": self.label,
            "problem": self.problem,
            "makespan": self.makespan,
            "processors": self.processors,
            "tasks": self.tasks,
            "total_busy": self.total_busy,
            "total_idle": self.total_idle(),
            "utilization": self.utilization,
            "lanes": [l.to_dict() for l in self.lanes],
            "kernels": [k.to_dict() for k in self.kernels],
            "critical_path": None if self.critical_path is None
                             else self.critical_path.to_dict(),
            "slack": None if self.slack is None else self.slack.to_dict(),
            "bounds": self.bounds,
            "queue_wait": self.queue_wait,
        }

    def summary(self) -> dict:
        """Compact dict for embedding in other reports (pipeline, bench)."""
        out = {
            "source": self.source,
            "makespan": self.makespan,
            "processors": self.processors,
            "tasks": self.tasks,
            "utilization": self.utilization,
            "kernel_shares": self.kernel_shares(),
        }
        if self.critical_path is not None:
            out["critical_path_length"] = self.critical_path.length
            out["critical_path_tasks"] = len(self.critical_path)
        if self.slack is not None:
            out["critical_tasks"] = self.slack.critical_tasks
            out["max_slack"] = self.slack.max
        if self.bounds is not None:
            out["efficiency"] = self.bounds.get("efficiency")
        return out


# ----------------------------------------------------------------------
# DAG-side analytics: slack and the makespan-realizing chain
# ----------------------------------------------------------------------

def task_slack(graph, unbounded: Optional[SimResult] = None) -> np.ndarray:
    """Per-task slack (laxity) against the unbounded critical path.

    ``slack[t] = cp - est[t] - bl[t]`` where ``est`` is the ASAP start
    (:func:`~repro.sim.simulate.simulate_unbounded`), ``bl`` the
    bottom level (longest weighted path from ``t`` to a sink,
    *including* ``t``), and ``cp`` the critical path length.  Zero
    exactly on tasks lying on some critical path; a positive value is
    how long the task may be delayed without stretching the DAG's
    makespan.

    Parameters
    ----------
    graph : TaskGraph or Plan
    unbounded : SimResult, optional
        A precomputed unbounded simulation of ``graph`` (saves the
        forward pass when the caller already has one).
    """
    if unbounded is None:
        unbounded = simulate_unbounded(graph)
    bl = bottom_levels(graph)
    cp = unbounded.makespan
    slack = cp - unbounded.start - bl
    # exact for integral Table-1 weights; forgive float round-off from
    # measured-seconds weights
    tol = 1e-9 * max(cp, 1.0)
    slack[(slack < 0.0) & (slack > -tol)] = 0.0
    return slack


def alap_lower_bound(graph, processors: int,
                     unbounded: Optional[SimResult] = None) -> float:
    """ALAP-schedule makespan lower bound (Quach & Langou, 1510.05107).

    Sharper than ``max(critical path, work / P)``: in any
    ``P``-processor schedule of makespan ``M``, a task ``t`` must
    *finish* by ``M - rest[t]`` where ``rest[t] = bl[t] - w[t]`` is
    the weight that must still run after it (its ALAP finish), so the
    work of every task with ``rest >= x`` has to fit into the capacity
    ``P * (M - x)``::

        M  >=  max over x  of  x + W_rest(x) / P

    with candidates ``x`` the distinct ``rest`` values.  The mirrored
    ASAP form uses earliest start times: tasks with ``est >= tau`` run
    entirely inside ``[tau, M]``, giving ``M >= tau + W_est(tau) / P``.
    The returned bound is the max of both families; at ``x = 0`` it
    degenerates to ``work / P``, so it never loosens the classical
    area bound — and near the DAG's sequential head/tail (small
    Cholesky/QR panels, few processors) it is strictly tighter.

    Parameters
    ----------
    graph : TaskGraph or Plan
    processors : int
        Processor count ``P >= 1``.
    unbounded : SimResult, optional
        A precomputed unbounded simulation of ``graph``.
    """
    P = int(processors)
    if P < 1:
        raise ValueError(f"need processors >= 1, got {processors}")
    idx = graph.index() if not hasattr(graph, "graph") else graph.index
    w = idx.weights
    if idx.n == 0:
        return 0.0
    if unbounded is None:
        unbounded = simulate_unbounded(graph)
    bl = bottom_levels(graph)
    best = 0.0
    for key in (bl - w, unbounded.start):
        order = np.argsort(key)
        suffix = np.cumsum(w[order][::-1])[::-1]
        vals = key[order] + suffix / P
        best = max(best, float(vals.max()))
    return best


def critical_path_tasks(result: SimResult) -> CriticalPath:
    """Extract the chain of tasks realizing ``result``'s makespan.

    Walks backward from the last-finishing task over the graph's CSR
    index.  At each step the current task started at ``s`` because
    either a predecessor finished at ``s`` (a *dependency* edge) or —
    bounded schedules only — some task's completion at ``s`` freed a
    processor (a *worker* edge; the same-worker task is preferred).
    Either way the chain is gapless, so its total weight equals the
    makespan.  Ties break to the smallest task id, making the chain
    deterministic.
    """
    g = result.graph
    idx = g.index()
    n = idx.n
    makespan = float(result.makespan)
    if n == 0:
        return CriticalPath(steps=(), length=0.0, makespan=makespan,
                            dep_edges=0, worker_edges=0)
    start, finish = result.start, result.finish
    pred_ptr, pred_adj = idx.pred_ptr, idx.pred_adj
    by_finish = np.argsort(finish, kind="stable")
    fsorted = finish[by_finish]
    visited = np.zeros(n, dtype=bool)

    cur = int(np.flatnonzero(finish == finish.max()).min())
    steps: list[CriticalPathStep] = []
    dep_edges = worker_edges = 0
    for _ in range(n):  # bounded: each task appears at most once
        visited[cur] = True
        s = float(start[cur])
        nxt: Optional[int] = None
        if s <= 0.0:
            via = "source"
        else:
            preds = pred_adj[pred_ptr[cur]:pred_ptr[cur + 1]]
            dep = preds[(finish[preds] == s) & ~visited[preds]]
            if dep.size:
                via, nxt = "dep", int(dep.min())
            else:
                lo = np.searchsorted(fsorted, s, side="left")
                hi = np.searchsorted(fsorted, s, side="right")
                cand = by_finish[lo:hi]
                cand = cand[~visited[cand]]
                if cand.size == 0:
                    # no event at s: a gap (never happens for the
                    # repo's list schedules; be safe for foreign data)
                    via = "source"
                else:
                    if result.worker is not None:
                        same = cand[result.worker[cand]
                                    == result.worker[cur]]
                        nxt = int(same.min()) if same.size else int(cand.min())
                    else:
                        nxt = int(cand.min())
                    via = "worker"
        steps.append(CriticalPathStep(
            tid=cur, name=g.label(cur), kernel=KERNEL_ORDER[g.codes[cur]],
            weight=float(idx.weights[cur]), start=s,
            finish=float(finish[cur]), via=via))
        if nxt is None:
            break
        if via == "dep":
            dep_edges += 1
        else:
            worker_edges += 1
        cur = nxt
    steps.reverse()
    length = float(sum(st.weight for st in steps))
    return CriticalPath(steps=tuple(steps), length=length, makespan=makespan,
                        dep_edges=dep_edges, worker_edges=worker_edges)


# ----------------------------------------------------------------------
# analyzers, one per schedule source
# ----------------------------------------------------------------------

def _kernel_pivot(names: list[str], durations: list[float],
                  counts: list[int]) -> list[KernelStats]:
    """Aggregate ``(kernel name, duration, task count)`` records in
    canonical order: a group record adds its window once and its
    member count to the kernel's tasks."""
    total_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    for name, d, c in zip(names, durations, counts):
        total_by[name] = total_by.get(name, 0.0) + d
        count_by[name] = count_by.get(name, 0) + c
    return _kernel_stats(total_by, count_by)


def _kernel_pivot_codes(codes: np.ndarray,
                        durations: np.ndarray) -> list[KernelStats]:
    """:func:`_kernel_pivot` over kernel codes, in one ``bincount``.

    ``bincount`` adds each bin's durations in task order, and the
    kernels enter the dicts in order of first appearance, so every
    sum is the one the per-task loop computes.
    """
    totals = np.bincount(codes, weights=durations).tolist()
    counts = np.bincount(codes).tolist()
    _, first = np.unique(codes, return_index=True)
    present = codes[np.sort(first)].tolist()
    return _kernel_stats({KERNEL_ORDER[c]: totals[c] for c in present},
                         {KERNEL_ORDER[c]: counts[c] for c in present})


def _kernel_stats(total_by: dict[str, float],
                  count_by: dict[str, int]) -> list[KernelStats]:
    """Per-kernel stats of accumulated totals, in canonical order."""
    grand = sum(total_by.values())
    order = [k for k in KERNEL_ORDER if k in total_by] + sorted(
        k for k in total_by if k not in KERNEL_ORDER)
    return [KernelStats(kernel=k, count=count_by[k], total=total_by[k],
                        mean=total_by[k] / count_by[k],
                        share=total_by[k] / grand if grand else 0.0)
            for k in order]


def _lane_stats(workers: np.ndarray, durations: np.ndarray,
                makespan: float, n_lanes: int,
                tasks: Optional[np.ndarray] = None) -> list[LaneStats]:
    """Per-lane busy/idle books; ``tasks`` weights each record by the
    tasks it covers (one each when omitted)."""
    busy = np.bincount(workers, weights=durations, minlength=n_lanes)
    counts = np.bincount(workers, weights=tasks, minlength=n_lanes)
    return [LaneStats(lane=k, tasks=int(counts[k]), busy=float(busy[k]),
                      idle=float(makespan - busy[k]),
                      utilization=float(busy[k] / makespan) if makespan
                                  else 1.0)
            for k in range(n_lanes)]


def analyze_sim(result: SimResult, label: str = "",
                bounds: bool = True) -> ScheduleReport:
    """Full analytics of a simulated schedule.

    Includes the critical-path chain, slack statistics, and (with
    ``bounds=True``) efficiency against the schedule's lower bounds:
    the DAG critical path, the work bound ``total_weight / P``, the
    ALAP area bound (:func:`alap_lower_bound` — bounded schedules
    only, and never looser than ``work / P``), and — for QR DAGs with
    ``q >= 2`` and ``p >= 2q``, where the repo verifies it — the
    paper's Theorem 1(3) bound ``22q - 30`` (meaningful for Table-1
    weights; near-square grids break it, e.g. Greedy TT at 40 x 40 has
    critical path 826 < 850).  Works for any problem family;
    the graph's ``problem`` attribute labels the report.
    """
    g = result.graph
    idx = g.index()
    w = idx.weights
    makespan = float(result.makespan)
    total_busy = float(w.sum())
    P = result.processors

    lanes: list[LaneStats] = []
    if result.worker is not None and idx.n:
        n_lanes = P if P is not None else int(result.worker.max()) + 1
        lanes = _lane_stats(result.worker, w, makespan, n_lanes)
    utilization = (total_busy / (P * makespan)
                   if P and makespan > 0 else None)

    kernels = _kernel_pivot_codes(g.codes, w)

    unbounded = result if P is None else simulate_unbounded(g)
    slack_arr = task_slack(g, unbounded=unbounded)
    slack = SlackStats(
        min=float(slack_arr.min()) if idx.n else 0.0,
        max=float(slack_arr.max()) if idx.n else 0.0,
        mean=float(slack_arr.mean()) if idx.n else 0.0,
        critical_tasks=int((slack_arr == 0.0).sum()))

    cp = critical_path_tasks(result)

    problem = getattr(g, "problem", "qr")

    bounds_dict = None
    if bounds:
        cp_bound = float(unbounded.makespan)
        bounds_dict = {"critical_path": cp_bound}
        if P:
            work_bound = total_busy / P
            alap = alap_lower_bound(g, P, unbounded=unbounded)
            lower = max(cp_bound, work_bound, alap)
            bounds_dict.update({
                "work": work_bound,
                "alap": alap,
                "lower": lower,
                "efficiency": lower / makespan if makespan else 1.0,
                "speedup": total_busy / makespan if makespan else float(P),
            })
        else:
            bounds_dict["efficiency"] = (cp_bound / makespan
                                         if makespan else 1.0)
        if problem == "qr" and g.q >= 2 and g.p >= 2 * g.q:
            from ..analysis.formulas import optimal_cp_lower_bound

            bounds_dict["paper_cp_lower_bound"] = float(
                optimal_cp_lower_bound(g.q))

    name = label or (g.name or "simulated")
    return ScheduleReport(source="sim", label=name, makespan=makespan,
                          processors=P, tasks=idx.n, total_busy=total_busy,
                          utilization=utilization, problem=problem,
                          lanes=lanes, kernels=kernels, critical_path=cp,
                          slack=slack, bounds=bounds_dict)


def _wait_summary(waits: np.ndarray) -> Optional[dict]:
    """min/mean/p95/max/total summary of ready-to-start delays.

    ``None`` when there were no waits at all (empty, or an executor —
    sequential, batched — that never queues a ready task)."""
    if waits.size == 0 or float(waits.max()) <= 0.0:
        return None
    return {"min": float(waits.min()), "mean": float(waits.mean()),
            "p95": float(np.percentile(waits, 95.0)),
            "max": float(waits.max()), "total": float(waits.sum())}


def _measured_report(source: str, label: str, kernels: list,
                     durations: np.ndarray, counts: np.ndarray,
                     makespan: float, lanes: np.ndarray, n_lanes: int,
                     problem: str = "",
                     queue_wait: Optional[dict] = None) -> ScheduleReport:
    """The report of a measured capture, one record per span or event.

    Record ``i`` is a window of ``durations[i]`` seconds in which
    ``counts[i]`` tasks of kernel ``kernels[i]`` ran on lane
    ``lanes[i]`` of ``n_lanes`` (``-1``: on no lane).  A group record
    counts its window once towards busy time and its members towards
    the task counts; every record counts towards busy time, only those
    on a lane towards the lane books.
    """
    total_busy = float(durations.sum())
    on = lanes >= 0
    return ScheduleReport(
        source=source, label=label, makespan=makespan,
        processors=n_lanes or None, tasks=int(counts.sum()),
        total_busy=total_busy,
        utilization=(total_busy / (n_lanes * makespan)
                     if n_lanes and makespan > 0 else None),
        problem=problem,
        lanes=(_lane_stats(lanes[on], durations[on], makespan, n_lanes,
                           counts[on]) if n_lanes else []),
        kernels=_kernel_pivot(kernels, durations.tolist(), counts.tolist()),
        queue_wait=queue_wait)


def analyze_tracer(tracer: Tracer, label: str = "measured") -> ScheduleReport:
    """Analytics of a measured span capture (times in seconds).

    Each span is one group of ``count`` tasks: its window counts once
    towards busy time and its members towards the task counts, so
    ``tasks`` is the number of tasks, not of spans.  Per-worker busy
    time is the sum of kernel durations; idle is everything else
    inside the capture's makespan window.  Span submit→start delays,
    one per member, summarize into :attr:`ScheduleReport.queue_wait`
    — the measured counterpart of slack (how long ready work actually
    sat in the queue).  The DAG is not reconstructed, so critical path
    / slack / bounds are ``None`` — diff against a simulated report
    via :func:`overlay_diff` for the model-vs-reality attribution.
    """
    spans = list(tracer.spans)
    counts = np.array([s.count for s in spans], dtype=np.int64)
    waits = np.repeat([max(0.0, s.queue_delay) for s in spans], counts)
    return _measured_report(
        "measured", label, [s.kernel for s in spans],
        np.array([s.duration for s in spans], dtype=np.float64), counts,
        float(tracer.makespan()),
        np.array([s.worker for s in spans], dtype=np.int64),
        tracer.worker_count, queue_wait=_wait_summary(waits))


# ----------------------------------------------------------------------
# per-task overhead attribution (S23)
# ----------------------------------------------------------------------

#: the phases that are coordination, not kernel work or scheduling
#: choice: descriptor pickling + queue transfer, worker-side unpack,
#: completion publish, and done-queue transit back.  Their per-task
#: mean is the "IPC tax" headline of an :class:`OverheadReport`.
IPC_PHASES = ("dispatched", "deserialized", "published", "retired")


@dataclass
class OverheadReport:
    """Where every microsecond of a traced run went, per phase.

    Built by :func:`overhead_report` from the :class:`TaskPhases`
    records of a :class:`~repro.obs.tracer.DistributedTracer` (process
    backend) or, degenerately, from the plain spans of any tracer —
    thread/batched runs land everything in ``queued`` + ``computing``,
    which keeps the table comparable across all three modes.

    ``phase_totals``/``phase_means`` are seconds (means normalized per
    retired task); ``per_kernel`` and ``per_worker`` pivot the same
    sums.  ``ipc_tax_s`` is the mean per-task cost of the four
    coordination phases (:data:`IPC_PHASES`); ``overhead_share`` the
    non-``computing`` fraction of summed task latency;
    ``critical_path_overhead_share`` the same fraction along the
    latest-predecessor dependency chain ending at the run's last
    retirement (``None`` without a graph).  ``clock`` carries each
    worker's offset estimate; ``max_residual_s`` bounds how much of
    any phase is clock-alignment noise.
    """

    label: str
    tasks: int
    records: int
    workers: int
    makespan: float
    phase_totals: dict = field(default_factory=dict)
    phase_means: dict = field(default_factory=dict)
    per_kernel: list[dict] = field(default_factory=list)
    per_worker: list[dict] = field(default_factory=list)
    ipc_tax_s: float = 0.0
    overhead_share: float = 0.0
    critical_path_overhead_share: Optional[float] = None
    aborted: int = 0
    unmeasured: int = 0
    clock: list[dict] = field(default_factory=list)
    max_residual_s: float = 0.0
    #: True when worker-side boundaries were actually measured for at
    #: least one task (False = degenerate two-phase view)
    distributed: bool = False

    def to_dict(self) -> dict:
        return {
            "label": self.label, "tasks": self.tasks,
            "records": self.records, "workers": self.workers,
            "makespan": self.makespan, "phase_totals": self.phase_totals,
            "phase_means": self.phase_means, "per_kernel": self.per_kernel,
            "per_worker": self.per_worker, "ipc_tax_s": self.ipc_tax_s,
            "overhead_share": self.overhead_share,
            "critical_path_overhead_share":
                self.critical_path_overhead_share,
            "aborted": self.aborted, "unmeasured": self.unmeasured,
            "clock": self.clock, "max_residual_s": self.max_residual_s,
            "distributed": self.distributed,
        }


def _degenerate_phases(tracer: Tracer) -> list[TaskPhases]:
    """Two-phase view of a plain span capture (thread/batched/seq).

    ``ready = submit`` and ``dispatch = recv = start``, ``publish =
    finish = retire``: queue wait lands in ``queued``, the kernel in
    ``computing``, the four coordination phases are zero — the exact
    degenerate case of the lifecycle model, so reports stay comparable
    with process-mode ones.
    """
    out = []
    for s in tracer.spans:
        sub = min(s.submit, s.start)
        out.append(TaskPhases(
            tid=s.tid, name=s.name, kernel=s.kernel, worker=s.worker,
            ready=sub, dispatch=s.start, recv=s.start, start=s.start,
            finish=s.finish, publish=s.finish, retire=s.finish,
            count=s.count, aborted=s.aborted, measured=False,
            tids=s.tids))
    return out


def overhead_report(tracer: Tracer, graph=None,
                    label: str = "") -> OverheadReport:
    """Attribute a traced run's time to the six lifecycle phases.

    ``tracer`` is any tracer: a
    :class:`~repro.obs.tracer.DistributedTracer` with merged
    :class:`TaskPhases` records gives the full six-phase attribution;
    a plain span capture degenerates to queued + computing.  Passing
    the run's ``graph`` (TaskGraph or Plan) adds the overhead share
    along the dependency chain that actually gated the finish.
    """
    phases = list(getattr(tracer, "phases", None) or [])
    distributed = any(p.measured for p in phases)
    if not phases:
        phases = _degenerate_phases(tracer)
    records = len(phases)
    ntasks = sum(p.count for p in phases)
    workers = sorted({p.worker for p in phases})
    makespan = (max(p.retire for p in phases)
                - min(p.ready for p in phases)) if phases else 0.0

    totals = {name: 0.0 for name in PHASES}
    lat_total = 0.0
    kern: dict[str, dict] = {}
    work: dict[int, dict] = {}
    for p in phases:
        kr = kern.setdefault(p.kernel, {"count": 0, "latency": 0.0,
                                        **{n: 0.0 for n in PHASES}})
        wr = work.setdefault(p.worker, {"tasks": 0, "latency": 0.0,
                                        **{n: 0.0 for n in PHASES}})
        kr["count"] += p.count
        wr["tasks"] += p.count
        lat = p.latency
        lat_total += lat
        kr["latency"] += lat
        wr["latency"] += lat
        for name in PHASES:
            v = p.phase(name)
            totals[name] += v
            kr[name] += v
            wr[name] += v
    means = {name: (totals[name] / ntasks if ntasks else 0.0)
             for name in PHASES}
    ipc_tax = sum(means[name] for name in IPC_PHASES)
    overhead_share = (1.0 - totals["computing"] / lat_total
                      if lat_total > 0 else 0.0)

    order = [k for k in KERNEL_ORDER if k in kern] + sorted(
        k for k in kern if k not in KERNEL_ORDER)
    per_kernel = [{"kernel": k, **kern[k]} for k in order]
    per_worker = [{"worker": w, **work[w]} for w in workers]

    cp_share = None
    if graph is not None and phases:
        g = getattr(graph, "graph", graph)
        idx = graph.index if hasattr(graph, "graph") else g.index()
        # each member task -> its group's record
        by_tid = {t: p for p in phases for t in p.tids}
        pp, pa = idx.pred_ptr, idx.pred_adj
        # follow the latest-retiring predecessor group back from the
        # last retirement: the dependency chain that gated the finish
        cur = max(phases, key=lambda p: p.retire)
        chain_lat = chain_comp = 0.0
        seen = set()
        while cur.tid not in seen:
            seen.add(cur.tid)
            chain_lat += cur.latency
            chain_comp += cur.computing
            preds = [by_tid[t] for m in cur.tids
                     for t in pa[pp[m]:pp[m + 1]].tolist() if t in by_tid]
            preds = [p for p in preds if p is not cur]
            if not preds:
                break
            cur = max(preds, key=lambda p: p.retire)
        if chain_lat > 0:
            cp_share = 1.0 - chain_comp / chain_lat

    clocks = getattr(tracer, "clocks", {}) or {}
    return OverheadReport(
        label=label or "traced run", tasks=ntasks, records=records,
        workers=len(workers), makespan=makespan, phase_totals=totals,
        phase_means=means, per_kernel=per_kernel, per_worker=per_worker,
        ipc_tax_s=ipc_tax, overhead_share=overhead_share,
        critical_path_overhead_share=cp_share,
        aborted=sum(1 for p in phases if p.aborted),
        unmeasured=sum(1 for p in phases if not p.measured),
        clock=[clocks[w].to_dict() for w in sorted(clocks)],
        max_residual_s=float(getattr(tracer, "max_residual", 0.0)),
        distributed=distributed)


def _render_overhead(rep: OverheadReport, markdown: bool) -> str:
    h1 = "## " if markdown else "== "
    h1e = "" if markdown else " =="
    h2 = "### " if markdown else "-- "
    h2e = "" if markdown else " --"
    us = 1e6
    lines = [f"{h1}overhead report: {rep.label}{h1e}", ""]
    lines.append(
        f"tasks {rep.tasks} | workers {rep.workers} | makespan "
        f"{_fmt(rep.makespan)} s | aborted {rep.aborted}"
        + ("" if rep.distributed else " | (two-phase fallback: no "
           "worker-side spans)"))
    lines.append("")
    lines.append(h2 + "per-task phase means" + h2e)
    lines.extend(_table(
        ["phase", "mean (us)", "total (s)", "share"],
        [[name, round(rep.phase_means[name] * us, 2),
          round(rep.phase_totals[name], 6),
          (f"{rep.phase_totals[name] / sum(rep.phase_totals.values()) * 100:.1f}%"
           if sum(rep.phase_totals.values()) else "-")]
         for name in PHASES], markdown))
    lines.append("")
    lines.append(f"IPC tax: {rep.ipc_tax_s * us:.1f} us/task "
                 f"({' + '.join(IPC_PHASES)}); overhead share "
                 f"{rep.overhead_share * 100:.1f}% of summed task latency"
                 + (f"; {rep.critical_path_overhead_share * 100:.1f}% "
                    "along the gating dependency chain"
                    if rep.critical_path_overhead_share is not None
                    else ""))
    if rep.per_kernel:
        lines.append("")
        lines.append(h2 + "per kernel (mean us/task)" + h2e)
        rows = []
        for r in rep.per_kernel:
            c = max(1, r["count"])
            rows.append([r["kernel"], r["count"]]
                        + [round(r[name] / c * us, 2) for name in PHASES]
                        + [round(r["latency"] / c * us, 2)])
        lines.extend(_table(["kernel", "count", *PHASES, "latency"],
                            rows, markdown))
    if rep.per_worker:
        lines.append("")
        lines.append(h2 + "per worker (total s)" + h2e)
        rows = [[r["worker"], r["tasks"]]
                + [round(r[name], 6) for name in PHASES]
                for r in rep.per_worker]
        lines.extend(_table(["worker", "tasks", *PHASES], rows, markdown))
    if rep.clock:
        lines.append("")
        lines.append(h2 + "clock alignment" + h2e)
        lines.extend(_table(
            ["worker", "offset (us)", "residual (us)", "rtt (us)",
             "drift (us/s)", "pings"],
            [[c["worker"], round(c["offset_s"] * us, 2),
              round(c["residual_s"] * us, 2), round(c["rtt_s"] * us, 2),
              round(c["drift"] * us, 3), c["samples"]]
             for c in rep.clock], markdown))
        lines.append(f"worst alignment residual: "
                     f"{rep.max_residual_s * us:.1f} us — phase "
                     "boundaries are exact to within this bound")
    return "\n".join(lines)


def render_overhead_report(rep: OverheadReport, fmt: str = "text") -> str:
    """Render an overhead report as ``text`` / ``markdown`` / ``json``."""
    if fmt == "json":
        return json.dumps(rep.to_dict(), indent=1, sort_keys=True)
    if fmt == "markdown":
        return _render_overhead(rep, markdown=True)
    if fmt == "text":
        return _render_overhead(rep, markdown=False)
    raise ValueError(f"unknown format {fmt!r} "
                     "(choose from text, markdown, json)")


def _open_trace(path):
    """Open a trace file for text reading, transparently gunzipping."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def analyze_chrome_trace(source: Union[str, dict]) -> list[ScheduleReport]:
    """Analytics of an exported Chrome trace, one report per process.

    ``source`` is a trace document (the ``{"traceEvents": [...]}``
    dict) or a path to one (``.gz`` read transparently).  Each ``pid``
    group — e.g. ``measured`` and ``simulated`` lanes exported
    together by ``repro profile`` — yields one report; timestamps are
    converted from microseconds back to seconds.  Placeholder events
    emitted for empty sources are ignored, and so are the
    ``dispatch`` / ``overhead`` category slices of merged multi-process
    traces (the parent's dispatch lane and the workers'
    deserialize/publish slivers) — per-worker utilization counts each
    kernel exactly once, never the coordination that shadowed it.
    """
    if not isinstance(source, dict):
        with _open_trace(source) as fh:
            source = json.load(fh)
    events = source.get("traceEvents", [])
    problem = source.get("otherData", {}).get("problem", "")
    names: dict[int, str] = {}
    by_pid: dict[int, list[dict]] = {}
    for e in events:
        pid = int(e.get("pid", 0))
        if e.get("ph") == "M":
            if e.get("name") == "process_name":
                names[pid] = e.get("args", {}).get("name", str(pid))
        elif (e.get("ph") == "X"
              and not e.get("args", {}).get("placeholder")
              and e.get("cat") not in ("dispatch", "overhead")):
            by_pid.setdefault(pid, []).append(e)

    reports = []
    for pid in sorted(set(names) | set(by_pid)):
        xs = by_pid.get(pid, [])
        ts = np.array([float(e["ts"]) for e in xs]) / 1e6
        dur = np.array([float(e.get("dur", 0.0)) for e in xs]) / 1e6
        # a group span covers args.count tasks; each thread is a lane
        counts = np.array([int(e.get("args", {}).get("count", 1))
                           for e in xs], dtype=np.int64)
        tids, lanes = np.unique(np.array([int(e.get("tid", 0)) for e in xs],
                                         dtype=np.int64),
                                return_inverse=True)
        reports.append(_measured_report(
            "trace", names.get(pid, str(pid)),
            [e.get("args", {}).get("kernel") or e["name"].split("(")[0]
             for e in xs], dur, counts,
            float((ts + dur).max() - ts.min()) if xs else 0.0,
            lanes, len(tids), problem=problem))
    return reports


def analyze_events(events, label: str = "events") -> ScheduleReport:
    """Analytics of an event-bus capture (JSONL log or live snapshot).

    Rebuilds a measured-style report from ``group_done`` events (and
    the ``task_done`` events of older logs) alone: each carries its
    kernel, duration (``value``, seconds), retired-task ``count`` (the
    group size), and worker index.  Start times are recovered as
    ``t - value`` — the publish stamp is taken at finish — so the
    makespan window and per-lane busy/idle books agree with the
    tracer's view of the same run to within publish latency.
    """
    events = list(events)
    problem = next((e.problem for e in events
                    if e.kind == "run_start" and e.problem), "")
    done = [e for e in events if e.kind in ("task_done", "group_done")]
    ts = np.array([e.t for e in done], dtype=np.float64)
    dur = np.array([max(0.0, e.value) for e in done], dtype=np.float64)
    counts = np.array([max(1, e.count) for e in done], dtype=np.int64)
    # events without a worker (worker < 0) count towards busy time only
    workers = np.array([e.worker for e in done], dtype=np.int64)
    on = workers >= 0
    wids, inverse = np.unique(workers[on], return_inverse=True)
    lanes = np.full(len(done), -1, dtype=np.int64)
    lanes[on] = inverse
    return _measured_report(
        "trace", label, [e.kernel or "?" for e in done], dur, counts,
        float(ts.max() - (ts - dur).min()) if done else 0.0,
        lanes, len(wids), problem=problem)


def analyze_trace_file(path) -> list[ScheduleReport]:
    """Analyze a trace file of either format, sniffing which it is.

    Accepts the Chrome trace-event JSON documents written by ``repro
    profile --out`` *and* the JSONL event logs written by ``repro
    profile --events`` (either gzipped when the name ends in ``.gz``).
    A file whose first line parses as an object with a ``kind`` key is
    JSONL; anything else goes through :func:`analyze_chrome_trace`.
    """
    with _open_trace(path) as fh:
        head = fh.readline()
    try:
        first = json.loads(head)
        is_jsonl = isinstance(first, dict) and "kind" in first
    except ValueError:
        is_jsonl = False  # multi-line JSON document
    if is_jsonl:
        from .export import read_events_jsonl
        return [analyze_events(read_events_jsonl(path), label=str(path))]
    return analyze_chrome_trace(path)


def analyze(source, processors: Optional[int] = None,
            priority: str = "critical-path") -> ScheduleReport:
    """Dispatch to the right analyzer for ``source``.

    * :class:`SimResult` → :func:`analyze_sim`;
    * a Plan (anything with ``.schedule``) → scheduled on
      ``processors`` (``None`` = unbounded) then :func:`analyze_sim`;
    * :class:`Tracer`, or an ExecutionContext carrying one →
      :func:`analyze_tracer`.

    For Chrome traces (multiple process groups per document) call
    :func:`analyze_chrome_trace` directly.
    """
    if isinstance(source, SimResult):
        return analyze_sim(source)
    if isinstance(source, Tracer):
        return analyze_tracer(source)
    tracer = getattr(source, "tracer", None)
    if isinstance(tracer, Tracer) and tracer.enabled:
        return analyze_tracer(tracer)
    schedule = getattr(source, "schedule", None)
    if callable(schedule):
        return analyze_sim(schedule(processors, priority))
    raise TypeError(
        "expected a SimResult, Plan, Tracer, or a traced ExecutionContext, "
        f"got {type(source).__name__}")


# ----------------------------------------------------------------------
# sim-vs-measured overlay diff
# ----------------------------------------------------------------------

def overlay_diff(measured: ScheduleReport,
                 simulated: ScheduleReport) -> dict:
    """Attribute measured runtime overhead per kernel type.

    Both reports must be in the same time unit — in practice the
    measured capture (seconds) against a simulation of the same DAG
    rescaled with the measured mean kernel times (what ``repro
    profile`` builds).  Per kernel: measured total vs simulated total
    and their difference (the *execution* overhead beyond the model);
    plus makespan inflation (scheduling + idling overhead) and idle
    totals.
    """
    m_tot = {k.kernel: k.total for k in measured.kernels}
    s_tot = {k.kernel: k.total for k in simulated.kernels}
    order = [k for k in KERNEL_ORDER if k in m_tot or k in s_tot]
    order += sorted((set(m_tot) | set(s_tot)) - set(order))
    kernels = {}
    for k in order:
        m, s = m_tot.get(k, 0.0), s_tot.get(k, 0.0)
        kernels[k] = {"measured": m, "simulated": s, "overhead": m - s,
                      "ratio": m / s if s else None}
    return {
        "makespan": {
            "measured": measured.makespan,
            "simulated": simulated.makespan,
            "overhead": measured.makespan - simulated.makespan,
            "ratio": (measured.makespan / simulated.makespan
                      if simulated.makespan else None),
        },
        "busy": {"measured": measured.total_busy,
                 "simulated": simulated.total_busy,
                 "overhead": measured.total_busy - simulated.total_busy},
        "idle": {"measured": measured.total_idle(),
                 "simulated": simulated.total_idle()},
        "kernels": kernels,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt(v, nd: int = 6) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.{nd}g}"
    return str(v)


def _table(headers: list[str], rows: list[list], markdown: bool) -> list[str]:
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row]
                                           for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    if markdown:
        out = ["| " + " | ".join(h.ljust(w) for h, w in
                                 zip(cells[0], widths)) + " |"]
        out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in cells[1:]:
            out.append("| " + " | ".join(c.ljust(w) for c, w in
                                         zip(row, widths)) + " |")
        return out
    out = ["  ".join(h.ljust(w) for h, w in zip(cells[0], widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return out


def _render(report: ScheduleReport, markdown: bool) -> str:
    h1 = "## " if markdown else "== "
    h1e = "" if markdown else " =="
    src = (f"{report.source}, {report.problem}" if report.problem
           else report.source)
    lines = [f"{h1}schedule report: {report.label} ({src}){h1e}"]
    lines.append("")
    procs = report.processors if report.processors is not None else "unbounded"
    lines.append(f"makespan {_fmt(report.makespan)} | processors {procs} | "
                 f"tasks {report.tasks} | busy {_fmt(report.total_busy)}"
                 + (f" | utilization {report.utilization * 100:.1f}%"
                    if report.utilization is not None else ""))
    if report.kernels:
        lines.append("")
        lines.append(("### " if markdown else "-- ") + "time by kernel"
                     + ("" if markdown else " --"))
        lines.extend(_table(
            ["kernel", "count", "total", "mean", "share"],
            [[k.kernel, k.count, round(k.total, 6), round(k.mean, 6),
              f"{k.share * 100:.1f}%"] for k in report.kernels],
            markdown))
    if report.lanes:
        lines.append("")
        lines.append(("### " if markdown else "-- ") + "processors"
                     + ("" if markdown else " --"))
        lines.extend(_table(
            ["lane", "tasks", "busy", "idle", "utilization"],
            [[l.lane, l.tasks, round(l.busy, 6), round(l.idle, 6),
              f"{l.utilization * 100:.1f}%"] for l in report.lanes],
            markdown))
    cp = report.critical_path
    if cp is not None:
        lines.append("")
        lines.append(("### " if markdown else "-- ") + "critical path"
                     + ("" if markdown else " --"))
        comp = ", ".join(f"{k} x{c}" for k, c in cp.kernel_counts().items())
        lines.append(f"{len(cp)} tasks, total weight {_fmt(cp.length)} "
                     f"(= makespan), {cp.dep_edges} dependency edges, "
                     f"{cp.worker_edges} worker-wait edges")
        if comp:
            lines.append(f"composition: {comp}")
        if cp.steps:
            shown = cp.steps if len(cp.steps) <= 12 else (
                list(cp.steps[:6]) + [None] + list(cp.steps[-5:]))
            chain = " -> ".join("..." if s is None else s.name for s in shown)
            lines.append(f"chain: {chain}")
    if report.slack is not None:
        s = report.slack
        lines.append("")
        lines.append(f"slack: min {_fmt(s.min)}, mean {_fmt(s.mean)}, "
                     f"max {_fmt(s.max)}; {s.critical_tasks} zero-slack "
                     "(critical) tasks")
    if report.queue_wait is not None:
        q = report.queue_wait
        if report.slack is None:
            lines.append("")
        lines.append(f"queue wait: min {_fmt(q['min'])}, mean "
                     f"{_fmt(q['mean'])}, p95 {_fmt(q['p95'])}, max "
                     f"{_fmt(q['max'])} (total {_fmt(q['total'])} s "
                     "ready-to-start)")
    if report.bounds:
        b = report.bounds
        lines.append("")
        lines.append(("### " if markdown else "-- ") + "lower bounds"
                     + ("" if markdown else " --"))
        for key, lab in (("critical_path", "DAG critical path"),
                         ("work", "work / P"),
                         ("alap", "ALAP area bound"),
                         ("lower", "best lower bound"),
                         ("paper_cp_lower_bound", "paper 22q - 30")):
            if key in b:
                lines.append(f"{lab:>20s}  {_fmt(b[key])}")
        if b.get("efficiency") is not None:
            lines.append(f"{'efficiency':>20s}  {b['efficiency'] * 100:.1f}%"
                         + (f"  (speedup {_fmt(b['speedup'])})"
                            if "speedup" in b else ""))
    return "\n".join(lines)


def render_report(report: ScheduleReport, fmt: str = "text") -> str:
    """Render a report as ``"text"``, ``"markdown"``, or ``"json"``."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=1, sort_keys=True)
    if fmt == "markdown":
        return _render(report, markdown=True)
    if fmt == "text":
        return _render(report, markdown=False)
    raise ValueError(f"unknown format {fmt!r} "
                     "(choose from text, markdown, json)")


def render_overlay(diff: dict, markdown: bool = False) -> str:
    """Human-readable view of an :func:`overlay_diff` result."""
    lines = [("### " if markdown else "-- ")
             + "measured vs simulated (per-kernel overhead)"
             + ("" if markdown else " --")]
    mk = diff["makespan"]
    ratio = f", {mk['ratio']:.2f}x" if mk.get("ratio") else ""
    lines.append(f"makespan: measured {_fmt(mk['measured'])} vs simulated "
                 f"{_fmt(mk['simulated'])} "
                 f"(overhead {_fmt(mk['overhead'])}{ratio})")
    rows = []
    for k, d in diff["kernels"].items():
        rows.append([k, round(d["measured"], 6), round(d["simulated"], 6),
                     round(d["overhead"], 6),
                     f"{d['ratio']:.2f}x" if d["ratio"] else "-"])
    lines.extend(_table(["kernel", "measured", "simulated", "overhead",
                         "ratio"], rows, markdown))
    return "\n".join(lines)
