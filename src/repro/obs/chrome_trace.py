"""Chrome trace-event export: measured and simulated lanes (S17).

Serializes a real :class:`~repro.obs.tracer.Tracer` capture and/or a
:class:`~repro.sim.simulate.SimResult` to the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` object understood by Perfetto
and ``chrome://tracing``).  Each task becomes one complete event
(``"ph": "X"``) with microsecond ``ts``/``dur``; workers map to
``tid`` lanes and each source (measured vs simulated) gets its own
``pid`` process group, so a measured execution and its simulated
schedule can be loaded together and compared lane by lane — the
repo's side-by-side validation of the simulator against reality.

A :class:`~repro.obs.tracer.DistributedTracer` capture (process
backend, S23) exports through :func:`distributed_to_events` instead:
one ``dispatch`` lane for the parent scheduler plus one lane per
worker *process*, each kernel slice bracketed by its ``deserialize``
and ``publish`` slivers (category ``overhead``), and a flow arrow
(``"ph": "s"`` → ``"ph": "f"``) from the parent's dispatch span to
the worker's kernel span so Perfetto draws the causal hand-off.

Format reference: the "Trace Event Format" document shipped with the
Catapult project; only the widely supported subset is emitted
(``name``, ``cat``, ``ph``, ``ts``, ``dur``, ``pid``, ``tid``,
``args``, plus ``M`` metadata records naming the lanes and ``s``/``f``
flow records linking dispatch to execution).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulate import SimResult

__all__ = ["tracer_to_events", "sim_to_events", "distributed_to_events",
           "chrome_trace", "to_chrome_json", "write_chrome_trace",
           "MIN_EVENT_DUR_US"]

#: trace-event categories, useful for filtering in the viewer UI
_PANEL = {"GEQRT", "TSQRT", "TTQRT"}

#: smallest duration (us) emitted for a complete event.  Perfetto and
#: chrome://tracing silently drop ``"ph": "X"`` events with ``dur`` 0,
#: so zero-duration tasks (e.g. rescaled weights of a kernel that never
#: ran) are clamped to this floor and tagged ``args.zero_duration``.
MIN_EVENT_DUR_US = 1e-3


def _clamped_dur(dur_us: float, args: dict) -> float:
    """Clamp ``dur_us`` to the Perfetto-visible floor, tagging ``args``."""
    if dur_us <= 0.0:
        args["zero_duration"] = True
        return MIN_EVENT_DUR_US
    return dur_us


def _placeholder(pid: int) -> dict:
    """A visible stand-in event for a source with no tasks.

    A process group whose only records are ``M`` metadata renders as
    nothing at all in Perfetto; this keeps an empty capture loadable
    and visibly empty instead of silently absent.
    """
    return {"name": "(empty)", "cat": "meta", "ph": "X", "ts": 0.0,
            "dur": MIN_EVENT_DUR_US, "pid": pid, "tid": 0,
            "args": {"placeholder": True}}


def _meta(pid: int, process_name: str, n_lanes: int,
          lane_prefix: str) -> list[dict]:
    """``M`` records naming the process and its worker lanes."""
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": process_name}}]
    for w in range(n_lanes):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": w, "args": {"name": f"{lane_prefix} {w}"}})
    return events


def tracer_to_events(tracer: Tracer, pid: int = 1,
                     process_name: str = "measured") -> list[dict]:
    """Complete-events for every span of a real capture (ts/dur in us);
    ``args.count`` is the number of tasks a group span covers."""
    events = _meta(pid, process_name, tracer.worker_count, "worker")
    for s in tracer.spans:
        args = {"kernel": s.kernel, "tid": s.tid, "count": s.count,
                "row": s.row, "piv": s.piv, "col": s.col, "j": s.j,
                "queue_delay_us": s.queue_delay * 1e6}
        events.append({
            "name": s.name,
            "cat": "panel" if s.kernel in _PANEL else "update",
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": _clamped_dur(s.duration * 1e6, args),
            "pid": pid,
            "tid": s.worker,
            "args": args,
        })
    if not tracer.spans:
        events.append(_placeholder(pid))
    return events


def distributed_to_events(tracer, pid: int = 1,
                          process_name: str = "measured") -> list[dict]:
    """Merged multi-process lanes for a distributed capture.

    ``tracer`` is a :class:`~repro.obs.tracer.DistributedTracer` whose
    :meth:`finalize` already merged parent and worker halves into
    :class:`~repro.obs.tracer.TaskPhases` records, one per group.
    Lane 0 is the parent scheduler (one ``dispatch`` slice per group
    covering ``dispatch → recv``); lane ``1 + w`` is worker process
    ``w``, with the kernel slice bracketed by ``deserialize`` and
    ``publish`` slivers (category ``overhead`` — analyzers skip them
    so kernels count once).  A flow arrow per group (``id`` = its
    first member's tid) links the dispatch slice to the kernel slice,
    so Perfetto renders the causal hand-off across the process
    boundary.
    """
    phases = list(tracer.phases)
    lanes = sorted({p.worker for p in phases})
    lane_of = {w: 1 + i for i, w in enumerate(lanes)}
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": process_name}},
              {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": "dispatch"}}]
    for w in lanes:
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": lane_of[w],
                       "args": {"name": f"worker {w}"}})
    for p in phases:
        lane = lane_of[p.worker]
        base = {"kernel": p.kernel, "tid": p.tid, "count": p.count,
                "worker": p.worker, "aborted": p.aborted}
        args = dict(base)
        events.append({
            "name": p.name, "cat": "dispatch", "ph": "X",
            "ts": p.dispatch * 1e6,
            "dur": _clamped_dur((p.recv - p.dispatch) * 1e6, args),
            "pid": pid, "tid": 0, "args": args,
        })
        if p.deserialized > 0.0:
            events.append({
                "name": "deserialize", "cat": "overhead", "ph": "X",
                "ts": p.recv * 1e6, "dur": p.deserialized * 1e6,
                "pid": pid, "tid": lane, "args": dict(base),
            })
        args = dict(base)
        args["latency_us"] = p.latency * 1e6
        args["measured"] = p.measured
        events.append({
            "name": p.name,
            "cat": "panel" if p.kernel in _PANEL else "update",
            "ph": "X", "ts": p.start * 1e6,
            "dur": _clamped_dur(p.computing * 1e6, args),
            "pid": pid, "tid": lane, "args": args,
        })
        if p.published > 0.0:
            events.append({
                "name": "publish", "cat": "overhead", "ph": "X",
                "ts": p.finish * 1e6, "dur": p.published * 1e6,
                "pid": pid, "tid": lane, "args": dict(base),
            })
        # the causal hand-off: parent dispatch -> worker execution
        events.append({"name": "dispatch", "cat": "flow", "ph": "s",
                       "id": p.tid, "pid": pid, "tid": 0,
                       "ts": p.dispatch * 1e6})
        events.append({"name": "dispatch", "cat": "flow", "ph": "f",
                       "bp": "e", "id": p.tid, "pid": pid, "tid": lane,
                       "ts": p.start * 1e6})
    if not phases:
        events.append(_placeholder(pid))
    return events


def sim_to_events(result: "SimResult", pid: int = 2,
                  process_name: str = "simulated",
                  time_scale: float = 1.0) -> list[dict]:
    """Complete-events for a simulated schedule.

    Simulation times are in abstract model units (``nb^3/3`` flops by
    default, or seconds after :meth:`TaskGraph.rescale` with measured
    kernel durations).  ``time_scale`` converts one model unit to
    microseconds: leave it at 1.0 for unit-weight graphs, pass ``1e6``
    when the graph was rescaled to seconds so the lanes line up with a
    measured capture.
    """
    nw = (int(result.worker.max()) + 1
          if result.worker is not None and len(result.worker) else 1)
    events = _meta(pid, process_name, nw, "sim worker")
    for t in result.graph.tasks:
        lane = int(result.worker[t.tid]) if result.worker is not None else 0
        start = float(result.start[t.tid])
        finish = float(result.finish[t.tid])
        args = {"kernel": t.kernel.value, "tid": t.tid, "row": t.row,
                "piv": t.piv, "col": t.col, "j": t.j,
                "weight": t.weight}
        events.append({
            "name": str(t),
            "cat": "panel" if t.kernel.value in _PANEL else "update",
            "ph": "X",
            "ts": start * time_scale,
            "dur": _clamped_dur((finish - start) * time_scale, args),
            "pid": pid,
            "tid": lane,
            "args": args,
        })
    if not result.graph.tasks:
        events.append(_placeholder(pid))
    return events


def chrome_trace(tracer: Tracer | None = None,
                 sim: "SimResult | None" = None,
                 sim_time_scale: float = 1.0,
                 problem: str = "") -> dict:
    """Build the top-level trace object from either or both sources.

    With both a measured capture and a simulated schedule the result
    holds two process groups (``pid`` 1 = measured, ``pid`` 2 =
    simulated) that Perfetto renders as separate lane stacks on a
    shared time axis.  A tracer carrying merged
    :class:`~repro.obs.tracer.TaskPhases` records (a finalized
    :class:`~repro.obs.tracer.DistributedTracer`) exports through
    :func:`distributed_to_events` — per-worker-process lanes with
    dispatch flow arrows — instead of the flat per-thread lanes.
    ``problem`` (``"qr"``, ``"cholesky"``, ...) stamps the
    factorization family into ``otherData`` so analyzers can label
    their reports; when omitted it is taken from the sim result's
    graph if one is given.
    """
    if tracer is None and sim is None:
        raise ValueError("chrome_trace needs a tracer, a sim result, or both")
    if not problem and sim is not None:
        problem = getattr(sim.graph, "problem", "") or ""
    events: list[dict] = []
    if tracer is not None:
        if getattr(tracer, "phases", None):
            events.extend(distributed_to_events(tracer))
        else:
            events.extend(tracer_to_events(tracer))
    if sim is not None:
        events.extend(sim_to_events(sim, time_scale=sim_time_scale))
    other = {"producer": "repro.obs.chrome_trace"}
    if problem:
        other["problem"] = problem
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def to_chrome_json(tracer: Tracer | None = None,
                   sim: "SimResult | None" = None,
                   sim_time_scale: float = 1.0,
                   problem: str = "") -> str:
    """The trace object as compact JSON text."""
    return json.dumps(chrome_trace(tracer, sim, sim_time_scale, problem))


def write_chrome_trace(path: str, tracer: Tracer | None = None,
                       sim: "SimResult | None" = None,
                       sim_time_scale: float = 1.0,
                       problem: str = "") -> str:
    """Write the trace JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(to_chrome_json(tracer, sim, sim_time_scale, problem))
    return path
