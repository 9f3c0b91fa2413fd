"""Observability for the tiled-QR runtimes (S17, S19, S21).

Seven pieces, shared by the executors, the discrete-event simulator,
and the benchmark harness:

* :mod:`repro.obs.tracer` — a thread-safe span tracer recording one
  :class:`Span` per retired group of tasks (submit/start/finish
  wall-times, the worker that ran it), a zero-cost
  :class:`NullTracer`, and the :class:`DistributedTracer` of the
  process backend: worker-side child spans merged onto the parent
  timeline by an NTP-style clock handshake into six-phase
  :class:`TaskPhases` lifecycle records;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms with deterministic plain-text
  and JSON summaries;
* :mod:`repro.obs.stream` — a bounded :class:`EventBus` both
  executors publish typed :class:`Event` records into *while the run
  progresses* (run/group/frontier events), with :class:`LiveState` as
  the standard reduction;
* :mod:`repro.obs.sampler` — a background :class:`Sampler` thread
  recording time-series gauges (queue depth, busy workers, cumulative
  GFLOP/s, RSS) into a registry at a fixed cadence;
* :mod:`repro.obs.export` — Prometheus text exposition and JSONL
  event logs (plus their validating parsers);
* :mod:`repro.obs.progress` — the live ``--progress`` dashboard
  (per-kernel bars, per-worker row, ETA by replaying progress against
  the plan's simulated schedule);
* :mod:`repro.obs.chrome_trace` — export of a measured capture and/or
  a simulated schedule to Chrome trace-event JSON, loadable in
  Perfetto / ``chrome://tracing`` for lane-by-lane comparison;
* :mod:`repro.obs.analyze` — schedule analytics: per-processor
  utilization, time-by-kernel pivots, critical-path attribution,
  per-task slack, queue waits, lower-bound efficiency, and
  sim-vs-measured overhead diffs, as a structured
  :class:`ScheduleReport` (rebuildabe from Chrome traces *and* JSONL
  event logs via :func:`analyze_trace_file`).

See ``docs/observability.md`` for a walkthrough.
"""

from .analyze import (CriticalPath, OverheadReport, ScheduleReport,
                      analyze, analyze_chrome_trace, analyze_events,
                      analyze_sim, analyze_trace_file, analyze_tracer,
                      critical_path_tasks, overhead_report, overlay_diff,
                      render_overhead_report, render_overlay,
                      render_report, task_slack)
from .chrome_trace import (chrome_trace, distributed_to_events,
                           sim_to_events, tracer_to_events,
                           write_chrome_trace)
from .export import (parse_prometheus_text, prometheus_text,
                     read_events_jsonl, write_events_jsonl,
                     write_prometheus)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import ProgressRenderer, kernel_totals
from .sampler import Sampler, read_rss_bytes
from .stream import (EVENT_KINDS, NULL_BUS, Event, EventBus, LiveState,
                     NullBus)
from .tracer import (NULL_TRACER, PHASES, ClockSync, DistributedTracer,
                     NullTracer, Span, TaskPhases, Tracer,
                     estimate_clock_sync)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TaskPhases",
    "PHASES",
    "ClockSync",
    "estimate_clock_sync",
    "DistributedTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Event",
    "EventBus",
    "NullBus",
    "NULL_BUS",
    "EVENT_KINDS",
    "LiveState",
    "Sampler",
    "read_rss_bytes",
    "ProgressRenderer",
    "kernel_totals",
    "prometheus_text",
    "parse_prometheus_text",
    "write_prometheus",
    "write_events_jsonl",
    "read_events_jsonl",
    "tracer_to_events",
    "sim_to_events",
    "distributed_to_events",
    "chrome_trace",
    "write_chrome_trace",
    "ScheduleReport",
    "CriticalPath",
    "OverheadReport",
    "analyze",
    "analyze_sim",
    "analyze_tracer",
    "analyze_chrome_trace",
    "analyze_events",
    "analyze_trace_file",
    "critical_path_tasks",
    "task_slack",
    "overhead_report",
    "overlay_diff",
    "render_report",
    "render_overhead_report",
    "render_overlay",
]
