"""Metric and event exporters: Prometheus text and JSONL sinks (S21).

Two wire formats alongside the existing Chrome-trace export:

* :func:`prometheus_text` renders a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4) — counters as ``_total`` samples,
  gauges as plain samples, histograms as cumulative ``_bucket{le=...}``
  series with ``_sum``/``_count``.  Metric names are sanitized
  (``kernel.seconds.GEQRT`` → ``repro_kernel_seconds_GEQRT``) so the
  output scrapes cleanly.  :func:`parse_prometheus_text` is the
  matching validating parser (used by the tests and the CI smoke step,
  and handy for reading scraped files back).

* :func:`write_events_jsonl` / :func:`read_events_jsonl` persist an
  event-bus capture as JSON Lines — one compact
  :meth:`~repro.obs.stream.Event.to_dict` object per line, gzip
  transparently when the path ends in ``.gz``.  The JSONL log is the
  machine-readable sibling of the Chrome trace: ``repro analyze
  --from-trace events.jsonl`` rebuilds a schedule report from the
  ``group_done`` events (``task_done`` in older logs) alone.
"""

from __future__ import annotations

import gzip
import io
import re

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .stream import Event

__all__ = [
    "prometheus_text",
    "write_prometheus",
    "parse_prometheus_text",
    "write_events_jsonl",
    "read_events_jsonl",
    "sanitize_metric_name",
]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{([^}]*)\})?"                     # optional labels
    r"\s+(-?(?:[0-9.]+(?:[eE][+-]?[0-9]+)?|[Ii]nf)|NaN|\+Inf)$")
_LABEL = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def sanitize_metric_name(name: str, namespace: str = "repro") -> str:
    """A legal Prometheus metric name for a registry metric name."""
    clean = _INVALID.sub("_", name)
    if not re.match(r"[a-zA-Z_:]", clean):
        clean = "_" + clean
    return f"{namespace}_{clean}" if namespace else clean


def _fmt(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def prometheus_text(registry: MetricsRegistry,
                    namespace: str = "repro") -> str:
    """Render every metric of ``registry`` as Prometheus exposition text.

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative buckets ending in ``le="+Inf"`` (== ``_count``), plus
    ``_sum`` and ``_count``.  Gauge min/max/samples are not exported —
    Prometheus derives extremes server-side.
    """
    lines: list[str] = []
    for name in registry.names():
        m = registry.get(name)
        full = sanitize_metric_name(name, namespace)
        lines.append(f"# HELP {full} repro metric {name}")
        if isinstance(m, Counter):
            lines.append(f"# TYPE {full} counter")
            lines.append(f"{full}_total {_fmt(m.value)}")
        elif isinstance(m, Gauge):
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {_fmt(m.value)}")
        elif isinstance(m, Histogram):
            lines.append(f"# TYPE {full} histogram")
            running = 0
            for ub, c in zip(m.buckets, m.counts):
                running += c
                lines.append(f'{full}_bucket{{le="{_fmt(ub)}"}} {running}')
            lines.append(f'{full}_bucket{{le="+Inf"}} {m.count}')
            lines.append(f"{full}_sum {_fmt(m.sum)}")
            lines.append(f"{full}_count {m.count}")
        else:  # pragma: no cover - registry only stores the three types
            raise TypeError(f"unknown metric type {type(m).__name__}")
    return "\n".join(lines) + "\n"


def write_prometheus(path, registry: MetricsRegistry,
                     namespace: str = "repro") -> str:
    """Write the exposition text to ``path``; returns the path."""
    with open(path, "w") as fh:
        fh.write(prometheus_text(registry, namespace))
    return path


def _parse_labels(raw: str | None) -> dict[str, str]:
    if not raw:
        return {}
    labels = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        m = _LABEL.match(part)
        if m is None:
            raise ValueError(f"malformed label pair {part!r}")
        labels[m.group(1)] = m.group(2)
    return labels


def _base_name(sample_name: str, types: dict[str, str]) -> str | None:
    """Map a sample name back to its declared metric family."""
    if sample_name in types:
        return sample_name
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in types:
                return base
    return None


def parse_prometheus_text(text: str) -> dict:
    """Parse (and validate) Prometheus exposition text.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value),
    ...]}}``.  Raises :class:`ValueError` on malformed lines, samples
    without a ``# TYPE`` declaration, non-monotone histogram buckets,
    or a ``+Inf`` bucket disagreeing with ``_count``.
    """
    types: dict[str, str] = {}
    samples: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            _, _, name, mtype = parts
            if mtype not in ("counter", "gauge", "histogram", "summary",
                             "untyped"):
                raise ValueError(
                    f"line {lineno}: unknown metric type {mtype!r}")
            types[name] = mtype
            samples.setdefault(name, [])
            continue
        if line.startswith("#"):
            continue  # HELP and comments
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, raw_labels, raw_value = m.groups()
        base = _base_name(name, types)
        if base is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration")
        value = float(raw_value.replace("Inf", "inf"))
        samples[base].append((name, _parse_labels(raw_labels), value))

    out = {}
    for base, mtype in types.items():
        fam = {"type": mtype, "samples": samples.get(base, [])}
        if mtype == "histogram":
            _validate_histogram(base, fam["samples"])
        out[base] = fam
    return out


def _validate_histogram(base: str, fam_samples: list) -> None:
    buckets = [(labels.get("le"), v) for name, labels, v in fam_samples
               if name == f"{base}_bucket"]
    counts = [v for name, _, v in fam_samples if name == f"{base}_count"]
    if not buckets:
        raise ValueError(f"histogram {base} has no buckets")
    values = [v for _, v in buckets]
    if any(b > a for b, a in zip(values, values[1:])):
        raise ValueError(f"histogram {base} buckets are not cumulative")
    if buckets[-1][0] != "+Inf":
        raise ValueError(f"histogram {base} is missing the +Inf bucket")
    if counts and counts[0] != values[-1]:
        raise ValueError(
            f"histogram {base}: +Inf bucket {values[-1]} != "
            f"_count {counts[0]}")


# ----------------------------------------------------------------------
# JSONL event sink
# ----------------------------------------------------------------------

def _open_text(path, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_events_jsonl(path, events, append: bool = False) -> str:
    """Write an iterable of :class:`Event` (or event dicts) as JSONL.

    One compact JSON object per line; transparently gzipped when
    ``path`` ends in ``.gz``.  Returns the path.
    """
    import json

    with _open_text(path, "a" if append else "w") as fh:
        for ev in events:
            d = ev.to_dict() if isinstance(ev, Event) else dict(ev)
            fh.write(json.dumps(d, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    return path


def read_events_jsonl(source) -> list[Event]:
    """Read a JSONL event log back into :class:`Event` objects.

    ``source`` is a path (gzip-aware) or an open text file.  Blank
    lines are skipped; malformed lines raise :class:`ValueError` with
    the offending line number.
    """
    import json

    if isinstance(source, io.TextIOBase):
        fh, close = source, False
    else:
        fh, close = _open_text(source, "r"), True
    try:
        events = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict) or "kind" not in d:
                    raise ValueError("not an event object")
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}: malformed event line: {exc}") from exc
            events.append(Event.from_dict(d))
        return events
    finally:
        if close:
            fh.close()
