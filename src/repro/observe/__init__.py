"""repro.observe — zero-dependency observability substrate.

Five pieces (see docs/ARCHITECTURE.md §Observability):

* **spans** — hierarchical tracing (:func:`span`, :func:`trace`,
  :func:`traced`) with wall/CPU time, byte counts, and nesting;
* **metrics** — a process-wide registry of counters, gauges, and
  histograms (:func:`counter`, :func:`gauge`, :func:`histogram`,
  :func:`metrics_snapshot`);
* **sinks** — destinations for finished root spans
  (:class:`InMemorySink`, :class:`JsonLinesSink`) and the human tree
  view :func:`render_tree`;
* **export** — the metrics exporter (:func:`render_prometheus`
  Prometheus text exposition, :class:`MetricsJsonlWriter` structured
  event feed, :class:`PeriodicMetricsFlusher`);
* **telemetry** — distributed tracing for the serving stack:
  W3C-traceparent :class:`TraceContext` propagation, the per-request
  :class:`RequestTimeline` (the one record of a served request: an
  always-on stage ledger whose ``net.request`` span is its traced view)
  + :class:`RequestLog` ring buffer, Chrome-trace export
  (:func:`write_chrome_trace` over :func:`trace`'s collected spans) /
  trace stitching, and the rolling multi-window burn-rate
  :class:`SLOEngine`.

Everything is off by default: ``span()`` returns a shared no-op object
and hot-path metric updates are guarded by :func:`enabled`, so the
disabled overhead is one global read per instrumentation point.
"""

from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_snapshot,
    reset_metrics,
)
from .export import (
    MetricsJsonlWriter,
    PeriodicMetricsFlusher,
    read_metrics_jsonl,
    render_prometheus,
)
from .sinks import InMemorySink, JsonLinesSink, render_tree
from .telemetry import (
    RequestLog,
    RequestTimeline,
    SLOEngine,
    SLOTarget,
    TraceContext,
    find_orphans,
    parse_traceparent,
    stitch_traces,
    write_chrome_trace,
)
from .spans import (
    Span,
    current_span,
    disable,
    enable,
    enabled,
    open_span,
    span,
    trace,
    traced,
)

__all__ = [
    "Span",
    "span",
    "open_span",
    "trace",
    "traced",
    "current_span",
    "enable",
    "disable",
    "enabled",
    "InMemorySink",
    "JsonLinesSink",
    "render_tree",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "metrics_snapshot",
    "reset_metrics",
    "render_prometheus",
    "MetricsJsonlWriter",
    "PeriodicMetricsFlusher",
    "read_metrics_jsonl",
    "TraceContext",
    "parse_traceparent",
    "RequestTimeline",
    "RequestLog",
    "SLOTarget",
    "SLOEngine",
    "write_chrome_trace",
    "stitch_traces",
    "find_orphans",
    "telemetry",
]
