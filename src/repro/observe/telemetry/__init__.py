"""Distributed-tracing and serving-telemetry toolkit.

Four small pieces, all stdlib-only:

* :mod:`~repro.observe.telemetry.context` — W3C-traceparent trace
  contexts that cross the wire (SXP2 frames, HTTP headers) and the
  process-pool boundary;
* :mod:`~repro.observe.telemetry.timeline` — always-on per-request
  stage ledgers and the ``/debug/requests`` ring buffer;
* :mod:`~repro.observe.telemetry.chrome` — Chrome-trace-event export
  plus trace stitching / orphan analysis over delivered spans;
* :mod:`~repro.observe.telemetry.slo` — rolling-window SLO targets
  with multi-window burn-rate alerting (the ``/healthz`` payload).
"""

from .context import (
    FLAG_SAMPLED,
    TraceContext,
    from_span,
    new_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from .chrome import (
    find_orphans,
    flatten,
    iter_tree,
    spans_to_chrome_trace,
    stitch_traces,
    trace_summary,
    write_chrome_trace,
)
from .slo import (
    DEFAULT_POLICIES,
    BurnRatePolicy,
    SLOEngine,
    SLOTarget,
    default_targets,
)
from .timeline import RequestLog, RequestTimeline, new_request_id

__all__ = [
    "FLAG_SAMPLED",
    "TraceContext",
    "from_span",
    "new_context",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "find_orphans",
    "flatten",
    "iter_tree",
    "spans_to_chrome_trace",
    "stitch_traces",
    "trace_summary",
    "write_chrome_trace",
    "DEFAULT_POLICIES",
    "BurnRatePolicy",
    "SLOEngine",
    "SLOTarget",
    "default_targets",
    "RequestLog",
    "RequestTimeline",
    "new_request_id",
]
