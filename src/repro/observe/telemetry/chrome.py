"""Chrome-trace-event export and trace stitching over span trees.

``chrome://tracing`` / Perfetto consume a JSON document of the shape
``{"traceEvents": [{"name", "ph": "X", "ts", "dur", "pid", "tid"}]}``
with microsecond timestamps.  Span ``t0`` values are ``perf_counter``
readings — an arbitrary epoch, but one shared by every span in the
process, which is all a trace viewer needs.

Stitching is the analysis half: :func:`stitch_traces` groups delivered
root spans by ``trace_id`` (a net round trip delivers several roots —
the client span, the server's request span tree, late worker spans —
that belong to one logical trace), and :func:`find_orphans` returns the
spans whose recorded causal parent cannot be resolved inside their own
trace.  CI asserts that a traced ``net-bench`` run has zero of those.
"""

from __future__ import annotations

import json


def iter_tree(root):
    """Yield every span in a delivered tree (depth-first, parent first)."""
    stack = [root]
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(reversed(sp.children))


def flatten(roots) -> list:
    """All spans reachable from a list of delivered roots."""
    out = []
    for root in roots:
        out.extend(iter_tree(root))
    return out


def stitch_traces(roots) -> dict:
    """Group spans from delivered roots by trace id.

    Returns ``{trace_id: [span, ...]}``.  Spans recorded without a
    trace id (tracing enabled mid-flight, hand-built spans) are grouped
    under ``""``.
    """
    traces: dict[str, list] = {}
    for sp in flatten(roots):
        traces.setdefault(sp.trace_id or "", []).append(sp)
    return traces


def find_orphans(roots) -> list:
    """Spans whose causal parent is missing from their own trace.

    A span is an orphan when it records a ``parent_span_id`` that no
    span sharing its ``trace_id`` owns.  Spans with no recorded parent
    are legitimate trace roots, not orphans.
    """
    traces = stitch_traces(roots)
    orphans = []
    for spans in traces.values():
        ids = {sp.span_id for sp in spans if sp.span_id}
        for sp in spans:
            if sp.parent_span_id and sp.parent_span_id not in ids:
                orphans.append(sp)
    return orphans


def trace_summary(roots) -> dict:
    """Span/trace/orphan counts for reports and CI gates."""
    traces = stitch_traces(roots)
    n_spans = sum(len(v) for v in traces.values())
    return {
        "spans": n_spans,
        "traces": len([k for k in traces if k]),
        "untraced_spans": len(traces.get("", [])),
        "orphans": len(find_orphans(roots)),
    }


def spans_to_chrome_trace(roots) -> dict:
    """Render delivered root spans as a Chrome trace-event document."""
    events = []
    tids: dict[str, int] = {}
    for sp in flatten(roots):
        tid = tids.setdefault(sp.thread, len(tids) + 1)
        args = {}
        if sp.trace_id:
            args["trace_id"] = sp.trace_id
            args["span_id"] = sp.span_id
        if sp.parent_span_id:
            args["parent_span_id"] = sp.parent_span_id
        if sp.bytes_in is not None:
            args["bytes_in"] = int(sp.bytes_in)
        if sp.bytes_out is not None:
            args["bytes_out"] = int(sp.bytes_out)
        if sp.error:
            args["error"] = sp.error
        if sp.extra:
            args.update({k: v for k, v in sp.extra.items()
                         if isinstance(v, (str, int, float, bool))})
        events.append({
            "name": sp.name,
            "ph": "X",
            "ts": sp.t0 * 1e6,
            "dur": max(sp.wall_s, 0.0) * 1e6,
            "pid": 1,
            "tid": tid,
            "cat": (sp.name.split(".", 1)[0] or "span"),
            "args": args,
        })
    meta = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": "szx"},
    }]
    for thread_name, tid in tids.items():
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": thread_name},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, roots) -> dict:
    """Write a Chrome trace for *roots* to *path*; returns the summary."""
    doc = spans_to_chrome_trace(roots)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return trace_summary(roots)
