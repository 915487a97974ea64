"""Throughput measurement helpers (Formulas (2)/(3) of the paper).

Besides whole-call timing, :func:`stage_breakdown` runs a callable under
:mod:`repro.observe` tracing and returns the per-stage span trees, so
every benchmark table can emit a per-stage breakdown JSON
(:func:`write_stage_json`) next to its rows.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


def time_repeats(fn, *args, repeats: int = 3, **kwargs):
    """Run ``fn(*args, **kwargs)`` *repeats* times; return (times_s, result).

    The full list of wall times (not just the best) lets a caller see
    the spread between repeats as well as the best time.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return times, result


def time_call(fn, *args, repeats: int = 3, **kwargs):
    """Run ``fn(*args, **kwargs)`` *repeats* times; return (best_s, result)."""
    times, result = time_repeats(fn, *args, repeats=repeats, **kwargs)
    return min(times), result


def measure_throughput_mb_s(fn, data_bytes: int, *args, repeats: int = 3, **kwargs):
    """Throughput of ``fn`` in MB/s of original data (Formula (2)/(3)).

    Returns ``(mb_s, result)`` using the best of *repeats* runs.
    """
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    best, result = time_call(fn, *args, repeats=repeats, **kwargs)
    return data_bytes / 1e6 / best, result


def stage_breakdown(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under tracing.

    Returns ``(result, spans)`` where *spans* is the list of root span
    trees as JSON-ready dicts (per-stage wall/CPU time and byte counts).
    Tracing state is restored afterwards, so this is safe inside a
    benchmark that otherwise runs untraced.
    """
    from ..observe import trace

    with trace() as sink:
        result = fn(*args, **kwargs)
    return result, sink.to_dicts()


def write_stage_json(path, spans, *, meta=None) -> Path:
    """Write a per-stage breakdown JSON document to *path*.

    *spans* is the list from :func:`stage_breakdown`; *meta* is an
    optional dict of benchmark context (table name, dataset, bound, ...)
    stored alongside so the artifact is self-describing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": dict(meta) if meta else {}, "spans": list(spans)}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
