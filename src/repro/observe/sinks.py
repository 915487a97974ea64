"""Span sinks (in-memory collection, JSON-lines files) and tree rendering.

A sink is anything with an ``emit(span)`` method; finished root spans
are pushed to every sink registered via :func:`repro.observe.enable`
(or collected automatically by :func:`repro.observe.trace`).
"""

from __future__ import annotations

import json
import threading


class InMemorySink:
    """Collects finished root spans in a list (``.spans``)."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    def emit(self, span) -> None:
        with self._lock:
            self.spans.append(span)

    def to_dicts(self) -> list:
        with self._lock:
            return [s.to_dict() for s in self.spans]


class JsonLinesSink:
    """Appends each finished root span tree as one JSON line.

    Accepts a path (opened/closed by the sink) or an open text file
    object (left open — the caller owns it).
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "a", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()

    def emit(self, span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _fmt_bytes(n) -> str:
    if n is None:
        return ""
    if n >= 10 * 1024 * 1024:
        return f"{n / 1024 / 1024:.1f}MiB"
    if n >= 10 * 1024:
        return f"{n / 1024:.1f}KiB"
    return f"{n}B"


def render_tree(span, *, min_wall_s: float = 0.0) -> str:
    """Human-readable tree of one span (a :class:`Span` or its dict).

    Each line shows wall time, CPU time, byte counts, and the derived
    throughput — the per-stage breakdown of the paper's timing tables.
    Children faster than *min_wall_s* are elided.
    """
    node = span if isinstance(span, dict) else span.to_dict()
    lines = []

    def walk(d, prefix, is_last, is_root):
        wall = d.get("wall_s", 0.0)
        cpu = d.get("cpu_s", 0.0)
        parts = [f"{wall * 1e3:9.3f} ms", f"cpu {cpu * 1e3:8.3f} ms"]
        bi, bo = d.get("bytes_in"), d.get("bytes_out")
        if bi is not None and bo is not None:
            parts.append(f"{_fmt_bytes(bi)} -> {_fmt_bytes(bo)}")
        elif bi is not None:
            parts.append(f"in {_fmt_bytes(bi)}")
        elif bo is not None:
            parts.append(f"out {_fmt_bytes(bo)}")
        if bi and wall > 0:
            parts.append(f"{bi / 1e6 / wall:,.1f} MB/s")
        if d.get("error"):
            parts.append(f"error={d['error']}")
        connector = "" if is_root else ("`- " if is_last else "|- ")
        lines.append(f"{prefix}{connector}{d['name']:<28s} {'  '.join(parts)}")
        kids = [c for c in d.get("children", ()) if c.get("wall_s", 0.0) >= min_wall_s]
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "|  ")
        for i, child in enumerate(kids):
            walk(child, child_prefix, i == len(kids) - 1, False)

    walk(node, "", True, True)
    return "\n".join(lines)
