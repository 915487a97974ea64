"""Metrics export: Prometheus text exposition + JSONL event sink.

Two consumers of the process-wide :mod:`repro.observe.metrics`
registry:

* :func:`render_prometheus` — the registry snapshot as a Prometheus
  text-format exposition (counters, gauges, and histograms rendered as
  summaries with reservoir quantiles), what ``szx metrics`` prints and
  what a scrape endpoint would serve;
* :class:`MetricsJsonlWriter` — appends timestamped registry snapshots
  as JSON lines (the structured event feed `repro.serve` flushes
  periodically via :class:`PeriodicMetricsFlusher`).

Everything here is stdlib-only and read-only with respect to the
registry — exporting never perturbs the instruments.
"""

from __future__ import annotations

import json
import os
import threading
import time

from .metrics import REGISTRY

#: Quantiles rendered for every histogram in the Prometheus exposition.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _sanitize(name: str) -> str:
    """Registry metric name -> valid Prometheus metric name."""
    text = "".join(ch if ch.isalnum() or ch in "_:" else "_" for ch in name)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _fmt_value(value) -> str:
    if value is None:
        return "NaN"
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.12g}"


def render_prometheus(snapshot: dict | None = None) -> str:
    """The metrics registry as a Prometheus text exposition.

    *snapshot* defaults to the live registry
    (:func:`repro.observe.metrics_snapshot`).  Counters follow the
    ``_total`` convention, gauges are emitted as-is (unset gauges are
    skipped), and histograms become summaries: ``{quantile="..."}``
    sample lines from the reservoir plus ``_sum``/``_count``.
    """
    if snapshot is None:
        snapshot = REGISTRY.snapshot()
    lines: list[str] = []

    for name, value in snapshot.get("counters", {}).items():
        metric = _sanitize(name)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt_value(value)}")

    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(value)}")

    for name, hist in snapshot.get("histograms", {}).items():
        metric = _sanitize(name)
        lines.append(f"# TYPE {metric} summary")
        for q in SUMMARY_QUANTILES:
            key = f"p{q * 100:g}".replace(".", "_")
            value = hist.get(key)
            if value is None:
                continue
            lines.append(f'{metric}{{quantile="{q:g}"}} {_fmt_value(value)}')
        lines.append(f"{metric}_sum {_fmt_value(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count {_fmt_value(hist.get('count', 0))}")

    return "\n".join(lines) + "\n" if lines else ""


class MetricsJsonlWriter:
    """Appends registry snapshots as JSON lines (one event per flush).

    Accepts a path (opened/closed by the writer) or an open text file
    object (left open — the caller owns it).  Each event carries a
    monotonic sequence number and a wall-clock timestamp so downstream
    tooling can order and rate the feed.
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "a", encoding="utf-8")
            self._owns = True
        self._seq = 0
        self._lock = threading.Lock()

    def write_snapshot(self, snapshot: dict | None = None, *, extra: dict | None = None) -> dict:
        """Append one event; returns the event dict written."""
        if snapshot is None:
            snapshot = REGISTRY.snapshot()
        with self._lock:
            event = {
                "seq": self._seq,
                "ts": time.time(),
                "counters": snapshot.get("counters", {}),
                "gauges": snapshot.get("gauges", {}),
                "histograms": snapshot.get("histograms", {}),
            }
            if extra:
                event["extra"] = dict(extra)
            self._seq += 1
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
            self._fh.flush()
        return event

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_metrics_jsonl(path) -> list[dict]:
    """Load every event from a :class:`MetricsJsonlWriter` file."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class PeriodicMetricsFlusher:
    """Background thread flushing the registry on a fixed interval.

    ``fmt="jsonl"`` appends events via :class:`MetricsJsonlWriter`;
    ``fmt="prom"`` atomically rewrites *path* with the latest
    Prometheus exposition (textfile-collector style).  A final flush
    always runs on :meth:`stop`, so short-lived processes still leave
    a record.  As a context manager it wraps whatever it reports on::

        with PeriodicMetricsFlusher("serve.jsonl"), CompressionService() as svc:
            ...  # the final flush runs after the service has closed
    """

    _FORMATS = ("jsonl", "prom")

    def __init__(self, path, *, interval_s: float = 5.0, fmt: str = "jsonl"):
        if fmt not in self._FORMATS:
            raise ValueError(f"fmt must be one of {self._FORMATS}, got {fmt!r}")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.path = os.fspath(path)
        self.interval_s = float(interval_s)
        self.fmt = fmt
        self.flushes = 0
        self._writer = MetricsJsonlWriter(self.path) if fmt == "jsonl" else None
        self._stop = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None

    def flush(self) -> None:
        """Write one snapshot now (also called from the thread loop)."""
        if self.fmt == "jsonl":
            self._writer.write_snapshot()
        else:
            text = render_prometheus()
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        self.flushes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.flush()

    def start(self) -> "PeriodicMetricsFlusher":
        if self._thread is not None:
            raise RuntimeError("flusher already started")
        self._thread = threading.Thread(
            target=self._loop, name="metrics-flusher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, run a final flush, release the writer."""
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.flush()
        if self._writer is not None:
            self._writer.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False
