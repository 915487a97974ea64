"""Per-request stage ledgers and the recent-request ring buffer.

A :class:`RequestTimeline` is the one record of a served request: the
always-on, low-overhead answer to "where did this request spend its
time?".  It needs no tracing to be enabled: it is a flat dict of
stage → seconds filled in two ways —

* :meth:`~RequestTimeline.mark` splits the *sequential* request path
  (read, admission, cache lookup, queue wait, execute, stitch, write)
  by charging the time since the previous mark to the named stage, and
* :meth:`~RequestTimeline.put` adds *out-of-band* attributions measured
  by other threads (the service worker's queue-wait and kernel time),
  which overlap stages already charged by ``mark`` and therefore do not
  advance the sequential clock.

The traced view is derived from the ledger, not the other way round:
the timeline opens the request's detached ``net.request`` span when it
is created (the shared no-op span while tracing is off) and takes its
request and trace ids from the propagated context or from that span.
Worker-side job spans nest under :attr:`~RequestTimeline.span`.
:meth:`~RequestTimeline.finish` seals the ledger — later marks and puts
(say, from a worker whose job outlived its request's deadline) are
dropped — and closes the span with the status and each stage as a
``<stage>_ms`` field, so a Chrome trace and ``/debug/requests`` show
the same numbers.  The ledger travels back to the client in response
metadata, and the sealed timeline is retained server-side in a
:class:`RequestLog` ring buffer, which is what ``GET /debug/requests``
and ``szx trace <request-id>`` read.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from ..spans import open_span


def new_request_id() -> str:
    """A fresh 64-bit request id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


class RequestTimeline:
    """Stage ledger for one request.  Thread-safe; insertion-ordered.

    *context* is the :class:`~repro.observe.telemetry.TraceContext` the
    peer propagated (or None); *started_at* is the ``perf_counter``
    reading of the request's first byte, which is also the span's start.
    """

    __slots__ = (
        "request_id", "verb", "tenant", "trace_id", "status", "error",
        "bytes_in", "bytes_out", "wall_time", "started_at", "finished_at",
        "span", "_t_last", "_stages", "_lock",
    )

    def __init__(self, verb: str = "", *, context=None, tenant: str = "",
                 request_id: str | None = None,
                 started_at: float | None = None):
        self.span = sp = open_span("net.request", context=context, verb=verb)
        # A propagated context names the request; failing that, a traced
        # span's fresh trace does, so ``szx trace`` and the span tree agree.
        self.trace_id = (context.trace_id if context is not None
                         else sp.trace_id)
        self.request_id = request_id or (
            self.trace_id[:16] if self.trace_id else new_request_id())
        self.verb = verb
        self.tenant = tenant
        self.status = None
        self.error = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.wall_time = time.time()
        self.started_at = (started_at if started_at is not None
                           else time.perf_counter())
        if sp.trace_id:
            sp.t0 = self.started_at
        self.finished_at = 0.0
        self._t_last = self.started_at
        self._stages: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def mark(self, stage: str) -> float:
        """Charge the time since the previous mark to *stage*."""
        now = time.perf_counter()
        with self._lock:
            if self.finished_at:
                return 0.0
            dt = now - self._t_last
            self._t_last = now
            self._stages[stage] = self._stages.get(stage, 0.0) + dt
        return dt

    def put(self, stage: str, seconds: float) -> None:
        """Add an out-of-band attribution (does not advance the clock)."""
        if seconds < 0:
            seconds = 0.0
        with self._lock:
            if self.finished_at:
                return
            self._stages[stage] = self._stages.get(stage, 0.0) + seconds

    def set(self, *, bytes_in=None, bytes_out=None,
            tenant=None) -> "RequestTimeline":
        if bytes_in is not None:
            self.bytes_in = int(bytes_in)
        if bytes_out is not None:
            self.bytes_out = int(bytes_out)
        if tenant is not None:
            self.tenant = tenant
        return self

    def finish(self, status: str = "ok", *, error: str | None = None,
               **tags):
        """Stamp the terminal status, seal the ledger and close the span.

        Idempotent.  The span records the status, byte counts, tenant,
        every stage as ``<stage>_ms`` and the scalar *tags* (reply facts
        such as ``cache`` and ``shard``; None values are skipped).
        """
        with self._lock:
            if self.finished_at:
                return self
            self.finished_at = time.perf_counter()
        self.status = status
        self.error = error
        sp = self.span
        if sp.trace_id:
            fields = {f"{k}_ms": v for k, v in self.stages_ms().items()}
            fields.update((k, v) for k, v in tags.items() if v is not None)
            if self.tenant:
                fields["tenant"] = self.tenant
            sp.set(bytes_in=self.bytes_in, bytes_out=self.bytes_out,
                   status=status, **fields)
            sp.error = error
            sp.finish()
        return self

    # -- derived --------------------------------------------------------
    @property
    def total_s(self) -> float:
        with self._lock:
            end = self.finished_at
        return (end or time.perf_counter()) - self.started_at

    def stages_ms(self) -> dict[str, float]:
        """Stage ledger in milliseconds, rounded to the microsecond
        (insertion order preserved).  Stages are never negative, so
        ``int(us + 0.5)`` rounds like ``round`` at half the cost."""
        with self._lock:
            return {k: int(v * 1e6 + 0.5) / 1e3
                    for k, v in self._stages.items()}

    def to_dict(self) -> dict:
        d = {
            "request_id": self.request_id,
            "verb": self.verb,
            "status": self.status or "open",
            "total_ms": round(self.total_s * 1e3, 3),
            "stages_ms": self.stages_ms(),
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "time": self.wall_time,
        }
        if self.tenant:
            d["tenant"] = self.tenant
        if self.trace_id:
            d["trace_id"] = self.trace_id
        if self.error:
            d["error"] = self.error
        return d


class RequestLog:
    """Fixed-size ring buffer of finished request timelines.

    It keeps the sealed timelines themselves and builds each entry dict
    only when read, so the request path pays one append.  A sealed
    timeline no longer changes, so a read sees what a snapshot taken
    at record time would have held.
    """

    def __init__(self, capacity: int = 256, *, slow_ms: float = 100.0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.slow_ms = float(slow_ms)
        self._entries: deque[RequestTimeline] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, timeline: RequestTimeline) -> None:
        """Retain a timeline; :meth:`~RequestTimeline.finish` it first."""
        with self._lock:
            self._entries.append(timeline)

    def _entry(self, timeline: RequestTimeline) -> dict:
        entry = timeline.to_dict()
        entry["slow"] = entry["total_ms"] >= self.slow_ms
        return entry

    @property
    def capacity(self) -> int:
        return self._entries.maxlen  # analyze: ignore[lock-discipline] - maxlen is immutable

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, request_id: str) -> dict | None:
        """The most recent entry with this request id (None if evicted)."""
        with self._lock:
            found = next((tl for tl in reversed(self._entries)
                          if tl.request_id == request_id), None)
        return None if found is None else self._entry(found)

    def snapshot(self, *, request_id: str | None = None,
                 errors_only: bool = False, slow_only: bool = False,
                 limit: int = 50) -> list[dict]:
        """Recent entries, newest first, optionally filtered."""
        with self._lock:
            entries = list(self._entries)
        out = []
        for timeline in reversed(entries):
            if request_id is not None and timeline.request_id != request_id:
                continue
            if errors_only and timeline.status == "ok":
                continue
            entry = self._entry(timeline)
            if slow_only and not entry["slow"]:
                continue
            out.append(entry)
            if len(out) >= limit:
                break
        return out
