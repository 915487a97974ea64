"""Bounded submission queue — the service's backpressure primitive.

A plain FIFO with a hard capacity and condition-variable waiting.  The
two admission policies the service exposes map directly onto ``put``:

* **reject** — ``put(item)`` raises
  :class:`~repro.serve.errors.ServiceOverloadedError` immediately when
  the queue is full, so overload turns into a fast, explicit signal
  instead of unbounded memory growth;
* **block-with-deadline** — ``put(item, block=True, timeout=t)`` waits
  up to *t* seconds for space, then raises the same error.

``get`` waits for one item and ``take_all`` takes whatever is queued
without waiting — the dispatcher's two moves.  ``close()`` stops
admissions; consumers keep draining until the queue is empty, after
which ``get`` raises
:class:`~repro.serve.errors.ServiceClosedError` — the dispatcher's exit
signal.  The current depth feeds the ``serve.queue.depth`` gauge when
observability is enabled.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .. import observe
from .errors import ServiceClosedError, ServiceOverloadedError


class BoundedQueue:
    """Thread-safe bounded FIFO with reject/block admission."""

    def __init__(self, capacity: int):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _record_depth(self) -> None:  # analyze: holds-lock
        if observe.enabled():
            observe.gauge("serve.queue.depth").set(len(self._items))

    def put(self, item, *, block: bool = False, timeout: float | None = None) -> None:
        """Enqueue *item*, or raise on overload / closed service."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed; not accepting jobs")
            if len(self._items) >= self.capacity:
                if not block:
                    raise ServiceOverloadedError(
                        f"submission queue full ({self.capacity} jobs)"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._items) >= self.capacity:
                    if self._closed:
                        raise ServiceClosedError(
                            "service closed while waiting for queue space"
                        )
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise ServiceOverloadedError(
                                f"submission queue still full "
                                f"({self.capacity} jobs) after {timeout:g}s"
                            )
                    self._not_full.wait(remaining)
            self._items.append(item)
            self._record_depth()
            self._not_empty.notify()

    def get(self):
        """Dequeue one item, waiting for it.

        Raises :class:`~repro.serve.errors.ServiceClosedError` once the
        queue is closed *and* drained.
        """
        with self._lock:
            while not self._items:
                if self._closed:
                    raise ServiceClosedError("queue closed and drained")
                self._not_empty.wait()
            item = self._items.popleft()
            self._record_depth()
            self._not_full.notify()
            return item

    def take_all(self) -> list:
        """Dequeue everything queued right now, without waiting."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._record_depth()
            self._not_full.notify_all()
            return items

    def close(self) -> None:
        """Stop admissions; wake every waiter so they can re-check."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
