"""Process-wide metrics registry: counters, gauges, histograms.

Instrumentation points call ``counter("szx.blocks.constant").inc(n)``
etc.; ``snapshot()`` returns everything as a plain JSON-ready dict
(the payload of ``szx stats``).  All operations are thread-safe.

Hot paths guard updates with :func:`repro.observe.enabled` so the
disabled cost is a single global read; the registry itself is always
live — enabling tracing simply makes call sites start feeding it.
"""

from __future__ import annotations

import math
import random
import threading
from collections import Counter as _TallyCounter

import numpy as np


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += int(amount)


class Gauge:
    """Last-written value (e.g. current ratio, worker count)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = None
        self._lock = threading.Lock()

    def set(self, value) -> None:
        with self._lock:
            self.value = float(value)


def _bucket_label(value) -> str:
    """Exact label for small non-negative ints, decade bucket otherwise."""
    if value == 0:
        return "0"
    f = float(value)
    if f.is_integer() and 0 <= f <= 4096:
        return str(int(f))
    exp = math.floor(math.log10(abs(f)))
    return f"{'-' if f < 0 else ''}1e{exp}"


#: Reservoir capacity per histogram: quantiles are exact up to this many
#: observations and a uniform deterministic sample beyond it.
RESERVOIR_SIZE = 4096


class Histogram:
    """Distribution summary: count/sum/min/max plus bucket tallies.

    Small non-negative integer observations (e.g. the required-bits
    values, block sizes) keep exact per-value buckets; everything else
    falls into signed decade buckets.  A bounded reservoir backs
    :meth:`quantile` / :meth:`percentiles` — exact below
    :data:`RESERVOIR_SIZE` observations, a uniform sample above it,
    kept by seeded skip-based sampling (Li's Algorithm L), so runs are
    reproducible and a batch costs one draw per replacement rather than
    one per value.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "buckets",
        "_samples", "_rng", "_w", "_next", "_lock",
    )

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = _TallyCounter()
        self._samples: list[float] = []
        self._rng = random.Random(0x5A11C0 ^ hash(name) & 0xFFFFFFFF)
        self._w = 1.0
        self._next = RESERVOIR_SIZE  # 1-based number of the next replacement
        self._skip()
        self._lock = threading.Lock()

    def _skip(self) -> None:  # analyze: holds-lock
        """Advance ``_next`` to the next observation that enters the full
        reservoir (Algorithm L's geometric jump)."""
        rng = self._rng
        self._w *= math.exp(math.log(1.0 - rng.random()) / RESERVOIR_SIZE)
        gap = 0.0
        if self._w < 1.0:
            gap = math.log(1.0 - rng.random()) / math.log1p(-self._w)
        self._next += math.floor(gap) + 1

    def observe(self, value) -> None:
        self.observe_many((value,))

    def observe_many(self, values) -> None:
        """Record an iterable (or numpy array) of observations at once."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        if not arr.size:
            return
        distinct, tallies = np.unique(arr, return_counts=True)
        with self._lock:
            seen = self.count
            self.count += arr.size
            self.total += float(arr.sum())
            lo, hi = float(distinct[0]), float(distinct[-1])
            self.min = lo if self.min is None else min(self.min, lo)
            self.max = hi if self.max is None else max(self.max, hi)
            for v, c in zip(distinct.tolist(), tallies.tolist()):
                self.buckets[_bucket_label(v)] += c
            samples = self._samples
            samples.extend(arr[: RESERVOIR_SIZE - len(samples)].tolist())
            while self._next <= self.count:
                slot = self._rng.randrange(RESERVOIR_SIZE)
                samples[slot] = float(arr[self._next - seen - 1])
                self._skip()

    @property
    def mean(self):
        with self._lock:
            return self.total / self.count if self.count else None

    def quantile(self, q: float):
        """The *q*-quantile (0 <= q <= 1) with linear interpolation.

        Computed from the sample reservoir — exact while the histogram
        has seen at most :data:`RESERVOIR_SIZE` values, an unbiased
        estimate beyond.  Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def percentiles(self, qs=(0.5, 0.9, 0.95, 0.99)):
        """``{"p50": ..., "p90": ...}`` for each quantile in *qs*."""
        out = {}
        for q in qs:
            label = f"{q * 100:g}".replace(".", "_")
            out[f"p{label}"] = self.quantile(q)
        return out


#: Default cap on distinct dynamic-label instruments per metric family.
DEFAULT_MAX_LABEL_SETS = 64

#: Trailing name component of the per-family spillover instrument.
OVERFLOW_LABEL = "__overflow__"

#: Counter bumped every time a new label set is refused (the warning
#: signal that some call site is minting unbounded per-request names).
CARDINALITY_WARNING = "observe.cardinality.limited"


def _family(name: str) -> str:
    """The metric family of a dotted name (everything before the last
    component, which by convention carries the dynamic label: tenant,
    shard, verb, response code)."""
    return name.rsplit(".", 1)[0] if "." in name else name


class MetricsRegistry:
    """Named metric instruments, created on first use.

    Dynamic labels are encoded as the last dotted name component
    (``net.tenant.pending.<tenant>``), so an adversarial or merely
    enthusiastic workload could mint unbounded instruments.  The
    registry caps distinct members per family at *max_label_sets*:
    past the cap, updates are routed to one ``<family>.__overflow__``
    spillover instrument and :data:`CARDINALITY_WARNING` is bumped —
    aggregates stay correct, memory stays bounded, and the warning
    counter makes the offending family visible in ``szx stats``.
    """

    def __init__(self, *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        if not isinstance(max_label_sets, int) or isinstance(max_label_sets, bool) \
                or max_label_sets < 1:
            raise ValueError(
                f"max_label_sets must be a positive int, got {max_label_sets!r}"
            )
        self.max_label_sets = max_label_sets
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # (instrument class name, family) -> live member count
        self._families: dict[tuple[str, str], int] = {}

    def _get(self, table: dict, name: str, cls):
        overflowed = False
        with self._lock:
            inst = table.get(name)
            if inst is not None:
                return inst
            key = (cls.__name__, _family(name))
            members = self._families.get(key, 0)
            if members >= self.max_label_sets \
                    and not name.endswith(OVERFLOW_LABEL):
                overflowed = True
                over_name = f"{key[1]}.{OVERFLOW_LABEL}"
                inst = table.get(over_name)
                if inst is None:
                    inst = table[over_name] = cls(over_name)
            else:
                inst = table[name] = cls(name)
                if not name.endswith(OVERFLOW_LABEL):
                    self._families[key] = members + 1
            if overflowed:
                warn = self._counters.get(CARDINALITY_WARNING)
                if warn is None:
                    warn = self._counters[CARDINALITY_WARNING] = \
                        Counter(CARDINALITY_WARNING)
        if overflowed:
            warn.inc()
        return inst

    # The table *references* are immutable (assigned once in __init__);
    # their contents are only read or written inside _get/snapshot/reset,
    # which take the lock themselves.
    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)  # analyze: ignore[lock-discipline]

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)  # analyze: ignore[lock-discipline]

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram)  # analyze: ignore[lock-discipline]

    def snapshot(self) -> dict:
        """All metrics as a JSON-ready dict."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "count": h.count,
                        "sum": h.total,
                        "min": h.min,
                        "max": h.max,
                        "mean": h.mean,
                        "p50": h.quantile(0.5),
                        "p90": h.quantile(0.9),
                        "p95": h.quantile(0.95),
                        "p99": h.quantile(0.99),
                        "buckets": dict(sorted(h.buckets.items())),
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._families.clear()


#: The process-wide registry every instrumentation point feeds.
REGISTRY = MetricsRegistry()

counter = REGISTRY.counter
gauge = REGISTRY.gauge
histogram = REGISTRY.histogram
metrics_snapshot = REGISTRY.snapshot
reset_metrics = REGISTRY.reset
