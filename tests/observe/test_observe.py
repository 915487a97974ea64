"""Unit tests for repro.observe: spans, metrics, sinks."""

import io
import json
import threading

import numpy as np
import pytest

from repro import observe
from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_tree,
)
from repro.observe.sinks import InMemorySink, JsonLinesSink


@pytest.fixture(autouse=True)
def _clean_observe_state():
    """Every test starts and ends with tracing off and no sinks."""
    observe.disable()
    yield
    observe.disable()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestSpanDisabled:
    def test_disabled_returns_null_singleton(self):
        a = observe.span("x")
        b = observe.span("y", bytes_in=4)
        assert a is b
        with a as sp:
            assert sp.set(bytes_out=1) is sp  # chainable no-op

    def test_disabled_delivers_nothing(self):
        sink = InMemorySink()
        with observe.span("root"):
            pass
        assert sink.spans == []

    def test_traced_decorator_passthrough_when_disabled(self):
        calls = []

        @observe.traced("fn")
        def fn(data):
            calls.append(data)
            return b"out"

        assert fn(b"in") == b"out"
        assert calls == [b"in"]


class TestSpanEnabled:
    def test_root_span_delivered_to_sink(self):
        sink = InMemorySink()
        observe.enable(sink)
        with observe.span("root", bytes_in=10) as sp:
            sp.set(bytes_out=3)
        assert len(sink.spans) == 1
        root = sink.spans[0]
        assert root.name == "root"
        assert root.bytes_in == 10
        assert root.bytes_out == 3
        assert root.wall_s >= 0.0
        assert root.cpu_s >= 0.0

    def test_nesting_builds_tree(self):
        sink = InMemorySink()
        observe.enable(sink)
        with observe.span("root"):
            with observe.span("a"):
                with observe.span("a1"):
                    pass
            with observe.span("b"):
                pass
        assert len(sink.spans) == 1
        root = sink.spans[0]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]
        # children are not delivered as roots
        assert all(s.name == "root" for s in sink.spans)

    def test_current_span_tracks_stack(self):
        observe.enable()
        assert observe.current_span() is None
        with observe.span("outer") as outer:
            assert observe.current_span() is outer
            with observe.span("inner") as inner:
                assert observe.current_span() is inner
            assert observe.current_span() is outer
        assert observe.current_span() is None

    def test_error_recorded_and_reraised(self):
        sink = InMemorySink()
        observe.enable(sink)
        with pytest.raises(ValueError):
            with observe.span("boom"):
                raise ValueError("nope")
        assert sink.spans[0].error == "ValueError"

    def test_explicit_parent_across_threads(self):
        sink = InMemorySink()
        observe.enable(sink)
        with observe.span("root") as root:

            def worker(i):
                with observe.span(f"worker[{i}]", parent=root):
                    pass

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        root = sink.spans[0]
        assert sorted(c.name for c in root.children) == [
            f"worker[{i}]" for i in range(4)
        ]

    def test_to_dict_shape(self):
        sink = InMemorySink()
        observe.enable(sink)
        with observe.span("root", bytes_in=8, tag="v") as sp:
            sp.set(bytes_out=2)
            with observe.span("kid"):
                pass
        d = sink.spans[0].to_dict()
        assert d["name"] == "root"
        assert d["bytes_in"] == 8
        assert d["bytes_out"] == 2
        assert d["extra"] == {"tag": "v"}
        assert [c["name"] for c in d["children"]] == ["kid"]
        json.dumps(d)  # must be JSON-serializable

    def test_throughput(self):
        observe.enable()
        with observe.span("s", bytes_in=1_000_000) as sp:
            pass
        assert sp.throughput_mb_s is not None and sp.throughput_mb_s > 0
        with observe.span("nobytes") as sp2:
            pass
        assert sp2.throughput_mb_s is None

    def test_traced_decorator_infers_bytes(self):
        sink = InMemorySink()
        observe.enable(sink)

        @observe.traced("encode")
        def encode(arr):
            return b"\x00" * 5

        encode(np.zeros(4, dtype=np.float32))
        sp = sink.spans[0]
        assert sp.name == "encode"
        assert sp.bytes_in == 16
        assert sp.bytes_out == 5

    def test_trace_contextmanager_restores_state(self):
        assert not observe.enabled()
        with observe.trace() as sink:
            assert observe.enabled()
            with observe.span("inside"):
                pass
        assert not observe.enabled()
        assert [s.name for s in sink.spans] == ["inside"]
        # new spans after exit are not collected
        with observe.span("after"):
            pass
        assert len(sink.spans) == 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge("g")
        assert g.value is None
        g.set(0.25)
        assert g.value == 0.25

    def test_histogram_exact_int_buckets(self):
        h = Histogram("h")
        h.observe_many([0, 1, 1, 7, 4096])
        assert h.count == 5
        assert h.min == 0 and h.max == 4096
        assert h.buckets["0"] == 1
        assert h.buckets["1"] == 2
        assert h.buckets["7"] == 1
        assert h.buckets["4096"] == 1

    def test_histogram_decade_buckets(self):
        h = Histogram("h")
        h.observe(0.003)
        h.observe(12345.0)
        h.observe(-2.5)
        assert h.buckets["1e-3"] == 1
        assert h.buckets["1e4"] == 1
        assert h.buckets["-1e0"] == 1

    def test_histogram_numpy_input(self):
        h = Histogram("h")
        h.observe_many(np.array([3, 3, 9], dtype=np.uint8))
        assert h.count == 3
        assert h.mean == pytest.approx(5.0)
        assert h.buckets["3"] == 2

    def test_registry_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(1.5)
        reg.histogram("c").observe(4)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 1.5}
        assert snap["histograms"]["c"]["count"] == 1
        assert snap["histograms"]["c"]["buckets"] == {"4": 1}
        json.dumps(snap)
        # same name returns the same instrument
        assert reg.counter("a") is reg.counter("a")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_module_level_registry_aliases(self):
        observe.reset_metrics()
        observe.counter("x").inc()
        observe.gauge("y").set(2)
        observe.histogram("z").observe(1)
        snap = observe.metrics_snapshot()
        assert snap["counters"]["x"] == 1
        assert snap["gauges"]["y"] == 2.0
        assert snap["histograms"]["z"]["count"] == 1
        observe.reset_metrics()


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class TestSinks:
    def test_jsonlines_sink_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesSink(path) as sink:
            observe.enable(sink)
            with observe.span("one", bytes_in=1):
                pass
            with observe.span("two"):
                with observe.span("kid"):
                    pass
            observe.disable()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(l) for l in lines)
        assert first["name"] == "one" and first["bytes_in"] == 1
        assert second["name"] == "two"
        assert [c["name"] for c in second["children"]] == ["kid"]

    def test_jsonlines_sink_file_object_not_closed(self):
        buf = io.StringIO()
        sink = JsonLinesSink(buf)
        observe.enable(sink)
        with observe.span("s"):
            pass
        observe.disable()
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["name"] == "s"

    def test_render_tree_contents(self):
        with observe.trace() as sink:
            with observe.span("root", bytes_in=2048) as sp:
                sp.set(bytes_out=100)
                with observe.span("stage"):
                    pass
        text = render_tree(sink.spans[0])
        lines = text.splitlines()
        assert "root" in lines[0]
        assert "ms" in lines[0]
        assert "->" in lines[0]  # both byte counts present
        assert any("stage" in l for l in lines[1:])
        # accepts dicts too
        assert render_tree(sink.spans[0].to_dict()) == text

    def test_render_tree_partial_bytes(self):
        with observe.trace() as sink:
            with observe.span("in_only", bytes_in=7):
                pass
            with observe.span("out_only", bytes_out=9):
                pass
        in_line = render_tree(sink.spans[0])
        out_line = render_tree(sink.spans[1])
        assert "->" not in in_line and "in 7B" in in_line
        assert "->" not in out_line and "out 9B" in out_line

    def test_render_tree_min_wall_elides_fast_children(self):
        with observe.trace() as sink:
            with observe.span("root"):
                with observe.span("fast"):
                    pass
        text = render_tree(sink.spans[0], min_wall_s=3600.0)
        assert "fast" not in text


class TestHistogramQuantiles:
    def test_exact_small_sample(self):
        h = Histogram("q")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 2.5
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.25) == pytest.approx(1.75)

    def test_empty_returns_none(self):
        assert Histogram("q").quantile(0.5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("q").quantile(1.5)
        with pytest.raises(ValueError):
            Histogram("q").quantile(-0.1)

    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(size=1000)
        h = Histogram("q")
        h.observe_many(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert h.quantile(q) == pytest.approx(
                float(np.quantile(values, q)), rel=1e-9
            )

    def test_percentiles_labels(self):
        h = Histogram("q")
        h.observe_many(range(101))
        p = h.percentiles()
        assert set(p) == {"p50", "p90", "p95", "p99"}
        assert p["p50"] == 50.0
        custom = h.percentiles(qs=(0.975,))
        assert custom == {"p97_5": pytest.approx(97.5)}

    def test_reservoir_keeps_bounded_memory(self):
        from repro.observe.metrics import RESERVOIR_SIZE

        h = Histogram("q")
        h.observe_many(range(3 * RESERVOIR_SIZE))
        assert len(h._samples) == RESERVOIR_SIZE
        assert h.count == 3 * RESERVOIR_SIZE
        # Quantiles stay approximately right under sampling.
        mid = h.quantile(0.5)
        assert abs(mid - 1.5 * RESERVOIR_SIZE) < 0.15 * (3 * RESERVOIR_SIZE)

    def test_deterministic_across_instances(self):
        a, b = Histogram("same.name"), Histogram("same.name")
        values = list(range(20000))
        a.observe_many(values)
        b.observe_many(values)
        assert a.quantile(0.5) == b.quantile(0.5)

    def test_snapshot_carries_percentiles(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe_many([1, 2, 3, 4])
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["p50"] == 2.5
        assert snap["p90"] == pytest.approx(3.7)
        assert snap["p99"] == pytest.approx(3.97)
