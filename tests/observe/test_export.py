"""Metrics exporter: Prometheus text golden test, JSONL sink, flusher."""

import json
import time

import pytest

from repro import observe
from repro.observe.export import (
    MetricsJsonlWriter,
    PeriodicMetricsFlusher,
    read_metrics_jsonl,
    render_prometheus,
)


@pytest.fixture(autouse=True)
def clean_registry():
    observe.reset_metrics()
    yield
    observe.reset_metrics()


class TestRenderPrometheus:
    def test_golden_exposition(self):
        """Exact text for a fixed registry state (the wire format)."""
        observe.counter("szx.blocks.constant").inc(7)
        observe.gauge("serve.queue.depth").set(3)
        h = observe.histogram("serve.job.wait_s")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        expected = "\n".join([
            "# TYPE szx_blocks_constant_total counter",
            "szx_blocks_constant_total 7",
            "# TYPE serve_queue_depth gauge",
            "serve_queue_depth 3",
            "# TYPE serve_job_wait_s summary",
            'serve_job_wait_s{quantile="0.5"} 2.5',
            'serve_job_wait_s{quantile="0.9"} 3.7',
            'serve_job_wait_s{quantile="0.95"} 3.85',
            'serve_job_wait_s{quantile="0.99"} 3.97',
            "serve_job_wait_s_sum 10",
            "serve_job_wait_s_count 4",
        ]) + "\n"
        assert render_prometheus() == expected

    def test_empty_registry_renders_empty(self):
        assert render_prometheus() == ""

    def test_counter_total_suffix_not_duplicated(self):
        observe.counter("szx.bytes.total").inc(1)
        text = render_prometheus()
        assert "szx_bytes_total 1" in text
        assert "szx_bytes_total_total" not in text

    def test_unset_gauge_skipped(self):
        observe.gauge("szx.never_set")
        assert render_prometheus() == ""

    def test_names_sanitized(self):
        observe.counter("szx.weird-name/x").inc(1)
        text = render_prometheus()
        assert "szx_weird_name_x_total 1" in text

    def test_exposition_is_parseable_line_format(self):
        """Every non-comment line is `name[{labels}] value`."""
        observe.counter("a.b").inc(2)
        observe.gauge("c.d").set(1.5)
        observe.histogram("e.f").observe_many(range(10))
        for line in render_prometheus().splitlines():
            if line.startswith("#"):
                parts = line.split()
                assert parts[1] == "TYPE"
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # must parse
            assert name[0].isalpha() or name[0] == "_"

    def test_explicit_snapshot(self):
        snap = {
            "counters": {"x": 1},
            "gauges": {},
            "histograms": {},
        }
        assert render_prometheus(snap) == "# TYPE x_total counter\nx_total 1\n"


class TestMetricsJsonlWriter:
    def test_round_trip(self, tmp_path):
        observe.counter("szx.a").inc(5)
        observe.histogram("szx.h").observe_many([1, 2, 3])
        path = tmp_path / "events.jsonl"
        with MetricsJsonlWriter(path) as writer:
            writer.write_snapshot()
            observe.counter("szx.a").inc(1)
            writer.write_snapshot()
        events = read_metrics_jsonl(path)
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["counters"]["szx.a"] == 5
        assert events[1]["counters"]["szx.a"] == 6
        assert events[0]["histograms"]["szx.h"]["count"] == 3
        assert events[0]["ts"] <= events[1]["ts"]

    def test_extra_fields_and_open_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            writer = MetricsJsonlWriter(fh)
            writer.write_snapshot(extra={"phase": "drain"})
            writer.close()  # must not close caller-owned handle
            fh.write("\n")
        events = read_metrics_jsonl(path)
        assert events[0]["extra"] == {"phase": "drain"}

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with MetricsJsonlWriter(path) as writer:
            writer.write_snapshot()
        for line in path.read_text().splitlines():
            json.loads(line)


class TestPeriodicMetricsFlusher:
    def test_final_flush_on_stop(self, tmp_path):
        observe.counter("szx.flush").inc(2)
        path = tmp_path / "feed.jsonl"
        flusher = PeriodicMetricsFlusher(path, interval_s=60.0)
        flusher.start()
        flusher.stop()
        events = read_metrics_jsonl(path)
        assert len(events) == 1
        assert events[0]["counters"]["szx.flush"] == 2

    def test_periodic_flushes(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        with PeriodicMetricsFlusher(path, interval_s=0.01):
            deadline = time.time() + 2.0
            while time.time() < deadline:
                if path.exists() and len(read_metrics_jsonl(path)) >= 2:
                    break
                time.sleep(0.005)
        assert len(read_metrics_jsonl(path)) >= 2

    def test_prom_format_rewrites_atomically(self, tmp_path):
        observe.gauge("szx.g").set(1)
        path = tmp_path / "metrics.prom"
        flusher = PeriodicMetricsFlusher(path, interval_s=60.0, fmt="prom")
        flusher.start()
        flusher.stop()
        text = path.read_text()
        assert "szx_g 1" in text
        assert not (tmp_path / "metrics.prom.tmp").exists()

    def test_stop_idempotent(self, tmp_path):
        flusher = PeriodicMetricsFlusher(tmp_path / "x.jsonl", interval_s=60.0)
        flusher.start()
        flusher.stop()
        flusher.stop()  # no error, no double flush
        assert len(read_metrics_jsonl(tmp_path / "x.jsonl")) == 1

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PeriodicMetricsFlusher(tmp_path / "x", fmt="xml")
        with pytest.raises(ValueError):
            PeriodicMetricsFlusher(tmp_path / "x", interval_s=0)


class TestServeFlusherWiring:
    def test_flusher_wraps_service(self, tmp_path):
        import numpy as np

        from repro.codec import CodecConfig
        from repro.serve import CompressionService

        observe.enable()
        try:
            path = tmp_path / "serve-metrics.jsonl"
            with PeriodicMetricsFlusher(path, interval_s=60.0), \
                    CompressionService(workers=2) as svc:
                data = np.linspace(0, 1, 4096, dtype=np.float32)
                svc.compress(data, CodecConfig(err_bound=1e-3))
        finally:
            observe.disable()
        events = read_metrics_jsonl(path)
        assert events, "the flusher's exit must run a final flush"
        assert events[-1]["counters"].get("serve.jobs.served", 0) >= 1
