"""Telemetry unit tests: trace context, timelines, SLO engine, Chrome
export, causal span ordering, and the metric cardinality guard."""

import json
import threading

import pytest

from repro import observe
from repro.observe.metrics import (
    CARDINALITY_WARNING,
    MetricsRegistry,
    OVERFLOW_LABEL,
)
from repro.observe.telemetry import (
    BurnRatePolicy,
    RequestLog,
    RequestTimeline,
    SLOEngine,
    SLOTarget,
    TraceContext,
    find_orphans,
    from_span,
    new_context,
    parse_traceparent,
    spans_to_chrome_trace,
    stitch_traces,
    trace_summary,
    write_chrome_trace,
)


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = new_context()
        back = parse_traceparent(ctx.to_traceparent())
        assert back == ctx
        assert len(ctx.trace_id) == 32
        assert len(ctx.parent_span_id) == 16

    def test_request_id_is_trace_prefix(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        assert ctx.request_id == ctx.trace_id[:16]

    def test_child_of_keeps_trace_changes_parent(self):
        ctx = new_context()
        child = ctx.child_of("11" * 8)
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == "11" * 8
        assert child.flags == ctx.flags

    @pytest.mark.parametrize("bad", [
        None,
        42,
        "",
        "garbage",
        "00-short-abcdef0123456789-01",            # bad trace length
        "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
        "00-" + "a" * 32 + "-" + "b" * 16,          # missing flags
        "00-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",
    ])
    def test_malformed_traceparent_is_none_never_raises(self, bad):
        assert parse_traceparent(bad) is None

    def test_uppercase_header_accepted(self):
        ctx = new_context()
        assert parse_traceparent(ctx.to_traceparent().upper()) == ctx

    def test_from_span_none_for_null_span(self):
        observe.disable()
        sp = observe.open_span("x")  # the shared no-op span
        assert from_span(sp) is None

    def test_from_span_carries_span_identity(self):
        with observe.trace():
            sp = observe.open_span("x")
            ctx = from_span(sp)
            sp.finish()
        assert ctx.trace_id == sp.trace_id
        assert ctx.parent_span_id == sp.span_id


class TestRequestTimeline:
    def test_mark_charges_sequential_stages(self):
        tl = RequestTimeline("compress")
        tl.mark("read")
        tl.mark("execute")
        tl.finish()
        stages = tl.stages_ms()
        assert list(stages) == ["read", "execute"]
        assert all(v >= 0 for v in stages.values())
        # Sequential marks partition elapsed time: their sum cannot
        # exceed the total wall time.
        assert sum(stages.values()) <= tl.total_s * 1e3 + 1e-6

    def test_put_is_out_of_band_and_clamps_negative(self):
        tl = RequestTimeline("compress")
        tl.put("kernel", 0.25)
        tl.put("kernel", 0.25)
        tl.put("weird", -5.0)
        assert tl.stages_ms()["kernel"] == 500.0
        assert tl.stages_ms()["weird"] == 0.0
        # put() must not advance the mark clock.
        tl.mark("read")
        assert tl.stages_ms()["read"] < 500.0

    def test_finish_is_idempotent(self):
        tl = RequestTimeline("c").finish(status="ok")
        first = tl.finished_at
        tl.finish(status="internal", error="nope")
        assert tl.finished_at == first
        assert tl.status == "ok"
        assert tl.error is None

    def test_finish_seals_the_ledger(self):
        tl = RequestTimeline("c")
        tl.mark("read")
        tl.finish()
        before = tl.stages_ms()
        tl.mark("write")
        tl.put("kernel", 1.0)
        assert tl.stages_ms() == before

    def test_to_dict_shape(self):
        tl = RequestTimeline(
            "compress", tenant="acme", context=TraceContext("ab" * 16, "cd" * 8)
        )
        tl.set(bytes_in=100, bytes_out=42)
        tl.mark("read")
        tl.finish(status="internal", error="boom")
        d = tl.to_dict()
        assert d["verb"] == "compress"
        assert d["status"] == "internal"
        assert d["error"] == "boom"
        assert d["tenant"] == "acme"
        assert d["trace_id"] == "ab" * 16
        assert d["bytes_in"] == 100 and d["bytes_out"] == 42
        assert "read" in d["stages_ms"]
        assert len(d["request_id"]) == 16

    def test_span_starts_at_the_first_byte(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        with observe.trace() as sink:
            tl = RequestTimeline("compress", context=ctx, started_at=12.5)
            tl.mark("read")
            tl.finish("ok", cache="hit", shard=None)
        (sp,) = sink.spans
        assert sp is tl.span
        assert sp.t0 == 12.5
        assert sp.trace_id == tl.trace_id == ctx.trace_id
        assert sp.parent_span_id == ctx.parent_span_id
        assert tl.request_id == ctx.request_id
        assert sp.extra["cache"] == "hit" and "shard" not in sp.extra
        assert sp.extra["read_ms"] == tl.stages_ms()["read"]

    def test_untraced_timeline_keeps_the_propagated_ids(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        tl = RequestTimeline("compress", context=ctx).finish("ok")
        assert tl.trace_id == ctx.trace_id
        assert tl.request_id == ctx.request_id
        assert tl.span.trace_id is None      # the shared no-op span


class TestRequestLog:
    def _finished(self, request_id=None, status="ok", error=None):
        tl = RequestTimeline("compress", request_id=request_id)
        return tl.finish(status=status, error=error)

    def test_ring_evicts_oldest(self):
        log = RequestLog(capacity=3)
        for i in range(5):
            log.record(self._finished(request_id=f"req-{i}"))
        assert len(log) == 3
        assert log.capacity == 3
        assert log.get("req-0") is None
        assert log.get("req-4")["request_id"] == "req-4"

    def test_snapshot_newest_first_with_filters(self):
        log = RequestLog(capacity=10, slow_ms=0.0)  # everything is slow
        log.record(self._finished(request_id="a"))
        log.record(self._finished(request_id="b", status="internal",
                                  error="x"))
        log.record(self._finished(request_id="c"))
        snap = log.snapshot()
        assert [e["request_id"] for e in snap] == ["c", "b", "a"]
        assert [e["request_id"] for e in log.snapshot(errors_only=True)] \
            == ["b"]
        assert len(log.snapshot(slow_only=True)) == 3
        assert len(log.snapshot(limit=2)) == 2
        assert log.snapshot(request_id="a")[0]["request_id"] == "a"

    def test_slow_classification(self):
        log = RequestLog(capacity=4, slow_ms=1e9)
        log.record(self._finished())
        (entry,) = log.snapshot()
        assert entry["slow"] is False

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            RequestLog(capacity=0)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestSLOEngine:
    def test_burn_rate_math(self):
        clock = FakeClock()
        eng = SLOEngine(
            (SLOTarget("avail", objective=0.99),), clock=clock
        )
        for _ in range(99):
            eng.record(0.001)
        eng.record(0.001, error=True)
        # 1% bad against a 1% budget: burn rate exactly 1.0.
        assert eng.burn_rate(eng.targets[0], 300) == pytest.approx(1.0)
        bad, total = eng.window_counts("avail", 300)
        assert (bad, total) == (1, 100)

    def test_no_traffic_burns_nothing(self):
        eng = SLOEngine(clock=FakeClock())
        for target in eng.targets:
            assert eng.burn_rate(target, 3600) == 0.0
        assert eng.alerts() == []
        assert eng.report()["healthy"] is True

    def test_latency_target_counts_slow_requests_as_bad(self):
        clock = FakeClock()
        eng = SLOEngine(
            (SLOTarget("lat", objective=0.9, latency_ms=10.0),),
            clock=clock,
        )
        eng.record(0.005)   # under the threshold: good
        eng.record(0.050)   # over: bad
        bad, total = eng.window_counts("lat", 300)
        assert (bad, total) == (1, 2)

    def test_multi_window_alert_requires_both_windows(self):
        clock = FakeClock(t=100_000.0)
        policy = BurnRatePolicy(
            long_s=3600, short_s=300, threshold=10.0, severity="page"
        )
        eng = SLOEngine(
            (SLOTarget("avail", objective=0.999),), (policy,), clock=clock
        )
        # A burst of errors an hour ago: long window still sees it...
        clock.t = 100_000.0
        for _ in range(10):
            eng.record(0.001, error=True)
        clock.t += 3000.0
        # ...but the short window has recovered, so no alert fires.
        for _ in range(100):
            eng.record(0.001)
        assert eng.alerts() == []
        # Fresh errors light up both windows -> the page fires.
        for _ in range(50):
            eng.record(0.001, error=True)
        alerts = eng.alerts()
        assert [a["severity"] for a in alerts] == ["page"]
        assert alerts[0]["target"] == "avail"
        assert eng.report()["healthy"] is False

    def test_old_buckets_pruned(self):
        clock = FakeClock(t=0.0)
        eng = SLOEngine(clock=clock)
        eng.record(0.001, error=True)
        clock.t += eng._max_window + 10
        eng.record(0.001)
        for window in eng._windows:
            bad, _ = eng.window_counts("availability", window)
            assert bad == 0

    def test_report_shape(self):
        eng = SLOEngine(clock=FakeClock())
        eng.record(0.001)
        doc = eng.report()
        assert doc["events"] == 1
        assert set(doc["targets"]) == {"availability", "latency_p99"}
        lat = doc["targets"]["latency_p99"]
        assert lat["latency_ms"] == 250.0
        for win in lat["windows"].values():
            assert set(win) == {"total", "bad", "burn_rate"}

    def test_target_validation(self):
        with pytest.raises(ValueError, match="objective"):
            SLOTarget("x", objective=1.0)
        with pytest.raises(ValueError, match="latency_ms"):
            SLOTarget("x", latency_ms=0)
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine((SLOTarget("a"), SLOTarget("a")))


class TestCausalOrphanOrdering:
    def test_late_child_delivered_after_parents_tree(self):
        """A span closing after its parent closed — but before the
        parent's tree was delivered — must reach sinks *after* it."""
        with observe.trace() as sink:
            root = observe.open_span("root")
            mid = observe.open_span("mid", parent=root)
            mid.finish()                    # attached to still-open root
            late = observe.open_span("late", parent=mid)
            late.finish()                   # mid closed, root not delivered
            assert sink.spans == []         # nothing emitted early
            root.finish()
        assert [sp.name for sp in sink.spans] == ["root", "late"]
        # The late span still belongs to the same trace, with its true
        # causal parent recorded.
        assert sink.spans[1].trace_id == root.trace_id
        assert sink.spans[1].parent_span_id == mid.span_id

    def test_child_of_delivered_parent_is_immediate_root(self):
        with observe.trace() as sink:
            root = observe.open_span("root")
            root.finish()
            late = observe.open_span("late", parent=root)
            late.finish()
        assert [sp.name for sp in sink.spans] == ["root", "late"]

    def test_cross_thread_orphan_never_precedes_parent(self):
        with observe.trace() as sink:
            root = observe.open_span("root")
            child = observe.open_span("job", parent=root)
            done = threading.Event()

            def worker():
                child.finish()
                done.set()

            root.finish()
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert done.wait(1.0)
        names = [sp.name for sp in sink.spans]
        assert names.index("root") < names.index("job")

    def test_span_context_joins_remote_trace(self):
        ctx = new_context()
        with observe.trace() as sink:
            with observe.span("net.request", context=ctx):
                with observe.span("inner"):
                    pass
        root = sink.spans[0]
        assert root.trace_id == ctx.trace_id
        assert root.parent_span_id == ctx.parent_span_id
        assert root.children[0].trace_id == ctx.trace_id
        assert root.children[0].parent_span_id == root.span_id


class TestChromeExport:
    def _spans(self):
        with observe.trace() as sink:
            with observe.span("net.request", bytes_in=10):
                with observe.span("szx.compress"):
                    pass
        return sink.spans

    def test_stitch_groups_by_trace(self):
        roots = self._spans() + self._spans()
        traces = stitch_traces(roots)
        assert len(traces) == 2
        assert all(len(spans) == 2 for spans in traces.values())
        assert find_orphans(roots) == []
        summary = trace_summary(roots)
        assert summary == {
            "spans": 4, "traces": 2, "untraced_spans": 0, "orphans": 0,
        }

    def test_unresolvable_parent_is_orphan(self):
        roots = self._spans()
        roots[0].children[0].parent_span_id = "f" * 16
        orphans = find_orphans(roots)
        assert [sp.name for sp in orphans] == ["szx.compress"]

    def test_chrome_document_shape(self):
        doc = spans_to_chrome_trace(self._spans())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(events) == 2
        assert {e["name"] for e in events} \
            == {"net.request", "szx.compress"}
        for e in events:
            assert e["dur"] >= 0
            assert e["args"]["trace_id"]
        assert any(m["name"] == "process_name" for m in metas)

    def test_write_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        summary = write_chrome_trace(path, self._spans())
        assert summary["orphans"] == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestCardinalityGuard:
    def test_overflow_routes_to_shared_instrument(self):
        reg = MetricsRegistry(max_label_sets=2)
        reg.counter("net.shard.jobs.a").inc()
        reg.counter("net.shard.jobs.b").inc()
        over1 = reg.counter("net.shard.jobs.c")
        over2 = reg.counter("net.shard.jobs.d")
        assert over1 is over2
        assert over1.name == f"net.shard.jobs.{OVERFLOW_LABEL}"
        over1.inc(3)
        snap = reg.snapshot()
        assert snap["counters"][f"net.shard.jobs.{OVERFLOW_LABEL}"] == 3
        assert snap["counters"][CARDINALITY_WARNING] == 2

    def test_existing_instruments_unaffected(self):
        reg = MetricsRegistry(max_label_sets=1)
        first = reg.counter("x.y.a")
        reg.counter("x.y.b").inc()  # overflows
        assert reg.counter("x.y.a") is first  # cached, not re-routed

    def test_families_are_independent(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("fam1.a")
        reg.counter("fam2.a")
        snap = reg.snapshot()
        assert CARDINALITY_WARNING not in snap["counters"]

    def test_histograms_and_gauges_guarded_too(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.histogram("lat.a")
        assert reg.histogram("lat.b").name == f"lat.{OVERFLOW_LABEL}"
        reg.gauge("g.a")
        assert reg.gauge("g.b").name == f"g.{OVERFLOW_LABEL}"

    def test_reset_clears_family_counts(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("f.a")
        reg.reset()
        assert reg.counter("f.b").name == "f.b"

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="max_label_sets"):
            MetricsRegistry(max_label_sets=0)
