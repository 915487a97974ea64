"""net_load driver: report shape and duplicate speedup."""

import numpy as np

from repro.bench.net_load import format_net_report, run_net_load


class TestNetLoad:
    def test_report_shape_and_clean_run(self):
        report = run_net_load(
            chunks=12, values_per_chunk=1024, clients=2, shards=1, warmup=2
        )
        assert report["protocol_errors"] == 0
        for phase in ("cold", "dup"):
            p = report[phase]
            assert p["requests"] == 12
            assert p["errors"] == []
            assert {"p50_ms", "p95_ms", "p99_ms"} <= set(p["latency"])
        assert report["cold"]["cache_hit_rate"] == 0.0
        assert report["dup"]["cache_hit_rate"] == 1.0
        assert report["cache_speedup"] > 1.0
        assert "server_stats" not in report or \
            report["server_stats"]["cache"]["hits"] >= 12

    def test_duplicate_workload_speedup(self):
        """Acceptance: >=5x throughput on a 100% duplicate workload."""
        report = run_net_load(
            chunks=48, values_per_chunk=4096, clients=3, shards=2, warmup=4
        )
        assert report["protocol_errors"] == 0
        assert report["dup"]["cache_hit_rate"] == 1.0
        assert report["cache_speedup"] >= 5.0, report["cache_speedup"]

    def test_warmup_chunks_do_not_prewarm_the_cold_phase(self):
        report = run_net_load(
            chunks=8, values_per_chunk=512, clients=2, shards=1, warmup=16
        )
        assert report["cold"]["cache_hit_rate"] == 0.0
        assert report["cold"]["warmup"] == 16

    def test_format_report_renders(self):
        report = run_net_load(
            chunks=4, values_per_chunk=256, clients=1, shards=1, warmup=0
        )
        text = format_net_report(report)
        assert "net-bench:" in text and "cache speedup" in text

    def test_json_serializable(self):
        import json

        report = run_net_load(
            chunks=4, values_per_chunk=256, clients=1, shards=1, warmup=0
        )
        json.dumps(report)
