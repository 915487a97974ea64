"""CLI surface: `szx serve`, `szx client`, `szx net-bench`,
`szx top`, `szx trace`."""

import json
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestNetBenchCli:
    def test_prints_report_and_exits_zero(self, capsys):
        assert main([
            "net-bench", "--chunks", "8", "--values", "512",
            "--clients", "2", "--shards", "1", "--warmup", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "net-bench:" in out
        assert "protocol errors: 0" in out

    def test_report_written(self, tmp_path, capsys):
        report_path = tmp_path / "net.json"
        assert main([
            "net-bench", "--chunks", "6", "--values", "256",
            "--clients", "2", "--shards", "1", "--warmup", "1",
            "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["protocol_errors"] == 0
        assert report["dup"]["cache_hit_rate"] == 1.0
        for phase in ("cold", "dup"):
            assert report[phase]["mb_per_s"] > 0
            assert {"p50_ms", "p95_ms", "p99_ms"} <= set(report[phase]["latency"])

    def test_trace_chrome_exports_stitched_traces(self, tmp_path, capsys):
        trace_path = tmp_path / "net.trace.json"
        report_path = tmp_path / "net.json"
        assert main([
            "net-bench", "--chunks", "6", "--values", "256",
            "--clients", "2", "--shards", "1", "--warmup", "1",
            "--trace-chrome", str(trace_path),
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "0 orphan(s)" in out
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        report = json.loads(report_path.read_text())
        assert report["trace"]["orphans"] == 0
        assert report["trace"]["untraced_spans"] == 0
        # 6 cold + 6 dup + 1 warmup requests, plus the stats probe.
        assert report["trace"]["traces"] >= 13
        assert report["slo"]["healthy"] is True
        assert report["slo"]["events"] >= 13


class TestClientCliErrors:
    def test_connection_refused_is_diagnostic_not_traceback(self, capsys):
        # Port 1 is essentially never listening.
        code = main(["client", "health", "--connect", "127.0.0.1:1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_address_rejected(self):
        with pytest.raises(SystemExit, match="bad address"):
            main(["client", "health", "--connect", "host:notaport"])


@pytest.mark.slow
class TestServeClientSubprocess:
    """Full loop through real processes: serve, client verbs, SIGTERM."""

    def _spawn_server(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0", "--shards", "2", *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        line = proc.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        assert match, f"no listen line: {line!r}"
        return proc, int(match.group(1)), env

    def _client(self, env, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "client", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_round_trip_and_graceful_sigterm(self, tmp_path):
        proc, port, env = self._spawn_server()
        try:
            data = np.cumsum(
                np.random.default_rng(5).normal(size=3000)
            ).astype(np.float32)
            raw = tmp_path / "in.f32"
            data.tofile(raw)
            stream_path = tmp_path / "out.szx"
            recon_path = tmp_path / "out.f32"

            r = self._client(
                env, "compress", str(raw), "-o", str(stream_path),
                "--connect", f"127.0.0.1:{port}", "-e", "1e-3",
            )
            assert r.returncode == 0, r.stdout + r.stderr
            assert "cache miss" in r.stdout

            r = self._client(
                env, "decompress", str(stream_path), "-o", str(recon_path),
                "--connect", f"127.0.0.1:{port}",
            )
            assert r.returncode == 0, r.stdout + r.stderr
            back = np.fromfile(recon_path, dtype=np.float32)
            assert np.abs(back - data).max() <= 1e-3 + 1e-12

            r = self._client(
                env, "stats", "--connect", f"127.0.0.1:{port}"
            )
            assert r.returncode == 0
            stats = json.loads(r.stdout)
            assert stats["health"]["status"] == "ok"
            assert stats["shards"]["n_shards"] == 2
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out

    def test_top_and_trace_against_live_server(self, tmp_path):
        proc, port, env = self._spawn_server("--metrics")
        try:
            data = np.cumsum(
                np.random.default_rng(7).normal(size=2000)
            ).astype(np.float32)
            raw = tmp_path / "in.f32"
            data.tofile(raw)
            r = self._client(
                env, "compress", str(raw), "-o", str(tmp_path / "out.szx"),
                "--connect", f"127.0.0.1:{port}", "-e", "1e-3",
            )
            assert r.returncode == 0, r.stdout + r.stderr

            def szx(*args):
                return subprocess.run(
                    [sys.executable, "-m", "repro.cli", *args],
                    env=env, capture_output=True, text=True, timeout=60,
                )

            r = szx("top", "--connect", f"127.0.0.1:{port}", "--once")
            assert r.returncode == 0, r.stdout + r.stderr
            assert "status ok" in r.stdout
            assert "HEALTHY" in r.stdout
            assert "availability" in r.stdout

            r = szx("trace", "--list", "--connect", f"127.0.0.1:{port}")
            assert r.returncode == 0, r.stdout + r.stderr
            rid = r.stdout.split()[0]
            assert len(rid) == 16

            r = szx("trace", rid, "--connect", f"127.0.0.1:{port}")
            assert r.returncode == 0, r.stdout + r.stderr
            assert f"request {rid}" in r.stdout
            assert "kernel" in r.stdout

            r = szx("trace", "ffff000011112222",
                    "--connect", f"127.0.0.1:{port}")
            assert r.returncode == 1
            assert "no timeline" in r.stdout
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out

    def test_top_connection_refused_is_diagnostic(self):
        from repro.cli import main as climain

        assert climain(["top", "--connect", "127.0.0.1:1", "--once"]) == 2
        assert climain(["trace", "deadbeefdeadbeef",
                        "--connect", "127.0.0.1:1"]) == 2
