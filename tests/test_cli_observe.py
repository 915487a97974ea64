"""CLI observability surface: --trace, --trace-json, and `szx stats`."""

import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def field_file(tmp_path):
    rng = np.random.default_rng(11)
    data = np.cumsum(rng.normal(size=5000)).astype(np.float32)
    path = tmp_path / "field.f32"
    data.tofile(path)
    return path, data


@pytest.fixture()
def szx_file(field_file, tmp_path):
    path, data = field_file
    szx = tmp_path / "field.szx"
    assert main(["compress", str(path), "-o", str(szx), "-e", "1e-3"]) == 0
    return szx, data


class TestTrace:
    def test_compress_trace_prints_span_tree(self, field_file, tmp_path, capsys):
        path, _ = field_file
        szx = tmp_path / "out.szx"
        assert main([
            "compress", str(path), "-o", str(szx), "-e", "1e-3", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "szx.compress" in out
        assert "resolve_bound" in out
        assert "encode_blocks" in out
        assert "ms" in out  # per-stage wall time
        assert "->" in out  # bytes in -> bytes out

    def test_decompress_trace(self, szx_file, tmp_path, capsys):
        szx, _ = szx_file
        out_path = tmp_path / "recon.f32"
        assert main([
            "decompress", str(szx), "-o", str(out_path), "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "szx.decompress" in out
        assert "szx.parse" in out

    def test_trace_json_writes_jsonl(self, field_file, tmp_path):
        path, data = field_file
        szx = tmp_path / "out.szx"
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "compress", str(path), "-o", str(szx), "-e", "1e-3",
            "--trace-json", str(trace_path),
        ]) == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines
        roots = [json.loads(l) for l in lines]
        top = next(r for r in roots if r["name"] == "szx.compress")
        assert top["bytes_in"] == data.nbytes
        assert top["bytes_out"] == szx.stat().st_size
        names = {c["name"] for c in top["children"]}
        assert {"resolve_bound", "encode_blocks", "szx.assemble"} <= names

    def test_no_trace_flag_prints_no_tree(self, field_file, tmp_path, capsys):
        path, _ = field_file
        szx = tmp_path / "out.szx"
        assert main(["compress", str(path), "-o", str(szx), "-e", "1e-3"]) == 0
        assert "szx.compress" not in capsys.readouterr().out


class TestStats:
    def test_stats_without_input_dumps_empty_registry(self, capsys):
        assert main(["stats"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) == {"counters", "gauges", "histograms", "spans"}

    def test_stats_on_stream(self, szx_file, capsys):
        szx, data = szx_file
        assert main(["stats", str(szx)]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["szx.stream.bytes"] == szx.stat().st_size
        assert snap["counters"]["szx.decode.blocks.nonconstant"] >= 1
        assert 0.0 <= snap["gauges"]["szx.stream.const_block_ratio"] <= 1.0
        req = snap["histograms"]["szx.stream.reqbits"]
        assert req["count"] >= 1
        assert 0 <= req["min"] <= req["max"] <= 8 * data.dtype.itemsize
        # decode spans are captured alongside the metrics
        assert any(s["name"] == "szx.decompress" for s in snap["spans"])

    def test_stats_output_file(self, szx_file, tmp_path, capsys):
        szx, _ = szx_file
        out = tmp_path / "stats.json"
        assert main(["stats", str(szx), "-o", str(out)]) == 0
        assert "stats written" in capsys.readouterr().out
        snap = json.loads(out.read_text())
        assert snap["counters"]["szx.stream.bytes"] == szx.stat().st_size

    def test_stats_bad_stream_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.szx"
        bad.write_bytes(b"\x00" * 32)
        assert main(["stats", str(bad)]) != 0

    def test_stats_leaves_tracing_disabled(self, szx_file):
        from repro import observe

        szx, _ = szx_file
        assert main(["stats", str(szx)]) == 0
        assert not observe.enabled()


class TestTracingLeakage:
    def test_commands_restore_disabled_state(self, field_file, tmp_path):
        from repro import observe

        path, _ = field_file
        szx = tmp_path / "out.szx"
        assert main([
            "compress", str(path), "-o", str(szx), "-e", "1e-3", "--trace",
        ]) == 0
        assert not observe.enabled()
