"""End-to-end tests for ``szx metrics``."""

import json

import numpy as np
import pytest

from repro.cli import main


class TestMetricsCommand:
    @pytest.fixture()
    def stream_file(self, tmp_path):
        data = np.linspace(0, 1, 8192, dtype=np.float32)
        raw = tmp_path / "f.f32"
        szx = tmp_path / "f.szx"
        data.tofile(raw)
        assert main(["compress", str(raw), "-o", str(szx), "-e", "1e-3"]) == 0
        return szx

    def test_prometheus_output_from_stream(self, stream_file, capsys):
        rc = main(["metrics", str(stream_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "szx_stream_bytes_total" in out
        assert "# TYPE" in out
        # Valid exposition: every sample line is `name[{labels}] value`.
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            _, value = line.rsplit(" ", 1)
            float(value)

    def test_prometheus_to_file(self, stream_file, tmp_path):
        out = tmp_path / "metrics.prom"
        rc = main(["metrics", str(stream_file), "-o", str(out)])
        assert rc == 0
        assert "szx_stream" in out.read_text()

    def test_jsonl_event(self, stream_file, tmp_path):
        out = tmp_path / "events.jsonl"
        rc = main([
            "metrics", str(stream_file), "--format", "jsonl", "-o", str(out),
        ])
        assert rc == 0
        (event,) = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert event["counters"]["szx.stream.bytes"] > 0

    def test_jsonl_requires_output(self, stream_file):
        with pytest.raises(SystemExit):
            main(["metrics", str(stream_file), "--format", "jsonl"])

    def test_no_input_renders_current_registry(self, capsys):
        rc = main(["metrics"])
        assert rc == 0  # may be empty, must not crash
