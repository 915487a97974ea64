"""Tests for the benchmark harness (timing, tables, result capture)."""

import pytest

from repro.bench import (
    format_series,
    format_table,
    measure_throughput_mb_s,
    save_result,
    time_call,
)


class TestTiming:
    def test_time_call_returns_result(self):
        best, result = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert best >= 0

    def test_throughput_positive(self):
        mb_s, _ = measure_throughput_mb_s(lambda: sum(range(1000)), 10_000_000)
        assert mb_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure_throughput_mb_s(lambda: None, 0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [("row1", 1.0, 22.5), ("r2", 3, None)])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n/a" in lines[-1]
        assert len({len(l) for l in lines[2:]}) == 1  # aligned rows

    def test_format_series(self):
        text = format_series("F", "x", [1, 2], {"s1": [10, 20], "s2": [1, 2]})
        assert "x=1" in text and "s2" in text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("F", "x", [1, 2], {"s": [1]})


class TestResults:
    def test_save_result(self, tmp_path, monkeypatch):
        import repro.bench.results as results

        monkeypatch.setattr(results, "RESULTS_DIR", tmp_path)
        path = results.save_result("unit", "hello")
        assert path.read_text() == "hello\n"


class TestTimeRepeats:
    def test_returns_all_times(self):
        from repro.bench import time_repeats

        times, result = time_repeats(lambda x: x + 1, 1, repeats=4)
        assert result == 2
        assert len(times) == 4
        assert all(t >= 0 for t in times)

    def test_validation(self):
        from repro.bench import time_repeats

        with pytest.raises(ValueError):
            time_repeats(lambda: None, repeats=0)


class TestJsonResults:
    def test_save_json(self, tmp_path, monkeypatch):
        import json

        import repro.bench.results as results

        monkeypatch.setattr(results, "RESULTS_DIR", tmp_path)
        path = results.save_json("unit", {"b": 1, "a": [1, 2]})
        assert path == tmp_path / "unit.json"
        assert json.loads(path.read_text()) == {"a": [1, 2], "b": 1}

    def test_save_rows_writes_both_siblings(self, tmp_path, monkeypatch):
        import json

        import repro.bench.results as results

        monkeypatch.setattr(results, "RESULTS_DIR", tmp_path)
        results.save_rows(
            "t", "Title", ["c1", "c2"],
            [("r1", 1.0, 2.0), ("r2", 3.0, None)],
            meta={"unit": "MB/s"},
        )
        text = (tmp_path / "t.txt").read_text()
        assert "Title" in text and "n/a" in text
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["columns"] == ["c1", "c2"]
        assert doc["rows"][0] == {"label": "r1", "values": [1.0, 2.0]}
        assert doc["rows"][1]["values"] == [3.0, None]
        assert doc["meta"] == {"unit": "MB/s"}


class TestStageBreakdown:
    def test_spans_and_meta_written(self, tmp_path):
        import json

        from repro.bench import stage_breakdown, write_stage_json
        from repro.codec import CodecConfig, SZxCodec

        import numpy as np

        codec = SZxCodec(CodecConfig(err_bound=1e-3))
        data = np.linspace(0, 1, 1 << 16, dtype=np.float32)
        result, spans = stage_breakdown(codec.compress, data)
        assert result == codec.compress(data)
        assert spans and all("name" in s for s in spans)
        path = write_stage_json(tmp_path / "s.json", spans, meta={"k": "v"})
        doc = json.loads(path.read_text())
        assert doc == {"meta": {"k": "v"}, "spans": spans}

    def test_untraced_callable_has_no_spans(self):
        from repro.bench import stage_breakdown

        result, spans = stage_breakdown(lambda: 42)
        assert result == 42
        assert spans == []
