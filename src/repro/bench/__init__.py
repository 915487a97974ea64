"""Benchmark harness: timing, paper-style tables, result capture."""

from .timing import (
    measure_throughput_mb_s,
    stage_breakdown,
    time_call,
    time_repeats,
    write_stage_json,
)
from .tables import format_table, format_series
from .results import RESULTS_DIR, save_json, save_result, save_rows
from .serve_load import format_serve_report, run_serve_load
from .net_load import format_net_report, run_net_load

__all__ = [
    "measure_throughput_mb_s",
    "time_call",
    "time_repeats",
    "stage_breakdown",
    "write_stage_json",
    "format_table",
    "format_series",
    "RESULTS_DIR",
    "save_result",
    "save_json",
    "save_rows",
    "run_serve_load",
    "format_serve_report",
    "run_net_load",
    "format_net_report",
]
