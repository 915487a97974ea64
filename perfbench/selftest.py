#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at tiny sizes through ``perfbench/run.py`` and checks
that

* a clean run exits 0 with zero failures and reports every metric of
  ``BENCHMARK.json`` with its unit (end-to-end untraced, per-layer
  traced), and the process-backend metrics only in the traced run;
* the layers each workload exercises report non-zero per-layer numbers;
* a flipped stream byte and an out-of-bound reconstruction each make the
  correctness gate fail, with a non-zero exit code;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command fails without printing a result.

Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Per-layer metrics that must be non-zero where the workload exercises
#: their layer.
EXERCISED = {
    "field-64m": ("codec.compress_self_s", "core.kernels.encode_blocks_s",
                  "core.kernels.decode_blocks_s", "core.kernels.compress_blocks_s",
                  "core.stream.parse_s", "core.kernels.blocks",
                  "parallel.omp.compress_s", "parallel.procpool.compress_s",
                  "observe.trace_overhead_ratio"),
    "apps-small": ("core.api.resolve_bound_s", "core.kernels.block_stats_s",
                   "core.kernels.broadcast_const_s", "core.kernels.const_blocks",
                   "parallel.omp.decompress_speedup",
                   "parallel.procpool.decompress_s"),
    "serve-mixed": ("net.execute_ms", "net.read_ms", "serve.served",
                    "serve.kernel_ms_p50", "net.cache.lookups",
                    "net.cache.evictions", "net.protocol.encode_frame_us",
                    "core.kernels.encode_blocks_s", "net.unattributed_ms",
                    "net.decompress_tail_ms", "core.stream.parse_s"),
}

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def tiny(workload, *extra):
    return ["--workload", workload, "--seed", "7", "--seconds", "2",
            "--scale", "tiny", *extra]


def check_metrics(label, result, declared) -> None:
    got = result["metrics"]
    check(set(got) == {m["name"] for m in declared},
          f"{label}: exactly the declared metrics")
    check(all(got[m["name"]]["unit"] == m["unit"] for m in declared if m["name"] in got),
          f"{label}: declared units")
    check(all(math.isfinite(v["value"]) for v in got.values()),
          f"{label}: finite values")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    keys = {"correct", "attempted", "failed", "metrics"}
    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(EXERCISED), "every workload has a layer check")
    for w in workloads:
        rc, res = run(tiny(w, "--trace", "0"))
        check(rc == 0 and res is not None and set(res) == keys,
              f"{w}: clean run exits 0 with a result line")
        if res is None:
            continue
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{w}: clean run has zero failures")
        check_metrics(f"{w} untraced", res, spec["end_to_end"])
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              f"{w}: end-to-end metrics are positive")
        check(not any(k.startswith("parallel.procpool") for k in res["metrics"]),
              f"{w}: no process-backend metrics untraced")

        rc, res = run(tiny(w, "--trace", "1"))
        check(rc == 0 and res is not None and res["failed"] == 0,
              f"{w}: traced run exits 0 with zero failures")
        if res is None:
            continue
        check_metrics(f"{w} traced", res, spec["per_layer"])
        zero = [n for n in EXERCISED[w] if not res["metrics"][n]["value"] > 0]
        check(not zero, f"{w}: exercised layers report non-zero {zero or ''}")

        for fault in ("flip", "oob"):
            rc, res = run(tiny(w, "--trace", "0", "--inject", fault))
            check(rc != 0 and res is not None and not res["correct"]
                  and res["failed"] > 0,
                  f"{w}: injected {fault} fails the gate")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, res = run(tiny("field-64m"), cwd=bare)
    check(rc != 0 and res is None, "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
