#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload field-64m --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh Python process (``perfbench.worker``).
With ``--trace 0`` the result line carries the end-to-end metrics of
``BENCHMARK.json``; ``setup_s`` is the median over the measured process
and set-up-only probe processes, half of them started before it and half
after.  With ``--trace 1`` it carries the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the environment fingerprint and input sizes, is written under
``.bench_out/``.  The exit code is 0 only when every output was correct.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Set-up-only processes around the measured one, for a median setup_s.
#: Set-up is mostly imports, whose time varies by ~1.5x from process to
#: process on a shared machine, so it takes many samples.
PROBES = 16
#: Wall budget of one workload, probes included.
BUDGET_S = 170.0


class RunError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for what the worker left in its process group (pool
    processes, the shared-memory resource tracker) to end; kill it after
    *grace_s*."""
    deadline = time.monotonic() + grace_s
    sig = 0
    while True:
        try:
            os.killpg(pgid, sig)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                return
            sig, deadline = signal.SIGKILL, time.monotonic() + grace_s
        time.sleep(0.02)


def _worker(argv: list, timeout: float, log) -> dict:
    """Run ``perfbench.worker`` with *argv*; its parsed last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=log, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker {argv[:2]} timed out after {timeout:.0f}s")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RunError(f"worker {argv[:2]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"worker {argv[:2]} printed no result")
    return json.loads(lines[-1])


def run_workload(args, spec: dict) -> dict:
    """Run one workload; returns the result object (plus the record)."""
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scale", args.scale]
    main_argv = base + ["--trace", str(args.trace)]
    if args.inject:
        main_argv += ["--inject", args.inject]
    if args.trace:
        main_argv += ["--spans-out", stem + "-spans.json"]
    probes = 0 if args.trace else PROBES
    with open(stem + ".log", "w") as log:

        def probe():
            left = deadline - time.monotonic()
            return _worker(base + ["--probe"], left, log)["setup_s"] if left > 15 else None

        setups = [probe() for _ in range(probes // 2)]
        record = _worker(main_argv, deadline - time.monotonic(), log)
        setups.append(record["setup_s"])
        setups += [probe() for _ in range(probes - probes // 2)]
    setups = [s for s in setups if s is not None]
    record["setup_samples_s"] = setups

    group = "per_layer" if args.trace else "end_to_end"
    values = dict(record["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    metrics, missing = {}, []
    for m in spec[group]:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    gate = record["gate"]
    problems = list(gate["problems"])
    if args.trace:
        record["not_exercised"] = missing
    elif missing:
        problems.append(f"metrics not produced: {missing}")
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        problems.append(f"metrics not finite: {bad}")
    record["problems"] = problems
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": not problems and gate["failed"] == 0,
        "attempted": int(gate["attempted"]),
        "failed": int(gate["failed"]),
        "metrics": metrics,
        "problems": problems,
    }


def _print_table(name: str, result: dict) -> None:
    print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"{metric:42s} {m['value']:14.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"! {problem}")


def main(argv=None) -> int:
    spec = _spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input (self-test only)")
    p.add_argument("--inject", choices=("flip", "oob"),
                   help="corrupt one output to prove the gate catches it")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found next to perfbench/", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args, spec)
        except (RunError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        _print_table(name, results[name])

    if len(results) == 1:
        final = next(iter(results.values()))
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
