"""Synthetic open-loop load driver for the compression service.

``szx serve-bench`` runs this: a seeded fleet of small compression jobs
is thrown at a :class:`repro.serve.CompressionService` twice — once
with micro-batching, once with one-engine-call-per-job on the same
pool — and the latency/throughput numbers are compared.  A third phase
bursts jobs at a deliberately tiny queue to demonstrate that overload
fails fast with ``ServiceOverloadedError`` instead of growing memory.

The report is a plain JSON-ready dict (the CI stress-smoke job uploads
it as an artifact); :func:`format_serve_report` renders the human
summary.
"""

from __future__ import annotations

import time

import numpy as np

from .. import observe
from ..codec import CodecConfig
from ..core.constants import DEFAULT_BLOCK_SIZE
from ..serve import CompressionService, ServiceOverloadedError


def _make_jobs(n_jobs: int, values_per_job: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.normal(size=values_per_job)).astype(np.float32)
        for _ in range(n_jobs)
    ]


def _percentiles(latencies: list[float]) -> dict:
    """Latency summary via :class:`repro.observe.Histogram` quantiles."""
    if not latencies:
        return {}
    hist = observe.Histogram("serve_load.latency_s")
    hist.observe_many(latencies)
    return {
        "p50_ms": hist.quantile(0.5) * 1e3,
        "p95_ms": hist.quantile(0.95) * 1e3,
        "p99_ms": hist.quantile(0.99) * 1e3,
        "mean_ms": hist.mean * 1e3,
        "max_ms": hist.max * 1e3,
    }


def _run_phase(
    fields: list[np.ndarray],
    cfg: CodecConfig,
    *,
    batching: bool,
    workers: int,
    backend: str,
    queue_capacity: int,
    rate_jobs_s: float,
    warmup: int = 0,
) -> dict:
    """Submit every field open-loop, wait for all, summarize.

    The first *warmup* submissions (cycling over *fields*) run before
    the clock starts and are excluded from every reported number — they
    exist to fault in worker threads, fork process pools, and JIT numpy
    caches so the p99 reflects steady state, not cold start.
    """
    done_at: list = [None] * len(fields)
    submitted_at: list = [None] * len(fields)
    interarrival = 1.0 / rate_jobs_s if rate_jobs_s > 0 else 0.0

    with CompressionService(
        workers=workers,
        backend=backend,
        queue_capacity=queue_capacity,
        overflow="block",
        submit_timeout_s=None,
        batching=batching,
    ) as svc:
        if warmup > 0:
            warm_futs = [
                svc.submit_compress(fields[i % len(fields)], cfg)
                for i in range(warmup)
            ]
            for fut in warm_futs:
                fut.result()
        t_start = time.monotonic()
        futures = []
        for i, field in enumerate(fields):
            if interarrival:
                pace = t_start + i * interarrival - time.monotonic()
                if pace > 0:
                    time.sleep(pace)
            submitted_at[i] = time.monotonic()

            def _stamp(fut, i=i):
                done_at[i] = time.monotonic()

            fut = svc.submit_compress(field, cfg)
            fut.add_done_callback(_stamp)
            futures.append(fut)
        streams = [f.result() for f in futures]
        t_end = time.monotonic()
        stats = svc.stats()

    makespan = t_end - t_start
    bytes_in = sum(int(f.nbytes) for f in fields)
    latencies = [d - s for s, d in zip(submitted_at, done_at)]
    return {
        "batching": batching,
        "jobs": len(fields),
        "warmup": warmup,
        "makespan_s": makespan,
        "jobs_per_s": len(fields) / makespan if makespan > 0 else float("inf"),
        "mb_per_s": bytes_in / 1e6 / makespan if makespan > 0 else float("inf"),
        "bytes_in": bytes_in,
        "bytes_out": sum(len(s) for s in streams),
        "latency": _percentiles(latencies),
        "service": stats,
    }


def _run_overload(
    cfg: CodecConfig,
    *,
    workers: int,
    burst: int,
    queue_capacity: int,
    values_per_job: int,
    seed: int,
    warmup: int = 0,
) -> dict:
    """Burst-submit against a tiny queue; count fast rejections.

    Warmup jobs run one at a time (each awaited) so they can never trip
    the deliberately tiny reject queue; they only warm the pool.
    """
    fields = _make_jobs(burst, values_per_job, seed + 1)
    rejected = 0
    futures = []
    with CompressionService(
        workers=workers,
        queue_capacity=queue_capacity,
        overflow="reject",
        batching=True,
        batch_max_jobs=8,
    ) as svc:
        for i in range(warmup):
            svc.submit_compress(fields[i % len(fields)], cfg).result()
        for field in fields:
            try:
                futures.append(svc.submit_compress(field, cfg))
            except ServiceOverloadedError:
                rejected += 1
        served = 0
        for fut in futures:
            try:
                fut.result()
                served += 1
            except Exception:
                pass
        stats = svc.stats()
    return {
        "burst": burst,
        "queue_capacity": queue_capacity,
        "warmup": warmup,
        "rejected": rejected,
        "served": served,
        "fail_fast": rejected > 0,
        "service": stats,
    }


def run_serve_load(
    *,
    jobs: int = 400,
    values_per_job: int = 256,
    err_bound: float = 1e-3,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int = 4,
    backend: str = "thread",
    queue_capacity: int = 512,
    rate_jobs_s: float = 0.0,
    seed: int = 0,
    warmup: int = 0,
    overload_burst: int = 256,
    overload_capacity: int = 4,
    overload_values: int = 65536,
) -> dict:
    """Run the batched/unbatched/overload phases; return the report.

    *warmup* jobs per phase run before the clock starts and are
    excluded from latency quantiles and throughput (see
    :func:`_run_phase`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    cfg = CodecConfig(err_bound=err_bound, block_size=block_size)
    fields = _make_jobs(jobs, values_per_job, seed)
    phase_kw = dict(
        workers=workers,
        backend=backend,
        queue_capacity=queue_capacity,
        rate_jobs_s=rate_jobs_s,
        warmup=warmup,
    )
    batched = _run_phase(fields, cfg, batching=True, **phase_kw)
    unbatched = _run_phase(fields, cfg, batching=False, **phase_kw)
    overload = _run_overload(
        cfg,
        workers=workers,
        burst=overload_burst,
        queue_capacity=overload_capacity,
        values_per_job=overload_values,
        seed=seed,
        warmup=warmup,
    )
    report = {
        "config": {
            "jobs": jobs,
            "values_per_job": values_per_job,
            "err_bound": err_bound,
            "block_size": block_size,
            "workers": workers,
            "backend": backend,
            "queue_capacity": queue_capacity,
            "rate_jobs_s": rate_jobs_s,
            "seed": seed,
            "warmup": warmup,
        },
        "batched": batched,
        "unbatched": unbatched,
        "batching_speedup": (
            unbatched["makespan_s"] / batched["makespan_s"]
            if batched["makespan_s"] > 0 else float("inf")
        ),
        "overload": overload,
    }
    if observe.enabled():
        snapshot = observe.metrics_snapshot()
        report["metrics"] = {
            "gauges": {
                k: v for k, v in snapshot["gauges"].items()
                if k.startswith("serve.")
            },
            "counters": {
                k: v for k, v in snapshot["counters"].items()
                if k.startswith("serve.")
            },
            "histograms": {
                k: v for k, v in snapshot["histograms"].items()
                if k.startswith("serve.")
            },
        }
    return report


def format_serve_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_serve_load` report."""
    lines = []
    c = report["config"]
    lines.append(
        f"serve-bench: {c['jobs']} jobs x {c['values_per_job']} values, "
        f"{c['workers']} {c.get('backend', 'thread')} worker(s), "
        f"queue {c['queue_capacity']}"
        + (f", warmup {c['warmup']}" if c.get("warmup") else "")
    )
    for key in ("batched", "unbatched"):
        p = report[key]
        lat = p["latency"]
        lines.append(
            f"  {key:<9}: {p['jobs_per_s']:>9.0f} jobs/s  "
            f"{p['mb_per_s']:>7.1f} MB/s  "
            f"p50 {lat['p50_ms']:.2f} ms  p95 {lat['p95_ms']:.2f} ms  "
            f"p99 {lat['p99_ms']:.2f} ms  "
            f"(batches: {p['service']['batches']})"
        )
    lines.append(f"  batching speedup: {report['batching_speedup']:.2f}x")
    o = report["overload"]
    lines.append(
        f"  overload: burst {o['burst']} into queue {o['queue_capacity']} -> "
        f"{o['rejected']} rejected fast, {o['served']} served "
        f"({'fail-fast OK' if o['fail_fast'] else 'NO rejections'})"
    )
    return "\n".join(lines)
