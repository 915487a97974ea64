"""Multi-client open-loop load driver for the network front door.

``szx net-bench`` runs this: an in-process :class:`repro.net.NetServer`
is started (or an external ``--connect host:port`` server is targeted),
then a fleet of concurrent :class:`repro.net.NetClient` connections
drives two phases over the wire:

* **cold** — every chunk is unique, so every request runs the full
  shard → service → kernel path;
* **dup** — the *same* chunk set again (100 % duplicates), so every
  request should be answered from the content-addressed cache without
  touching a kernel.

The report carries per-phase p50/p95/p99 client-observed latency
(warmup samples excluded), throughput, the protocol error count (the
CI net-smoke job asserts it is zero) and the cache speedup ``dup`` vs
``cold``.  The CI net-smoke job gates the cold phase's throughput and
latency quantiles run-to-run from two saved reports.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from .. import observe
from ..core.constants import DEFAULT_BLOCK_SIZE
from ..net import NetClient, NetServer, RemoteError


#: Passes over the chunk set in the all-hit ``dup`` phase.  One pass of
#: cache hits takes ~15-25 ms, as short as a host scheduling hiccup, so
#: a single pass let one hiccup halve the cold/dup ratio; the median of
#: several passes does not move with one.
DUP_PASSES = 5


def _make_chunks(n_chunks: int, values_per_chunk: int,
                 seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.normal(size=values_per_chunk)).astype(np.float32)
        for _ in range(n_chunks)
    ]


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {}
    hist = observe.Histogram("net_load.latency_s")
    hist.observe_many(latencies)
    return {
        "p50_ms": hist.quantile(0.5) * 1e3,
        "p95_ms": hist.quantile(0.95) * 1e3,
        "p99_ms": hist.quantile(0.99) * 1e3,
        "mean_ms": hist.mean * 1e3,
        "max_ms": hist.max * 1e3,
    }


async def _connect(host, port, tenant, errors):
    """One client connection, or None with the failure in *errors*."""
    try:
        return await NetClient.connect(host, port, tenant=tenant)
    except OSError as exc:
        errors.append(f"connect: {exc}")
        return None


async def _client_loop(cli, chunks, indices, err_bound, results, errors):
    """One connected client working through its slice of the chunk list."""
    for idx in indices:
        t0 = time.monotonic()
        try:
            _, meta = await cli.compress(chunks[idx], err_bound=err_bound)
        except RemoteError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        results.append((time.monotonic() - t0, meta.get("cache", "miss")))


async def _drive(host, port, tenant, chunks, slices, err_bound,
                 results, errors, passes: int = 1) -> list[float]:
    """Run one client per slice *passes* times; return each pass's makespan.

    Connections open before the first clock starts and close after the
    last one stops, so a makespan times requests only: a handshake is a
    fixed cost that weighs several times more in the short all-hit
    ``dup`` phase than in ``cold``.
    """
    clis = await asyncio.gather(
        *(_connect(host, port, tenant, errors) for _ in slices)
    )
    clis = [cli for cli in clis if cli is not None]
    makespans = []
    try:
        for _ in range(passes):
            t0 = time.monotonic()
            await asyncio.gather(*(
                _client_loop(cli, chunks, sl, err_bound, results, errors)
                for cli, sl in zip(clis, slices)
            ))
            makespans.append(time.monotonic() - t0)
        return makespans
    finally:
        await asyncio.gather(*(cli.aclose() for cli in clis))


async def _run_phase_async(host, port, chunks, *, clients, err_bound,
                           warmup, tenant, warm_chunks=(), passes=1):
    """Fan the chunk list across *clients* concurrent connections.

    With ``passes > 1`` the chunk list is sent that many times and the
    phase reports the median pass; ``requests`` counts one pass.
    """
    # Warmup requests use *warm_chunks* — disjoint from the measured set
    # so they fault in connections and worker pools without pre-warming
    # the content cache for the cold phase — and are dropped from the
    # quantiles below.
    order = list(range(len(chunks)))
    slices = [order[i::clients] for i in range(clients)]
    results: list = []      # (latency_s, cache) in completion order
    errors: list = []
    if warmup > 0 and len(warm_chunks):
        warm_order = [i % len(warm_chunks) for i in range(warmup)]
        warm_slices = [warm_order[i::clients] for i in range(clients)]
        await _drive(host, port, tenant, warm_chunks, warm_slices,
                     err_bound, [], errors)
    makespans = await _drive(host, port, tenant, chunks, slices, err_bound,
                             results, errors, passes)
    makespan = float(np.median(makespans))
    requests = len(results) // passes
    latencies = [lat for lat, _ in results]
    hits = sum(1 for _, c in results if c == "hit")
    bytes_in = sum(int(chunks[i].nbytes) for i in order)
    return {
        "requests": requests,
        "warmup": warmup,
        "clients": clients,
        "passes": passes,
        "makespan_s": makespan,
        "requests_per_s": (
            requests / makespan if makespan > 0 else float("inf")
        ),
        "mb_per_s": bytes_in / 1e6 / makespan if makespan > 0 else float("inf"),
        "cache_hits": hits,
        "cache_hit_rate": hits / len(results) if results else 0.0,
        "latency": _percentiles(latencies),
        "errors": list(errors),
        "error_count": len(errors),
    }


async def _run_net_load_async(
    *,
    host,
    port,
    chunks,
    clients,
    err_bound,
    warmup,
    tenant,
    own_server,
    warm_chunks,
):
    cold = await _run_phase_async(
        host, port, chunks, clients=clients, err_bound=err_bound,
        warmup=warmup, tenant=tenant, warm_chunks=warm_chunks,
    )
    dup = await _run_phase_async(
        host, port, chunks, clients=clients, err_bound=err_bound,
        warmup=0, tenant=tenant, passes=DUP_PASSES,
    )
    stats = None
    try:
        async with await NetClient.connect(host, port) as cli:
            stats = await cli.stats()
    except (OSError, RemoteError):
        pass  # analyze: ignore[hygiene] - stats are best-effort decoration
    slo = own_server.slo.report() if own_server is not None else None
    if own_server is not None:
        await own_server.drain()
    return cold, dup, stats, slo


def run_net_load(
    *,
    chunks: int = 64,
    values_per_chunk: int = 4096,
    clients: int = 4,
    err_bound: float = 1e-3,
    block_size: int = DEFAULT_BLOCK_SIZE,
    shards: int = 2,
    workers_per_shard: int = 2,
    backend: str = "thread",
    warmup: int = 8,
    seed: int = 0,
    tenant: str | None = None,
    connect: tuple[str, int] | None = None,
    trace_chrome: str | None = None,
) -> dict:
    """Run the cold + duplicate phases; return the JSON-ready report.

    With ``connect=(host, port)`` an already-running server is driven;
    otherwise an in-process server is started and drained afterwards.
    With ``trace_chrome=PATH`` the whole run executes under tracing and
    the stitched spans are exported as a Chrome trace-event file; the
    report then carries a ``trace`` summary (span / trace / orphan
    counts — for an in-process server every request should stitch into
    one trace with zero orphans).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    fields = _make_chunks(chunks, values_per_chunk, seed)
    warm_fields = (
        _make_chunks(min(warmup, max(chunks, 1)), values_per_chunk,
                     seed + 10_000)
        if warmup > 0 else []
    )

    async def runner():
        if connect is not None:
            host, port = connect
            server = None
        else:
            server = await NetServer(
                shards=shards,
                workers_per_shard=workers_per_shard,
                backend=backend,
            ).start()
            host, port = server.host, server.port
        return await _run_net_load_async(
            host=host, port=port, chunks=fields, clients=clients,
            err_bound=err_bound, warmup=warmup, tenant=tenant,
            own_server=server, warm_chunks=warm_fields,
        )

    t0 = time.monotonic()
    trace_doc = None
    if trace_chrome:
        from ..observe.telemetry import write_chrome_trace

        with observe.trace() as sink:
            cold, dup, stats, slo = asyncio.run(runner())
        trace_doc = write_chrome_trace(trace_chrome, sink.spans)
        trace_doc["path"] = trace_chrome
    else:
        cold, dup, stats, slo = asyncio.run(runner())
    report = {
        "config": {
            "chunks": chunks,
            "values_per_chunk": values_per_chunk,
            "clients": clients,
            "err_bound": err_bound,
            "block_size": block_size,
            "shards": shards,
            "workers_per_shard": workers_per_shard,
            "backend": backend,
            "warmup": warmup,
            "seed": seed,
            "external_server": connect is not None,
        },
        "cold": cold,
        "dup": dup,
        "cache_speedup": (
            cold["makespan_s"] / dup["makespan_s"]
            if dup["makespan_s"] > 0 else float("inf")
        ),
        "protocol_errors": cold["error_count"] + dup["error_count"],
        "wall_s": time.monotonic() - t0,
    }
    if stats is not None:
        report["server_stats"] = stats
    if slo is not None:
        report["slo"] = slo
    if trace_doc is not None:
        report["trace"] = trace_doc
    return report


def format_net_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_net_load` report."""
    c = report["config"]
    lines = [
        f"net-bench: {c['chunks']} chunks x {c['values_per_chunk']} values, "
        f"{c['clients']} client(s), {c['shards']} shard(s) x "
        f"{c['workers_per_shard']} {c['backend']} worker(s), "
        f"warmup {c['warmup']}"
        + (" [external server]" if c["external_server"] else "")
    ]
    for key in ("cold", "dup"):
        p = report[key]
        lat = p["latency"]
        lines.append(
            f"  {key:<5}: {p['requests_per_s']:>8.0f} req/s  "
            f"{p['mb_per_s']:>7.1f} MB/s  "
            f"p50 {lat['p50_ms']:.2f} ms  p99 {lat['p99_ms']:.2f} ms  "
            f"cache {p['cache_hit_rate'] * 100:.0f}%"
        )
    lines.append(
        f"  cache speedup: {report['cache_speedup']:.2f}x  "
        f"protocol errors: {report['protocol_errors']}"
    )
    trace = report.get("trace")
    if trace is not None:
        lines.append(
            f"  trace: {trace['spans']} span(s) in {trace['traces']} "
            f"trace(s), {trace['orphans']} orphan(s) -> {trace['path']}"
        )
    return "\n".join(lines)
