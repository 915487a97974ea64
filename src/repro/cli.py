"""Command-line front end: compress / decompress / inspect SZx streams.

Mirrors the reference SZx artifact's usage on raw binary arrays::

    szx compress  data.f32 -o data.szx  --dtype f32 --shape 256,384,384 \\
                  -e 1e-3 --mode rel
    szx decompress data.szx -o recon.f32
    szx inspect   data.szx
    szx verify    data.szx
    szx validate  data.szx
    szx stats     data.szx
    szx metrics   data.szx
    szx fuzz      --seed 0 --iters 50
    szx lint      --format json -o lint.json
    szx serve-bench --jobs 400 --workers 4 --warmup 16 --report serve.json
    szx serve      --listen 0.0.0.0:8641 --shards 4 --workers 2
    szx client     compress data.f32 -o data.szx --connect host:8641 -e 1e-3
    szx net-bench  --clients 4 --chunks 64 --report net.json
    szx top       --connect host:8641 --interval 2
    szx trace     REQUEST_ID --connect host:8641
    szx assess    data.f32 recon.f32 --dtype f32 -e 1e-3
    szx bundle    a.szx b.szx -o fields.szxa --names a,b
    szx extract   fields.szxa a -o a.f32

``compress``/``decompress`` accept ``--trace`` (print the per-stage span
tree), ``--trace-json PATH`` (dump span trees as JSON lines),
``--workers`` and ``--backend``; ``stats`` decodes a stream under the
metrics registry and dumps it as JSON.

Commands that read compressed input exit with status 2 and a one-line
diagnostic on malformed streams (never a raw traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import observe
from .codec import CodecConfig, SZxCodec
from .core import parse_stream
from .core.api import resolve_error_bound_info
from .core.constants import DEFAULT_BLOCK_SIZE
from .core.errors import StreamFormatError
from .core.stream import payload_offsets

_DTYPES = {"f32": np.float32, "f64": np.float64}

#: Exit status for malformed compressed input (0=ok, 1=check failed).
EXIT_CORRUPT = 2


def _guard_format_errors(fn):
    """Turn StreamFormatError into a one-line message + exit status 2."""

    @functools.wraps(fn)
    def wrapper(args):
        try:
            return fn(args)
        except StreamFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CORRUPT

    return wrapper


def _parse_shape(text: str | None):
    if not text:
        return None
    try:
        shape = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise SystemExit(f"bad --shape {text!r}: expected e.g. 256,384,384")
    if any(s <= 0 for s in shape):
        raise SystemExit("--shape dimensions must be positive")
    return shape


def _codec_config(args, *, err_bound=None) -> CodecConfig:
    """One CodecConfig from CLI flags — the single kwargs plumbing point."""
    return CodecConfig(
        err_bound=err_bound,
        mode=getattr(args, "mode", "abs"),
        block_size=getattr(args, "block_size", DEFAULT_BLOCK_SIZE),
        checksum=getattr(args, "checksum", False),
        workers=getattr(args, "workers", 1),
        backend=getattr(args, "backend", "thread"),
    )


@contextlib.contextmanager
def _maybe_traced(args):
    """Enable tracing for a command when --trace/--trace-json was given;
    print the span tree (and dump the JSON lines) afterwards."""
    if not (getattr(args, "trace", False) or getattr(args, "trace_json", None)):
        yield
        return
    with observe.trace() as sink:
        yield
    for root in sink.spans:
        print(observe.render_tree(root))
    if getattr(args, "trace_json", None):
        with observe.JsonLinesSink(args.trace_json) as js:
            for root in sink.spans:
                js.emit(root)
        print(f"trace written to {args.trace_json}")


def _cmd_compress(args) -> int:
    dtype = _DTYPES[args.dtype]
    data = np.fromfile(args.input, dtype=dtype)
    shape = _parse_shape(args.shape)
    if shape is not None:
        expected = int(np.prod(shape))
        if expected != data.size:
            raise SystemExit(
                f"--shape {args.shape} needs {expected} values; "
                f"file holds {data.size}"
            )
        data = data.reshape(shape)
    codec = SZxCodec(_codec_config(args, err_bound=args.error_bound))
    with _maybe_traced(args):
        stream = codec.compress(data)
    resolution = resolve_error_bound_info(data, args.error_bound, args.mode)
    if resolution.note:
        print(f"note: {resolution.note}", file=sys.stderr)
    with open(args.output, "wb") as fh:
        fh.write(stream)
    ratio = data.nbytes / len(stream)
    print(
        f"{args.input}: {data.nbytes:,} -> {len(stream):,} bytes "
        f"(CR {ratio:.2f}, abs bound {resolution.abs_bound:g}) "
        f"-> {args.output}"
    )
    return 0


@_guard_format_errors
def _cmd_decompress(args) -> int:
    from .containers import container_kind, decompress_any

    with open(args.input, "rb") as fh:
        stream = fh.read()
    kind = container_kind(stream)
    with _maybe_traced(args):
        if kind == "szx":
            recon = SZxCodec(_codec_config(args)).decompress(stream)
        else:
            recon = decompress_any(stream)
    recon.tofile(args.output)
    print(
        f"{args.input} ({kind}): reconstructed {recon.size:,} values "
        f"-> {args.output}"
    )
    return 0


@_guard_format_errors
def _cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    comp = parse_stream(stream)
    h = comp.header
    const_pct = 100 * h.n_const / h.n_blocks if h.n_blocks else 0.0
    print(f"file          : {args.input}")
    print(f"dtype         : {h.traits.dtype}")
    print(f"values        : {h.n:,}")
    print(f"shape         : {h.shape or '(flat)'}")
    print(f"block size    : {h.block_size}")
    bound_note = ""
    if h.n_blocks and h.n_const == h.n_blocks:
        # All-constant streams are the REL-degradation case the header
        # cannot distinguish: the reconstruction error is exactly 0
        # whatever bound is recorded.
        bound_note = "; all blocks constant, max reconstruction error 0"
    print(f"error bound   : {h.err_bound:g} (absolute, as applied{bound_note})")
    print(f"blocks        : {h.n_blocks:,} ({h.n_const:,} constant, {const_pct:.1f}%)")
    print(f"payload bytes : {len(comp.payload):,}")
    raw = h.n * h.traits.itemsize
    if len(stream):
        print(f"ratio         : {raw / len(stream):.2f}")
    return 0


def _cmd_verify(args) -> int:
    from .core.verify import verify_stream

    with open(args.input, "rb") as fh:
        report = verify_stream(fh.read())
    if report.ok:
        print(
            f"{args.input}: OK ({report.n_blocks:,} blocks, "
            f"{report.n_const:,} constant, {report.payload_bytes:,} payload bytes)"
        )
        return 0
    print(f"{args.input}: CORRUPT — {len(report.errors)} problem(s)")
    for err in report.errors[:20]:
        print(f"  - {err}")
    return 1


def _cmd_validate(args) -> int:
    """Hardened end-to-end validation of one SZx stream file.

    Runs the strict parse (all section/payload invariants plus the CRC32
    footer when present), a full decode through the production engine,
    and the structural ``verify_stream`` walk, reporting every problem
    found.  Exit 0 = valid, 1 = corrupt.
    """
    from .core.verify import verify_stream

    with open(args.input, "rb") as fh:
        stream = fh.read()

    problems = []
    comp = None
    try:
        comp = parse_stream(stream)
    except StreamFormatError as exc:
        problems.append(f"parse: {exc}")
    except Exception as exc:  # noqa: BLE001 - escaping raw error is itself a bug
        problems.append(f"parse: unexpected {type(exc).__name__}: {exc}")

    if comp is not None:
        try:
            recon = SZxCodec(_codec_config(args)).decompress(stream)
            print(
                f"decode        : ok ({recon.size:,} values, {recon.dtype})"
            )
        except StreamFormatError as exc:
            problems.append(f"decode: {exc}")
        except Exception as exc:  # noqa: BLE001
            problems.append(f"decode: unexpected {type(exc).__name__}: {exc}")

    report = verify_stream(stream)
    for err in report.errors:
        problems.append(f"verify: {err}")

    if not problems:
        h = comp.header
        print(
            f"{args.input}: VALID ({h.n:,} values, {h.n_blocks:,} blocks, "
            f"{'with' if h.flags & 0x01 else 'no'} checksum footer)"
        )
        return 0
    print(f"{args.input}: INVALID — {len(problems)} problem(s)")
    for p in problems[:20]:
        print(f"  - {p}")
    return 1


@_guard_format_errors
def _cmd_stats(args) -> int:
    """Dump the metrics registry as JSON.

    With an input stream, parses and fully decodes it under the metrics
    registry first, so the dump holds the decode-side counters plus the
    stream-derived statistics (constant-block ratio, required-bits
    distribution, per-stage span summaries).
    """
    observe.reset_metrics()
    sink = observe.InMemorySink()
    observe.enable(sink)
    try:
        if args.input:
            with open(args.input, "rb") as fh:
                stream = fh.read()
            comp = parse_stream(stream)
            h = comp.header
            if h.n_blocks:
                observe.gauge("szx.stream.const_block_ratio").set(
                    h.n_const / h.n_blocks
                )
            observe.counter("szx.stream.bytes").inc(len(stream))
            observe.counter("szx.stream.payload_bytes").inc(len(comp.payload))
            if comp.zsizes.size:
                # Required-bits distribution straight from the payload:
                # the first byte of every non-constant block is its R.
                offsets = payload_offsets(comp.zsizes)[:-1]
                payload_u8 = np.frombuffer(comp.payload, dtype=np.uint8)
                observe.histogram("szx.stream.reqbits").observe_many(
                    payload_u8[offsets]
                )
            SZxCodec(_codec_config(args)).decompress(stream)
        snapshot = observe.metrics_snapshot()
        snapshot["spans"] = sink.to_dicts()
    finally:
        observe.disable()
    text = json.dumps(snapshot, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"stats written to {args.output}")
    else:
        print(text)
    return 0


@_guard_format_errors
def _cmd_metrics(args) -> int:
    """Render the metrics registry as a Prometheus text exposition.

    With an input stream, parses and fully decodes it under the
    registry first (like ``szx stats``), so the exposition carries the
    decode-side counters and histograms; without one it renders
    whatever the process has already recorded.  ``--format jsonl``
    appends one structured event instead (the machine feed).
    """
    if args.input:
        observe.reset_metrics()
        observe.enable()
        try:
            with open(args.input, "rb") as fh:
                stream = fh.read()
            comp = parse_stream(stream)
            h = comp.header
            if h.n_blocks:
                observe.gauge("szx.stream.const_block_ratio").set(
                    h.n_const / h.n_blocks
                )
            observe.counter("szx.stream.bytes").inc(len(stream))
            SZxCodec(_codec_config(args)).decompress(stream)
        finally:
            observe.disable()
    if args.format == "jsonl":
        if not args.output:
            raise SystemExit("--format jsonl needs -o/--output (appends events)")
        with observe.MetricsJsonlWriter(args.output) as writer:
            writer.write_snapshot()
        print(f"metrics event appended to {args.output}")
        return 0
    text = observe.render_prometheus()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_fuzz(args) -> int:
    """Run the differential fuzz harness (repro.testing)."""
    from .testing import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        iters=args.iters,
        max_n=args.max_n,
        mutants_per_iter=args.mutants_per_iter,
        log=print if args.verbose else None,
    )
    print(report.summary())
    if not report.ok and not args.verbose:
        for failure in report.failures[:20]:
            print(f"  - {failure}")
    return 0 if report.ok else 1


def _cmd_lint(args) -> int:
    """Run the repro.analyze static-analysis ruleset over the tree."""
    import os

    from .analyze import BaselineVersionError, format_text, run, write_baseline
    from .analyze.runner import analyze_paths

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.write_baseline:
        findings, files = analyze_paths(paths)
        write_baseline(findings, args.baseline)
        print(
            f"baseline written to {args.baseline}: {len(findings)} finding(s) "
            f"from {files} file(s)"
        )
        return 0

    baseline_path = None if args.no_baseline else args.baseline
    try:
        report = run(paths, baseline_path=baseline_path)
    except BaselineVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = format_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(format_text(report).splitlines()[-1])
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if report.ok else 1


def _cmd_serve_bench(args) -> int:
    """Drive a synthetic open-loop load through the compression service.

    Runs the micro-batched and one-call-per-job phases on identical
    pools, plus an overload burst against a tiny queue, and prints the
    latency/throughput comparison.  Metrics are always collected (the
    report embeds the ``serve.*`` slice of the registry); ``--trace``
    additionally prints the span trees and ``--report`` writes the full
    JSON artifact (what the CI stress-smoke job uploads).
    """
    from .bench.serve_load import format_serve_report, run_serve_load

    observe.reset_metrics()
    kwargs = dict(
        jobs=args.jobs,
        values_per_job=args.values,
        err_bound=args.error_bound,
        block_size=args.block_size,
        workers=args.workers,
        backend=getattr(args, "backend", "thread"),
        queue_capacity=args.queue_capacity,
        rate_jobs_s=args.rate,
        seed=args.seed,
        warmup=args.warmup,
        overload_burst=args.overload_burst,
    )
    if getattr(args, "trace", False) or getattr(args, "trace_json", None):
        with _maybe_traced(args):
            report = run_serve_load(**kwargs)
    else:
        observe.enable()
        try:
            report = run_serve_load(**kwargs)
        finally:
            observe.disable()
    print(format_serve_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0


def _parse_hostport(text: str, *, default_port: int = 8641) -> tuple[str, int]:
    """Parse ``HOST[:PORT]`` (``:PORT`` alone binds all of localhost)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text or "127.0.0.1", default_port
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"bad address {text!r}: expected HOST:PORT")


def _cmd_serve(args) -> int:
    """Run the network front door until SIGTERM/SIGINT drains it.

    Serves the binary SXP1 protocol and the HTTP/1.1 adapter on one
    port.  SIGTERM and SIGHUP trigger a graceful drain: in-flight
    requests complete, new ones get the typed retryable ``draining``
    error, the shard services flush, and the process exits 0.
    """
    import asyncio

    from .net import NetServer
    from .net.quotas import TenantPolicy, TenantQuotas

    host, port = _parse_hostport(args.listen)
    quotas = TenantQuotas(
        TenantPolicy(rate=args.rate, burst=args.burst)
    )
    if args.metrics:
        observe.enable()

    async def run():
        server = await NetServer(
            host,
            port,
            shards=args.shards,
            workers_per_shard=args.workers,
            backend=args.backend,
            cache_bytes=int(args.cache_mb * 1e6),
            quotas=quotas,
            default_config=CodecConfig(
                err_bound=args.error_bound, block_size=args.block_size
            ),
        ).start()
        print(
            f"szx serve: listening on {server.host}:{server.port} "
            f"({args.shards} shard(s) x {args.workers} {args.backend} "
            f"worker(s), cache {args.cache_mb:g} MB)",
            flush=True,
        )
        await server.serve_forever()
        print("szx serve: drained cleanly", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C fallback
        pass
    return 0


def _cmd_client(args) -> int:
    """One-shot client for a running ``szx serve`` instance."""
    from .net import RemoteError
    from .net import client as netclient

    host, port = _parse_hostport(args.connect)
    try:
        if args.action == "health":
            print(json.dumps(netclient.server_health(host, port),
                             indent=2, sort_keys=True))
            return 0
        if args.action == "stats":
            print(json.dumps(netclient.server_stats(host, port),
                             indent=2, sort_keys=True))
            return 0
        if args.action == "compress":
            dtype = _DTYPES[args.dtype]
            data = np.fromfile(args.input, dtype=dtype)
            shape = _parse_shape(args.shape)
            if shape is not None:
                data = data.reshape(shape)
            stream, meta = netclient.compress_remote(
                data, host, port,
                err_bound=args.error_bound,
                tenant=args.tenant, retries=args.retries,
            )
            with open(args.output, "wb") as fh:
                fh.write(stream)
            print(
                f"{args.input}: {data.nbytes:,} -> {len(stream):,} bytes "
                f"(CR {data.nbytes / len(stream):.2f}, cache "
                f"{meta.get('cache', '?')}) -> {args.output}"
            )
            return 0
        # decompress
        with open(args.input, "rb") as fh:
            stream = fh.read()
        arr, _ = netclient.decompress_remote(
            stream, host, port, tenant=args.tenant, retries=args.retries,
        )
        arr.tofile(args.output)
        print(f"{args.input}: {arr.size:,} values -> {args.output}")
        return 0
    except (RemoteError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT


def _cmd_net_bench(args) -> int:
    """Multi-client open-loop benchmark of the network front door.

    Runs the cold (unique chunks) and duplicate (100 % cache hits)
    phases; exits 1 when any protocol error occurred, so CI can assert
    a clean run.
    """
    from .bench.net_load import format_net_report, run_net_load

    report = run_net_load(
        chunks=args.chunks,
        values_per_chunk=args.values,
        clients=args.clients,
        err_bound=args.error_bound,
        block_size=args.block_size,
        shards=args.shards,
        workers_per_shard=args.workers,
        backend=args.backend,
        warmup=args.warmup,
        seed=args.seed,
        tenant=args.tenant,
        connect=_parse_hostport(args.connect) if args.connect else None,
        trace_chrome=args.trace_chrome,
    )
    print(format_net_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 0 if report["protocol_errors"] == 0 else 1


# -- live observability commands ----------------------------------------

def _http_get(connect: str, path: str, *, timeout: float = 5.0) -> str:
    """GET a path from a running server's HTTP adapter; returns the body."""
    import urllib.request

    host, port = _parse_hostport(connect)
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=timeout
    ) as resp:
        return resp.read().decode("utf-8")


def _prom_values(text: str) -> dict:
    """Prometheus text exposition -> ``{sample_name: value}``."""
    values: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, raw = line.rpartition(" ")
        try:
            values[name] = float(raw)
        except ValueError:
            continue
    return values


def _render_top(connect: str, health: dict, stats: dict, prom: dict) -> str:
    """One screenful of server health: SLO burn, queues, cache, counters."""
    lines = [
        f"szx top — {connect}  status {health.get('status', '?')}  "
        f"uptime {health.get('uptime_s', 0.0):.0f}s  "
        f"{health.get('shards', '?')} shard(s), "
        f"{health.get('backend', '?')} backend"
    ]
    cache = stats.get("cache", {})
    lines.append(
        f"queue {stats.get('queue_depth', 0)}  "
        f"inflight {stats.get('inflight', 0)}  "
        f"cache {cache.get('hits', 0)} hit / {cache.get('misses', 0)} miss "
        f"({cache.get('bytes', 0) / 1e6:.1f} MB, "
        f"{cache.get('evictions', 0)} evicted)"
    )
    slo = health.get("slo") or {}
    verdict = "HEALTHY" if slo.get("healthy", True) else "BURNING"
    lines.append(f"slo: {slo.get('events', 0)} event(s)  {verdict}")
    for name, doc in sorted(slo.get("targets", {}).items()):
        bound = (
            f" <{doc['latency_ms']:g}ms" if doc.get("latency_ms") else ""
        )
        burns = "  ".join(
            f"{w}s {win['burn_rate']:.2f}"
            for w, win in sorted(
                doc.get("windows", {}).items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(
            f"  {name:<14} obj {doc['objective'] * 100:g}%{bound}  "
            f"burn {burns}"
        )
    alerts = slo.get("alerts", [])
    if alerts:
        for a in alerts:
            lines.append(
                f"  ALERT [{a['severity']}] {a['target']}: "
                f"burn {a['burn_rate_short']:.1f} (short) / "
                f"{a['burn_rate_long']:.1f} (long) >= {a['threshold']:g}"
            )
    else:
        lines.append("  alerts: none")
    interesting = {
        k: v for k, v in prom.items()
        if k.startswith(("net_", "serve_")) and "{" not in k
    }
    if interesting:
        lines.append("counters:")
        for key in sorted(interesting)[:12]:
            lines.append(f"  {key:<40} {interesting[key]:g}")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    """Live terminal view of a running server's health/SLO surface."""
    import urllib.error

    while True:
        try:
            health = json.loads(_http_get(args.connect, "/healthz"))
            stats = json.loads(_http_get(args.connect, "/stats"))
            try:
                prom = _prom_values(_http_get(args.connect, "/metrics"))
            except (urllib.error.URLError, OSError):
                prom = {}
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: {args.connect}: {exc}", file=sys.stderr)
            return EXIT_CORRUPT
        if not args.once:
            print("\x1b[2J\x1b[H", end="")
        print(_render_top(args.connect, health, stats, prom), flush=True)
        if args.once:
            return 0
        try:
            import time as _time

            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_trace(args) -> int:
    """Fetch per-request stage timelines from /debug/requests."""
    import urllib.error

    if not args.list and not args.request_id:
        raise SystemExit("szx trace needs a REQUEST_ID (or --list)")
    query = "?limit=" + str(args.limit)
    if args.request_id:
        query += f"&id={args.request_id}"
    if args.errors:
        query += "&errors=1"
    if args.slow:
        query += "&slow=1"
    try:
        doc = json.loads(_http_get(args.connect, "/debug/requests" + query))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"error: {args.connect}: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    entries = doc.get("requests", [])
    if not entries:
        target = args.request_id or "recent requests"
        print(
            f"no timeline for {target} (ring holds the last "
            f"{doc.get('capacity', '?')} slow/errored/sampled requests)"
        )
        return 1
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    for entry in entries:
        if args.list:
            flag = entry.get("status", "?")
            lines = [
                f"{entry['request_id']}  {entry.get('verb', '?'):<10} "
                f"{flag:<12} {entry.get('total_ms', 0.0):>9.2f} ms"
            ]
        else:
            lines = [
                f"request {entry['request_id']}  verb {entry.get('verb')}  "
                f"status {entry.get('status')}  "
                f"total {entry.get('total_ms', 0.0):.2f} ms"
            ]
            if entry.get("trace_id"):
                lines.append(f"  trace_id {entry['trace_id']}")
            if entry.get("error"):
                lines.append(f"  error {entry['error']}")
            stages = entry.get("stages_ms", {})
            total = sum(stages.values()) or 1.0
            for stage, ms in stages.items():
                bar = "#" * max(1, int(30 * ms / total)) if ms > 0 else ""
                lines.append(f"  {stage:<14} {ms:>9.3f} ms  {bar}")
        print("\n".join(lines))
    return 0


def _cmd_assess(args) -> int:
    from .metrics.report import assess, format_report

    dtype = _DTYPES[args.dtype]
    original = np.fromfile(args.original, dtype=dtype)
    recon = np.fromfile(args.reconstructed, dtype=dtype)
    if original.size != recon.size:
        raise SystemExit(
            f"size mismatch: {original.size} vs {recon.size} values"
        )
    report = assess(original, recon, err_bound=args.error_bound)
    print(format_report(report, title=f"{args.original} vs {args.reconstructed}"))
    if args.error_bound is not None and not report["bound_respected"]:
        return 1
    return 0


def _cmd_bundle(args) -> int:
    from .archive import SzxArchive

    names = args.names.split(",") if args.names else None
    if names is not None and len(names) != len(args.inputs):
        raise SystemExit("--names count must match the number of inputs")
    arc = SzxArchive()
    for i, path in enumerate(args.inputs):
        name = names[i] if names else path
        with open(path, "rb") as fh:
            arc.add_stream(name, fh.read())
    arc.save(args.output)
    print(f"bundled {len(args.inputs)} stream(s) -> {args.output}")
    return 0


@_guard_format_errors
def _cmd_extract(args) -> int:
    from .archive import SzxArchive

    buf = SzxArchive.open(args.archive)
    if args.field is None:
        for name in SzxArchive.field_names(buf):
            print(name)
        return 0
    data = SzxArchive.load_field(buf, args.field)
    data.tofile(args.output)
    print(f"{args.field}: {data.size:,} values -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szx", description="SZx ultrafast error-bounded lossy compressor"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_opts(p):
        p.add_argument(
            "--trace",
            action="store_true",
            help="print the per-stage tracing span tree after the run",
        )
        p.add_argument(
            "--trace-json",
            metavar="PATH",
            help="dump the span trees as JSON lines to PATH",
        )

    def add_pool_opts(p):
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker count (>1 uses the pool selected by --backend)",
        )
        p.add_argument(
            "--backend",
            choices=("thread", "process"),
            default="thread",
            help="execution backend for --workers>1: the OpenMP-style "
            "thread pool or the shared-memory process pool",
        )

    pc = sub.add_parser("compress", help="compress a raw binary float array")
    pc.add_argument("input")
    pc.add_argument("-o", "--output", required=True)
    pc.add_argument("-e", "--error-bound", type=float, required=True)
    pc.add_argument("--mode", choices=("abs", "rel"), default="abs")
    pc.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    pc.add_argument("--shape", help="comma-separated dims, e.g. 256,384,384")
    pc.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    pc.add_argument(
        "--checksum",
        action="store_true",
        help="append a CRC32 integrity footer to the stream",
    )
    add_pool_opts(pc)
    add_trace_opts(pc)
    pc.set_defaults(fn=_cmd_compress)

    pd = sub.add_parser("decompress", help="reconstruct a raw binary array")
    pd.add_argument("input")
    pd.add_argument("-o", "--output", required=True)
    add_pool_opts(pd)
    add_trace_opts(pd)
    pd.set_defaults(fn=_cmd_decompress)

    pi = sub.add_parser("inspect", help="print stream metadata")
    pi.add_argument("input")
    pi.set_defaults(fn=_cmd_inspect)

    pv = sub.add_parser("verify", help="structurally verify a stream")
    pv.add_argument("input")
    pv.set_defaults(fn=_cmd_verify)

    pval = sub.add_parser(
        "validate",
        help="strict validation: hardened parse + full decode + fsck walk",
    )
    pval.add_argument("input")
    pval.set_defaults(fn=_cmd_validate)

    ps = sub.add_parser(
        "stats",
        help="decode a stream under the metrics registry, dump it as JSON",
    )
    ps.add_argument("input", nargs="?")
    ps.add_argument("-o", "--output", help="write the JSON here instead of stdout")
    ps.set_defaults(fn=_cmd_stats)

    pm = sub.add_parser(
        "metrics",
        help="render the metrics registry as Prometheus text (or a JSONL event)",
    )
    pm.add_argument(
        "input", nargs="?",
        help="optional stream to decode under the registry first",
    )
    pm.add_argument(
        "--format", choices=("prom", "jsonl"), default="prom",
        help="Prometheus exposition (default) or one appended JSONL event",
    )
    pm.add_argument("-o", "--output", help="write here instead of stdout")
    pm.set_defaults(fn=_cmd_metrics)

    pf = sub.add_parser(
        "fuzz", help="run the differential fuzz harness (repro.testing)"
    )
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--iters", type=int, default=50)
    pf.add_argument("--max-n", type=int, default=2048)
    pf.add_argument("--mutants-per-iter", type=int, default=8)
    pf.add_argument("-v", "--verbose", action="store_true")
    pf.set_defaults(fn=_cmd_fuzz)

    pl = sub.add_parser(
        "lint", help="run the repro.analyze static-analysis rules"
    )
    pl.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: src/repro)",
    )
    pl.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    pl.add_argument(
        "--baseline", default=".analyze-baseline.json", metavar="PATH",
        help="baseline file of grandfathered findings "
             "(default: .analyze-baseline.json)",
    )
    pl.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    pl.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    pl.add_argument("-o", "--output", help="also write the report to a file")
    pl.set_defaults(fn=_cmd_lint)

    psb = sub.add_parser(
        "serve-bench",
        help="open-loop load benchmark of the concurrent compression service",
    )
    psb.add_argument("--jobs", type=int, default=400)
    psb.add_argument(
        "--values", type=int, default=256, help="values per job (small = batchable)"
    )
    psb.add_argument("-e", "--error-bound", type=float, default=1e-3)
    psb.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    psb.add_argument("--workers", type=int, default=4)
    psb.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help="service execution backend (process = shared-memory pool)",
    )
    psb.add_argument("--queue-capacity", type=int, default=512)
    psb.add_argument(
        "--rate", type=float, default=0.0,
        help="offered load in jobs/s (0 = submit as fast as possible)",
    )
    psb.add_argument("--seed", type=int, default=0)
    psb.add_argument(
        "--warmup", type=int, default=0,
        help="per-phase warmup jobs run before the clock starts and "
        "excluded from latency quantiles",
    )
    psb.add_argument("--overload-burst", type=int, default=256)
    psb.add_argument(
        "--report", metavar="PATH", help="write the full JSON report here"
    )
    add_trace_opts(psb)
    psb.set_defaults(fn=_cmd_serve_bench)

    psv = sub.add_parser(
        "serve",
        help="run the network front door (binary SXP1 + HTTP/1.1 on one port)",
    )
    psv.add_argument(
        "--listen", default="127.0.0.1:8641", metavar="HOST:PORT",
        help="bind address (port 0 = ephemeral, printed at startup)",
    )
    psv.add_argument("--shards", type=int, default=2)
    psv.add_argument(
        "--workers", type=int, default=2, help="workers per shard"
    )
    psv.add_argument(
        "--backend", choices=("thread", "process"), default="thread"
    )
    psv.add_argument(
        "--cache-mb", type=float, default=256.0,
        help="content-addressed chunk cache budget in MB",
    )
    psv.add_argument(
        "-e", "--error-bound", type=float, default=1e-3,
        help="default err_bound for requests that do not set one",
    )
    psv.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    psv.add_argument(
        "--rate", type=float, default=0.0,
        help="default per-tenant request rate limit (0 = unlimited)",
    )
    psv.add_argument(
        "--burst", type=float, default=32.0, help="token-bucket burst depth"
    )
    psv.add_argument(
        "--metrics", action="store_true",
        help="collect net.*/serve.* metrics (adds slight overhead)",
    )
    psv.set_defaults(fn=_cmd_serve)

    pcl = sub.add_parser(
        "client", help="one-shot client for a running `szx serve`"
    )
    pcl.add_argument(
        "action", choices=("compress", "decompress", "stats", "health")
    )
    pcl.add_argument("input", nargs="?", help="input file (compress/decompress)")
    pcl.add_argument(
        "--connect", default="127.0.0.1:8641", metavar="HOST:PORT"
    )
    pcl.add_argument("-o", "--output", default="client.out")
    pcl.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    pcl.add_argument("--shape", help="comma-separated dims for compress")
    pcl.add_argument("-e", "--error-bound", type=float, default=1e-3)
    pcl.add_argument("--tenant", default=None)
    pcl.add_argument(
        "--retries", type=int, default=0,
        help="retry budget for retryable (overloaded/rate-limited) errors",
    )
    pcl.set_defaults(fn=_cmd_client)

    pnb = sub.add_parser(
        "net-bench",
        help="multi-client open-loop benchmark of the network front door",
    )
    pnb.add_argument("--chunks", type=int, default=64)
    pnb.add_argument(
        "--values", type=int, default=4096, help="values per chunk"
    )
    pnb.add_argument("--clients", type=int, default=4)
    pnb.add_argument("-e", "--error-bound", type=float, default=1e-3)
    pnb.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    pnb.add_argument("--shards", type=int, default=2)
    pnb.add_argument(
        "--workers", type=int, default=2, help="workers per shard"
    )
    pnb.add_argument(
        "--backend", choices=("thread", "process"), default="thread"
    )
    pnb.add_argument(
        "--warmup", type=int, default=8,
        help="cold-phase warmup requests excluded from quantiles",
    )
    pnb.add_argument("--seed", type=int, default=0)
    pnb.add_argument("--tenant", default=None)
    pnb.add_argument(
        "--connect", metavar="HOST:PORT",
        help="drive an already-running server instead of an in-process one",
    )
    pnb.add_argument(
        "--report", metavar="PATH", help="write the full JSON report here"
    )
    pnb.add_argument(
        "--trace-chrome", metavar="PATH",
        help="run under tracing and export the stitched spans as a "
        "Chrome trace-event file (open in chrome://tracing / Perfetto)",
    )
    pnb.set_defaults(fn=_cmd_net_bench)

    pt = sub.add_parser(
        "top",
        help="live terminal view of a running server's health/SLO surface",
    )
    pt.add_argument(
        "--connect", default="127.0.0.1:8641", metavar="HOST:PORT"
    )
    pt.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    pt.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )
    pt.set_defaults(fn=_cmd_top)

    ptr = sub.add_parser(
        "trace",
        help="fetch a request's stage timeline from a running server",
    )
    ptr.add_argument(
        "request_id", nargs="?",
        help="request id (from client response metadata / --list)",
    )
    ptr.add_argument(
        "--connect", default="127.0.0.1:8641", metavar="HOST:PORT"
    )
    ptr.add_argument(
        "--list", action="store_true",
        help="list recent requests in the server's ring buffer instead",
    )
    ptr.add_argument(
        "--errors", action="store_true", help="only errored requests"
    )
    ptr.add_argument(
        "--slow", action="store_true", help="only slow requests"
    )
    ptr.add_argument(
        "--limit", type=int, default=50,
        help="max entries to fetch (default 50)",
    )
    ptr.add_argument(
        "--json", action="store_true", help="print raw JSON entries"
    )
    ptr.set_defaults(fn=_cmd_trace)

    pa = sub.add_parser("assess", help="quality report for a reconstruction")
    pa.add_argument("original")
    pa.add_argument("reconstructed")
    pa.add_argument("--dtype", choices=tuple(_DTYPES), default="f32")
    pa.add_argument("-e", "--error-bound", type=float, default=None)
    pa.set_defaults(fn=_cmd_assess)

    pb = sub.add_parser("bundle", help="bundle SZx streams into an archive")
    pb.add_argument("inputs", nargs="+")
    pb.add_argument("-o", "--output", required=True)
    pb.add_argument("--names", help="comma-separated field names")
    pb.set_defaults(fn=_cmd_bundle)

    pe = sub.add_parser("extract", help="list or extract archive fields")
    pe.add_argument("archive")
    pe.add_argument("field", nargs="?")
    pe.add_argument("-o", "--output", default="field.out")
    pe.set_defaults(fn=_cmd_extract)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
