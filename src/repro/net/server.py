"""The asyncio network front door.

One :class:`NetServer` turns the in-process serving stack into a wire
service::

    listener ──sniff──► binary frames ─┐
              └──────► HTTP/1.1 ───────┤
                                       ▼
        tenant token bucket ► weighted fair queue ► dispatchers
                                       │                │
                         chunk cache ◄─┘                ▼
                                      hash ring ► shard CompressionService
                                                        ▼
                                                  fused kernel chain

Request lifecycle (compress):

1. the connection handler decodes one frame (requests on a connection
   are processed sequentially; concurrency comes from connections);
2. admission — draining servers answer the typed retryable ``draining``
   error; the tenant's token bucket answers ``rate_limited`` with a
   ``retry_after_s`` hint;
3. the content digest is computed and the chunk cache consulted — a hit
   answers immediately with the cached stream, *never touching the
   shards or kernels*;
4. a miss is pushed onto the weighted fair queue (cost = payload bytes,
   weight = tenant policy); dispatcher tasks pop in virtual-finish
   order and submit to the shard owning the digest on the consistent
   hash ring;
5. the compressed stream is cached and written back.

Graceful drain (SIGTERM, or SIGHUP for reload scripts): stop accepting
connections, finish every admitted request, answer new requests with
``draining``, close the shards (which drain their own queues), then
wake :meth:`serve_forever`.

Each compress/decompress request (and each binary health/stats probe)
has one :class:`~repro.observe.telemetry.RequestTimeline`, opened at
its first byte: the stage ledger travels with the request through the
fair queue, the shard set and the service, and its ``net.request`` span
(with job spans nested under it across the thread boundary) is the
traced view of the same record.  The sealed timeline alone feeds the
``net.request.latency_s.<verb>`` histogram, the ``net.responses.*``
counters, the request log and the SLO engine.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import time
from urllib.parse import parse_qs, urlsplit

from .. import observe
from ..codec import CodecConfig
from ..observe.export import render_prometheus
from ..observe.telemetry import (
    RequestLog,
    RequestTimeline,
    SLOEngine,
    parse_traceparent,
)
from ..serve.errors import (
    JobTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from . import protocol
from .cache import DEFAULT_CACHE_BYTES, ChunkCache, chunk_key, content_digest
from .errors import ConnectionClosedError, ProtocolError
from .quotas import FairQueue, QueueFullError, TenantQuotas
from .shards import ShardSet

#: Fallback tenant for requests that do not name one.
DEFAULT_TENANT = "default"

#: Response codes the SLO engine counts as server errors.  Client-side
#: outcomes (bad_request) and policy answers (rate_limited, draining)
#: do not burn the error budget: they are the server doing its job.
SLO_ERROR_CODES = frozenset({"internal", "overloaded"})


class _Request:
    """One admitted request travelling handler → fair queue → dispatcher."""

    __slots__ = ("kind", "meta", "payload", "digest", "config", "array",
                 "tenant", "future", "shard", "timeline")

    def __init__(self, kind, meta, payload, digest, config, array, tenant,
                 future, timeline):
        self.kind = kind
        self.meta = meta
        self.payload = payload
        self.digest = digest
        self.config = config
        self.array = array
        self.tenant = tenant
        self.future = future
        self.shard = None
        self.timeline = timeline


class NetServer:
    """Asyncio front door over a sharded compression service fleet."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = 1,
        workers_per_shard: int = 2,
        backend: str = "thread",
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        quotas: TenantQuotas | None = None,
        default_config: CodecConfig | None = None,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        queue_capacity: int = 128,
        batching: bool = True,
        slo_targets=None,
        slo_policies=None,
        request_log_capacity: int = 256,
        slow_request_ms: float = 100.0,
    ):
        self.host = host
        self.port = port
        self.max_frame = int(max_frame)
        self.default_config = default_config or CodecConfig(err_bound=1e-3)
        self.quotas = quotas or TenantQuotas()
        self.cache = ChunkCache(cache_bytes)
        slo_kwargs = {} if slo_policies is None else {"policies": slo_policies}
        self.slo = SLOEngine(slo_targets, **slo_kwargs)
        self.request_log = RequestLog(request_log_capacity,
                                      slow_ms=slow_request_ms)
        self._shard_args = dict(
            n_shards=shards,
            workers_per_shard=workers_per_shard,
            backend=backend,
            queue_capacity=queue_capacity,
            batching=batching,
        )
        self.shards: ShardSet | None = None
        self._queue = FairQueue()
        self._work = None            # asyncio.Semaphore counting queued items
        self._server = None
        self._dispatchers: list = []
        self._conn_writers: set = set()
        self._inflight = 0
        self._idle = None            # asyncio.Event: inflight == 0
        self._draining = False
        self._drained = None         # asyncio.Event: drain finished
        self._drain_task = None
        self._started_at = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "NetServer":
        """Bind the listener, fork the shards, start the dispatchers."""
        loop = asyncio.get_running_loop()
        # Shard construction forks worker pools — hundreds of ms of
        # blocking syscalls.  At first start nothing else runs on the
        # loop, but start() is also awaited from supervisors that are
        # already serving (restarts, scale-up), so route it through the
        # default executor like drain() does for the teardown side.
        self.shards = await loop.run_in_executor(
            None, lambda: ShardSet(**self._shard_args)
        )
        self._work = asyncio.Semaphore(0)
        self._idle = asyncio.Event()
        self._idle.set()
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()
        width = self.shards.total_workers + len(self.shards)
        self._dispatchers = [
            loop.create_task(self._dispatch(), name=f"net-dispatch-{i}")
            for i in range(width)
        ]
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def install_signal_handlers(self, loop=None) -> None:
        """SIGTERM and SIGHUP trigger a graceful drain."""
        loop = loop or asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break  # non-unix event loop: rely on explicit drain()

    def request_drain(self) -> None:
        """Schedule a graceful drain (idempotent; signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self.drain()
            )

    async def serve_forever(self, *, handle_signals: bool = True) -> None:
        """Serve until a drain completes (SIGTERM/SIGHUP or `drain()`)."""
        if handle_signals:
            self.install_signal_handlers()
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: flush in-flight work, then stop.

        Steps: stop accepting connections, answer new requests on live
        connections with the typed retryable ``draining`` error, wait
        for every admitted request to finish, stop the dispatchers,
        drain-close the shard services, close lingering connections.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if observe.enabled():
            observe.counter("net.drains").inc()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()          # every admitted request answered
        for _ in self._dispatchers:      # wake dispatchers so they exit
            self._work.release()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(self.shards.close, drain=True)
        )
        for writer in list(self._conn_writers):
            writer.close()
        self._drained.set()

    async def aclose(self) -> None:
        """Drain and release everything (test/teardown convenience)."""
        await self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- in-flight accounting -------------------------------------------
    def _enter_request(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _exit_request(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    # -- dispatchers -----------------------------------------------------
    async def _dispatch(self) -> None:
        """Pop fair-queue items and run them on their shard's service."""
        while True:
            await self._work.acquire()
            popped = self._queue.pop()
            if popped is None:
                if self._draining:
                    return
                continue
            tenant, req = popped
            if observe.enabled():
                observe.gauge(f"net.tenant.pending.{tenant}").set(
                    self._queue.pending(tenant)
                )
            req.timeline.mark("queue_wait")
            try:
                if req.kind == protocol.COMPRESS:
                    req.shard, fut = self.shards.submit_compress(
                        req.digest, req.array, req.config,
                        timeline=req.timeline,
                    )
                else:
                    req.shard, fut = self.shards.submit_decompress(
                        req.digest, req.payload, timeline=req.timeline,
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to the response
                if not req.future.done():
                    req.future.set_exception(exc)
                continue
            try:
                result = await asyncio.wrap_future(fut)
            except Exception as exc:  # noqa: BLE001 - forwarded to the response
                if not req.future.done():
                    req.future.set_exception(exc)
                continue
            if not req.future.done():
                req.future.set_result(result)

    # -- connection handling ---------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        self._conn_writers.add(writer)
        try:
            first = await reader.read(4)
            if not first:
                return
            while len(first) < 4:
                more = await reader.read(4 - len(first))
                if not more:
                    return
                first += more
            try:
                flavor = protocol.sniff_protocol(first)
            except ProtocolError:
                if observe.enabled():
                    observe.counter("net.errors.protocol").inc()
                return
            if flavor == "http":
                await self._handle_http(reader, writer, first)
            else:
                await self._handle_binary(reader, writer, first)
        except (ConnectionResetError, BrokenPipeError, OSError,
                ConnectionClosedError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass  # analyze: ignore[hygiene] - peer went away; nothing to answer
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # analyze: ignore[hygiene] - already torn down

    async def _handle_binary(self, reader, writer, first: bytes) -> None:
        """Serve length-prefixed frames until EOF (sequential per conn).

        A frame counts as in-flight from its *first byte* — a drain must
        finish a request whose upload has started, not cut the socket
        under it mid-transfer.
        """
        while True:
            lead = first if first else await reader.read(1)
            first = b""
            if not lead:
                return
            # Drain semantics snapshot: a frame whose first byte arrived
            # before the drain began is in-flight and must complete.
            reject = self._draining
            t_first = time.perf_counter()
            self._enter_request()
            timeline = reply = None
            try:
                try:
                    frame = await protocol.read_frame(
                        reader, max_frame=self.max_frame, first_bytes=lead
                    )
                except ProtocolError as exc:
                    if observe.enabled():
                        observe.counter("net.errors.protocol").inc()
                    writer.write(protocol.encode_frame(
                        *self._error("bad_request", str(exc))
                    ))
                    await writer.drain()
                    return
                if frame is None:
                    return
                kind, meta, payload = frame
                ctx = parse_traceparent(frame.ctx) if frame.ctx else None
                timeline = self._new_timeline(kind, payload, ctx, t_first)
                reply = await self._process(
                    timeline, kind, meta, payload, reject
                )
                # Answer in the version the request arrived in: an SXP1
                # client must never see the SXP2 magic.
                out = protocol.encode_frame(
                    *reply, version=frame.version,
                    ctx=frame.ctx if frame.version >= 2 else None,
                )
                timeline.mark("serialize")
                writer.write(out)
                await writer.drain()
                timeline.mark("write")
            finally:
                if timeline is not None:
                    self._finish_timeline(timeline, reply)
                self._exit_request()

    @staticmethod
    def _new_timeline(kind: int, payload: bytes, ctx,
                      started_at: float) -> RequestTimeline:
        """The one record of a wire request, read up to here."""
        timeline = RequestTimeline(
            protocol.REQUEST_KINDS.get(kind, f"0x{kind:02x}"),
            context=ctx, started_at=started_at,
        ).set(bytes_in=len(payload))
        timeline.mark("read")
        return timeline

    def _finish_timeline(self, timeline: RequestTimeline, reply) -> None:
        """Seal the ledger — closing its span — and record the request.

        This is the only place a request is counted: the latency
        histogram and the response counter for every verb, the request
        log and the SLO engine for compress/decompress (health and stats
        probes are not part of the served workload).  *reply* is None
        when the request ended without one (its task was cancelled).
        """
        code, rmeta, rpayload = reply or self._error(
            "internal", "request abandoned before a reply"
        )
        status = protocol.RESPONSE_KINDS[code]
        timeline.set(bytes_out=len(rpayload))
        timeline.finish(status, error=None if status == "ok" else status,
                        cache=rmeta.get("cache"), shard=rmeta.get("shard"))
        if observe.enabled():
            observe.histogram(
                f"net.request.latency_s.{timeline.verb}"
            ).observe(timeline.total_s)
            observe.counter(f"net.responses.{status}").inc()
            observe.counter("net.bytes_out").inc(len(rpayload))
        if timeline.verb in ("compress", "decompress"):
            self.request_log.record(timeline)
            self.slo.record(timeline.total_s,
                            error=status in SLO_ERROR_CODES)

    # -- request processing ----------------------------------------------
    async def _process(self, timeline: RequestTimeline, kind: int,
                       meta: dict, payload: bytes,
                       reject_draining: bool) -> tuple[int, dict, bytes]:
        """Execute one request; returns ``(response kind, meta, payload)``.

        *timeline* is the request's record (its ledger and span);
        *reject_draining* is the drain snapshot taken when the request's
        first byte arrived, so requests already in flight when the drain
        began run to completion.
        """
        verb = protocol.REQUEST_KINDS.get(kind)
        if verb is None:
            return self._error("bad_request", f"unknown verb 0x{kind:02x}")
        if observe.enabled():
            observe.counter(f"net.requests.{verb}").inc()
            observe.counter("net.bytes_in").inc(len(payload))
        if verb == "health":
            return protocol.OK, self._health_doc(), b""
        if verb == "stats":
            return protocol.OK, self._stats_doc(), b""
        if reject_draining:
            code, rmeta, rpayload = self._error(
                "draining", "server is draining; retry against a live replica",
                retry_after_s=1.0,
            )
            rmeta["request_id"] = timeline.request_id
            return code, rmeta, rpayload
        tenant = str(meta.get("tenant") or DEFAULT_TENANT)
        timeline.set(tenant=tenant)
        admitted, retry_after = self.quotas.admit(tenant)
        timeline.mark("admission")
        if not admitted:
            code, rmeta, rpayload = self._error(
                "rate_limited",
                f"tenant {tenant!r} is over its request rate",
                retry_after_s=retry_after,
            )
            rmeta["request_id"] = timeline.request_id
            return code, rmeta, rpayload
        self._enter_request()
        try:
            if verb == "compress":
                result = await self._process_compress(
                    meta, payload, tenant, timeline
                )
            else:
                result = await self._process_decompress(
                    meta, payload, tenant, timeline
                )
        finally:
            self._exit_request()
        code, rmeta, rpayload = result
        rmeta = dict(rmeta)
        rmeta["request_id"] = timeline.request_id
        rmeta["timeline"] = timeline.stages_ms()
        return code, rmeta, rpayload

    def _error(self, code: str, message: str,
               retry_after_s: float | None = None) -> tuple[int, dict, bytes]:
        meta = {"error": message, "code": code,
                "retryable": code in ("overloaded", "rate_limited", "draining")}
        if retry_after_s is not None:
            meta["retry_after_s"] = retry_after_s
        return protocol.ERROR_KIND_FOR_CODE[code], meta, b""

    def _request_config(self, meta: dict) -> CodecConfig:
        """Codec config from request metadata over the server default."""
        base = self.default_config
        err_bound = meta.get("err_bound", base.err_bound)
        return CodecConfig(
            err_bound=err_bound,
            mode=meta.get("mode", base.mode),
            block_size=meta.get("block_size", base.block_size),
            checksum=bool(meta.get("checksum", base.checksum)),
        )

    async def _process_compress(self, meta, payload, tenant, timeline):
        try:
            config = self._request_config(meta)
            if config.err_bound is None:
                raise ValueError("compress requires err_bound")
            arr = protocol.array_from_wire(meta, payload)
        except (ProtocolError, ValueError, TypeError) as exc:
            return self._error("bad_request", str(exc))
        digest = content_digest(payload)
        key = chunk_key(
            digest,
            dtype=meta["dtype"], shape=arr.shape,
            err_bound=config.err_bound, mode=config.mode,
            block_size=config.block_size, checksum=config.checksum,
        )
        cached = self.cache.get(key)
        timeline.mark("cache_lookup")
        if cached is not None:
            return protocol.OK, {"cache": "hit", "digest": digest}, cached
        ok, resp = await self._run_on_shard(
            protocol.COMPRESS, meta, payload, tenant, digest, config, arr,
            timeline,
        )
        if not ok:
            return resp
        req, stream = resp
        self.cache.put(key, stream)
        timeline.mark("stitch")
        return protocol.OK, {
            "cache": "miss", "digest": digest, "shard": req.shard,
        }, stream

    async def _process_decompress(self, meta, payload, tenant, timeline):
        if not payload:
            return self._error("bad_request", "decompress needs a stream payload")
        digest = content_digest(payload)
        ok, resp = await self._run_on_shard(
            protocol.DECOMPRESS, meta, payload, tenant, digest, None, None,
            timeline,
        )
        if not ok:
            return resp
        req, arr = resp
        out = arr.tobytes()
        timeline.mark("stitch")
        rmeta = protocol.array_wire_meta(arr)
        rmeta["shard"] = req.shard
        return protocol.OK, rmeta, out

    async def _run_on_shard(self, kind, meta, payload, tenant, digest,
                            config, arr, timeline):
        """Queue a request through WFQ → shard; await the result.

        Returns ``(True, (request, result))`` or ``(False, error_triple)``.
        """
        policy = self.quotas.policy(tenant)
        req = _Request(
            kind, meta, payload, digest, config, arr, tenant,
            asyncio.get_running_loop().create_future(), timeline,
        )
        try:
            self._queue.push(
                tenant, req, cost=float(len(payload) or 1),
                weight=policy.weight, max_pending=policy.max_pending,
            )
        except QueueFullError as exc:
            return False, self._error("overloaded", str(exc), retry_after_s=0.1)
        if observe.enabled():
            observe.gauge(f"net.tenant.pending.{tenant}").set(
                self._queue.pending(tenant)
            )
        self._work.release()
        try:
            result = await req.future
        except (ServiceOverloadedError, JobTimeoutError) as exc:
            return False, self._error("overloaded", str(exc), retry_after_s=0.1)
        except ServiceClosedError as exc:
            return False, self._error(
                "draining" if self._draining else "internal", str(exc),
                retry_after_s=1.0 if self._draining else None,
            )
        except Exception as exc:  # noqa: BLE001 - every fault becomes a typed reply
            if observe.enabled():
                observe.counter("net.errors.internal").inc()
            return False, self._error(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        timeline.mark("execute")
        return True, (req, result)

    # -- stats / health ---------------------------------------------------
    def _health_doc(self, *, include_slo: bool = False) -> dict:
        doc = {
            "status": "draining" if self._draining else "ok",
            "shards": len(self.shards) if self.shards else 0,
            "backend": self.shards.backend if self.shards else None,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
        }
        if include_slo:
            doc["slo"] = self.slo.report()
        return doc

    def _stats_doc(self) -> dict:
        return {
            "health": self._health_doc(),
            "cache": self.cache.stats(),
            "queue_depth": len(self._queue),
            "inflight": self._inflight,
            "shards": self.shards.stats() if self.shards else {},
        }

    # -- HTTP/1.1 adapter --------------------------------------------------
    async def _handle_http(self, reader, writer, first: bytes) -> None:
        """Minimal HTTP/1.1 bridge: one request, then close.

        Routes: ``GET /health``, ``GET /healthz`` (health + SLO burn
        report), ``GET /stats``, ``GET /metrics`` (Prometheus text),
        ``GET /debug/requests`` (recent request timelines; filters
        ``id``, ``errors``, ``slow``, ``limit``), ``POST /compress``,
        ``POST /decompress``.  Codec parameters travel as ``X-SZX-*``
        headers and a ``traceparent`` header joins the request to a
        distributed trace; bodies are the same raw/stream bytes as the
        binary protocol.  Retryable errors map to 429/503 with
        ``Retry-After``.  The request counts as in-flight for drain
        purposes from its first sniffed byte to the written reply.
        """
        reject = self._draining
        t_first = time.perf_counter()
        self._enter_request()
        try:
            await self._handle_http_inner(reader, writer, first, reject,
                                          t_first)
        finally:
            self._exit_request()

    async def _handle_http_inner(self, reader, writer, first: bytes,
                                 reject: bool, t_first: float) -> None:
        try:
            head = first + await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=30.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError) as exc:
            if observe.enabled():
                observe.counter("net.errors.protocol").inc()
            await self._http_error(writer, 400, f"bad HTTP preamble: {exc}")
            return
        try:
            method, path, headers = self._parse_http_head(head)
        except ProtocolError as exc:
            if observe.enabled():
                observe.counter("net.errors.protocol").inc()
            await self._http_error(writer, 400, str(exc))
            return
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            if observe.enabled():
                observe.counter("net.errors.protocol").inc()
            await self._http_error(
                writer, 400, f"bad Content-Length {raw_length!r}"
            )
            return
        length = int(raw_length)
        if length > self.max_frame:
            await self._http_error(
                writer, 413, f"body of {length} bytes over cap"
            )
            return
        body = await reader.readexactly(length) if length else b""

        parts = urlsplit(path)
        route = (method, parts.path)
        if route in (("GET", "/health"), ("GET", "/healthz")):
            await self._http_reply(
                writer, 200,
                self._health_doc(include_slo=parts.path == "/healthz"),
            )
            return
        if route == ("GET", "/stats"):
            await self._http_reply(writer, 200, self._stats_doc())
            return
        if route == ("GET", "/metrics"):
            await self._http_reply(
                writer, 200, render_prometheus().encode("utf-8"), raw=True,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if route == ("GET", "/debug/requests"):
            await self._http_debug_requests(writer, parts.query)
            return
        if route not in (("POST", "/compress"), ("POST", "/decompress")):
            await self._http_error(
                writer, 404, f"no route {method} {parts.path}"
            )
            return

        meta = self._http_codec_meta(headers, len(body))
        kind = (protocol.COMPRESS if parts.path == "/compress"
                else protocol.DECOMPRESS)
        ctx = parse_traceparent(headers.get("traceparent"))
        timeline = self._new_timeline(kind, body, ctx, t_first)
        reply = None
        try:
            reply = await self._process(timeline, kind, meta, body, reject)
            await self._http_answer(writer, timeline, *reply)
        finally:
            self._finish_timeline(timeline, reply)

    async def _http_answer(self, writer, timeline: RequestTimeline,
                           code: int, rmeta: dict, rpayload: bytes) -> None:
        """Write a compress/decompress reply: the body plus ``X-SZX-*``
        metadata headers on success, a JSON error document otherwise."""
        status_name = protocol.RESPONSE_KINDS[code]
        if status_name == "ok":
            extra = {
                f"X-SZX-{k.replace('_', '-').title()}": json.dumps(v)
                if isinstance(v, (list, dict)) else str(v)
                for k, v in rmeta.items()
            }
            timeline.mark("serialize")
            await self._http_reply(
                writer, 200, rpayload, raw=True, extra_headers=extra
            )
            timeline.mark("write")
            return
        http_status = {
            "bad_request": 400, "rate_limited": 429,
            "overloaded": 503, "draining": 503, "internal": 500,
        }[status_name]
        extra = {}
        if rmeta.get("retry_after_s") is not None:
            extra["Retry-After"] = f"{max(rmeta['retry_after_s'], 0.0):.3f}"
        await self._http_reply(writer, http_status, rmeta,
                               extra_headers=extra)
        timeline.mark("write")

    async def _http_error(self, writer, status: int, message: str) -> None:
        """Reply to a request the adapter itself rejects: a typed
        ``bad_request`` document, like every other error reply."""
        await self._http_reply(writer, status,
                               self._error("bad_request", message)[1])

    async def _http_debug_requests(self, writer, query: str) -> None:
        """Serve the recent-request ring buffer with optional filters."""
        q = {k: v[-1] for k, v in parse_qs(query).items()}
        try:
            limit = int(q.get("limit", "50"))
            if limit < 1:
                raise ValueError(limit)
        except ValueError:
            await self._http_error(
                writer, 400, f"bad limit {q.get('limit')!r}"
            )
            return
        entries = self.request_log.snapshot(
            request_id=q.get("id"),
            errors_only=q.get("errors") in ("1", "true"),
            slow_only=q.get("slow") in ("1", "true"),
            limit=limit,
        )
        await self._http_reply(writer, 200, {
            "requests": entries,
            "count": len(entries),
            "slow_ms": self.request_log.slow_ms,
            "capacity": self.request_log.capacity,
        })

    @staticmethod
    def _parse_http_head(head: bytes):
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ProtocolError(f"undecodable HTTP head: {exc}") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(f"bad HTTP request line {lines[0]!r}")
        method, path, _ = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ProtocolError(f"bad HTTP header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    def _http_codec_meta(self, headers: dict, body_len: int) -> dict:
        """Translate ``X-SZX-*`` headers into binary-protocol metadata."""
        meta = {"tenant": headers.get("x-szx-tenant", DEFAULT_TENANT)}
        if "x-szx-err-bound" in headers:
            try:
                meta["err_bound"] = float(headers["x-szx-err-bound"])
            except ValueError:
                meta["err_bound"] = headers["x-szx-err-bound"]  # rejected later
        if "x-szx-mode" in headers:
            meta["mode"] = headers["x-szx-mode"]
        if "x-szx-block-size" in headers:
            try:
                meta["block_size"] = int(headers["x-szx-block-size"])
            except ValueError:
                meta["block_size"] = headers["x-szx-block-size"]
        dtype = headers.get("x-szx-dtype", "float32")
        meta["dtype"] = dtype
        if "x-szx-shape" in headers:
            try:
                meta["shape"] = [
                    int(s) for s in headers["x-szx-shape"].split(",") if s
                ]
            except ValueError:
                meta["shape"] = headers["x-szx-shape"]
        else:
            itemsize = 8 if dtype == "float64" else 4
            meta["shape"] = [body_len // itemsize]
        return meta

    @staticmethod
    async def _http_reply(writer, status: int, payload, *, raw: bool = False,
                          extra_headers: dict | None = None,
                          content_type: str | None = None) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        if raw:
            body = payload
            ctype = content_type or "application/octet-stream"
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            ctype = content_type or "application/json"
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


async def start_server(**kwargs) -> NetServer:
    """Construct and start a :class:`NetServer` (test convenience)."""
    return await NetServer(**kwargs).start()
