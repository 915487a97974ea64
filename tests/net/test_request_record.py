"""One record per wire request.

Each compress/decompress request has one ``RequestTimeline``: the
always-on stage ledger the request log serves, whose ``net.request``
span is the traced view of the same record.  These tests pin that
correspondence over every wire flavour (SXP1, SXP2, HTTP) and backend,
check that probes and rejected requests leave no span open, and cover
the HTTP adapter's handling of malformed or truncated bodies.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import observe
from repro.net import (
    NetClient,
    NetServer,
    RateLimitedError,
    RemoteBadRequestError,
    ServerDrainingError,
    protocol,
)
from repro.net.quotas import TenantPolicy, TenantQuotas
from repro.observe.telemetry import find_orphans, flatten

RNG = np.random.default_rng(5)


def field(n=4096):
    return np.cumsum(RNG.normal(size=n)).astype(np.float32)


def run(coro):
    return asyncio.run(coro)


async def with_server(fn, **server_kwargs):
    server = await NetServer(**server_kwargs).start()
    try:
        return await fn(server)
    finally:
        await server.drain()


async def http(server, raw: bytes, *, close_early: bool = False) -> bytes:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(raw)
    await writer.drain()
    if close_early:
        writer.close()
        await writer.wait_closed()
        return b""
    data = await reader.read()
    writer.close()
    return data


@pytest.fixture(autouse=True)
def fresh_metrics():
    observe.reset_metrics()
    yield
    observe.reset_metrics()


class TestSpanIsTheTimelineView:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_request_span_per_wire_request(self, backend):
        data = field(6000)

        async def scenario(server):
            async with await NetClient.connect(
                server.host, server.port
            ) as cli:                                   # SXP2
                stream, _ = await cli.compress(data, err_bound=1e-3)
                await cli.compress(data, err_bound=1e-3)    # cache hit
                await cli.decompress(stream)
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )                                           # SXP1, no context
            writer.write(protocol.encode_frame(protocol.DECOMPRESS, {},
                                               stream))
            await writer.drain()
            frame = await protocol.read_frame(reader)
            assert frame.version == 1 and frame.kind == protocol.OK
            writer.close()
            body = data[:256].tobytes()                 # HTTP
            resp = await http(server, (
                f"POST /compress HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-SZX-Err-Bound: 0.001\r\n\r\n"
            ).encode() + body)
            assert resp.startswith(b"HTTP/1.1 200")
            # The sealed timelines themselves, oldest first.
            return list(server.request_log._entries)

        with observe.trace() as sink:
            timelines = run(with_server(
                scenario, shards=1, workers_per_shard=2, backend=backend,
            ))

        assert len(timelines) == 5
        spans = flatten(sink.spans)
        by_span = {id(tl.span): tl for tl in timelines}
        request_spans = [sp for sp in spans if sp.name == "net.request"]
        assert len(request_spans) == 5
        assert {id(sp) for sp in request_spans} == set(by_span)
        for sp in request_spans:
            tl = by_span[id(sp)]
            assert tl.trace_id and sp.trace_id == tl.trace_id
            assert tl.request_id == tl.trace_id[:16]
            assert sp.t0 == tl.started_at
            assert sp.extra["verb"] == tl.verb
            assert sp.extra["status"] == tl.status == "ok"
            assert {k: sp.extra[f"{k}_ms"] for k in tl.stages_ms()} \
                == tl.stages_ms()
        assert find_orphans(sink.spans) == []
        request_ids = {sp.span_id for sp in request_spans}
        jobs = [sp for sp in spans
                if sp.name.startswith("serve.job.") or sp.name == "serve.batch"]
        assert len(jobs) == 4   # every request but the cache hit
        assert all(sp.parent_span_id in request_ids for sp in jobs)


class TestEveryTimelineIsSealed:
    def test_probes_and_rejections_close_their_spans(self):
        small = field(64)
        quotas = TenantQuotas(
            TenantPolicy(rate=0.0),
            {"metered": TenantPolicy(rate=0.001, burst=1.0)},
        )

        async def until(predicate):
            while not predicate():
                await asyncio.sleep(0.001)

        async def scenario():
            server = await NetServer(shards=1, quotas=quotas).start()
            a = await NetClient.connect(server.host, server.port)
            b = await NetClient.connect(server.host, server.port,
                                        tenant="metered")
            assert (await a.health())["status"] == "ok"
            await a.stats()
            with pytest.raises(RemoteBadRequestError):
                await a.request(protocol.COMPRESS,
                                {"dtype": "float32", "shape": [100],
                                 "err_bound": 1e-3}, b"\x00" * 16)
            await b.compress(small, err_bound=1e-3)
            with pytest.raises(RateLimitedError):
                await b.compress(small, err_bound=1e-3)
            # A frame whose first bytes arrived is in flight: the drain
            # waits for it, and requests arriving meanwhile are refused.
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            probe = protocol.encode_frame(protocol.HEALTH)
            writer.write(probe[:4])
            await until(lambda: server._inflight)
            drain = asyncio.create_task(server.drain())
            await until(lambda: server.draining)
            with pytest.raises(ServerDrainingError):
                await b.compress(small, err_bound=1e-3)
            writer.write(probe[4:])
            assert (await protocol.read_frame(reader)).kind == protocol.OK
            writer.close()
            await a.aclose()
            await b.aclose()
            await drain
            return server

        with observe.trace() as sink:
            server = run(scenario())
        spans = flatten(sink.spans)
        client = [sp for sp in spans if sp.name == "net.client.request"]
        served = [sp for sp in spans if sp.name == "net.request"]
        # Every request the server answered delivered its span: the six
        # client requests plus the untraced SXP1 probe.
        assert len(client) == 6 and len(served) == 7
        assert {sp.trace_id for sp in client} \
            < {sp.trace_id for sp in served}
        assert all(sp.t1 for sp in served)
        statuses = sorted(sp.extra["status"] for sp in served)
        assert statuses == sorted(
            ["ok"] * 4 + ["bad_request", "rate_limited", "draining"]
        )
        # Probes are traced but stay out of the request log.
        assert {e["verb"] for e in server.request_log.snapshot()} \
            == {"compress"}


class TestHttpBodyFraming:
    @staticmethod
    async def _quiet(server, errors):
        """Wait until the server has torn every connection down."""
        for _ in range(200):
            if not server._conn_writers:
                break
            await asyncio.sleep(0.005)
        await asyncio.sleep(0.05)
        assert errors == []

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0"])
    def test_malformed_content_length_is_typed_400(self, length):
        async def scenario(server):
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: errors.append(ctx)
            )
            resp = await http(server, (
                f"POST /compress HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode() + b"\x00" * 10)
            head, _, body = resp.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            doc = json.loads(body)
            assert doc["code"] == "bad_request"
            assert "Content-Length" in doc["error"]
            await self._quiet(server, errors)

        run(with_server(scenario))

    def test_truncated_body_is_a_vanished_peer(self):
        async def scenario(server):
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: errors.append(ctx)
            )
            await http(server, (
                b"POST /compress HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b"\x00" * 10
            ), close_early=True)
            await self._quiet(server, errors)
            assert len(server.request_log) == 0

        run(with_server(scenario))


class TestHttpAdapterErrorsAreTyped:
    """Replies the adapter itself makes carry ``code`` and ``retryable``."""

    @staticmethod
    def _doc(resp: bytes, status: bytes) -> dict:
        head, _, body = resp.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 " + status), head
        return json.loads(body)

    @staticmethod
    def _assert_typed(doc: dict, needle: str) -> None:
        assert doc["code"] == "bad_request"
        assert doc["retryable"] is False
        assert needle in doc["error"]

    def test_bad_preamble(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"GET /health HTTP/1.1\r\nHost: x\r\n")
            writer.write_eof()  # the head never ends
            resp = await reader.read()
            writer.close()
            return resp

        doc = self._doc(run(with_server(scenario)), b"400")
        self._assert_typed(doc, "bad HTTP preamble")

    def test_bad_request_line(self):
        resp = run(with_server(
            lambda server: http(server, b"GET /health\r\nHost: x\r\n\r\n")
        ))
        self._assert_typed(self._doc(resp, b"400"), "bad HTTP request line")

    def test_body_over_cap(self):
        resp = run(with_server(
            lambda server: http(server, (
                b"POST /compress HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 4096\r\n\r\n"
            )),
            max_frame=1024,
        ))
        self._assert_typed(self._doc(resp, b"413"), "over cap")

    def test_unknown_route(self):
        resp = run(with_server(
            lambda server: http(server, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        ))
        self._assert_typed(self._doc(resp, b"404"), "no route GET /nope")

    @pytest.mark.parametrize("limit", ["zero", "0", "-3"])
    def test_bad_debug_requests_limit(self, limit):
        resp = run(with_server(
            lambda server: http(server, (
                f"GET /debug/requests?limit={limit} HTTP/1.1\r\n"
                f"Host: x\r\n\r\n"
            ).encode())
        ))
        self._assert_typed(self._doc(resp, b"400"), "bad limit")
