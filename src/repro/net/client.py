"""Clients for the network front door.

:class:`NetClient` is the asyncio client speaking the binary protocol
on one persistent connection (requests on a connection are sequential;
open several clients for concurrency — `bench.net_load` does exactly
that).  :func:`compress_remote` / :func:`decompress_remote` are sync
one-shot conveniences for scripts and the ``szx client`` CLI.

Error replies surface as the typed exceptions of
:mod:`repro.net.errors` — ``retryable`` errors (overloaded /
rate-limited / draining) carry a ``retry_after_s`` hint, and
:meth:`NetClient.compress` can retry them itself with bounded
exponential backoff (``retries=``).
"""

from __future__ import annotations

import asyncio

import numpy as np

from .. import observe
from ..observe.telemetry import from_span
from . import protocol
from .errors import ConnectionClosedError, RemoteError, remote_error_for

#: Cap on a single retry sleep so a hostile retry_after cannot park us.
_MAX_BACKOFF_S = 2.0


class NetClient:
    """Async client for one server connection.

    ::

        async with await NetClient.connect("127.0.0.1", 8641) as cli:
            stream, meta = await cli.compress(arr, err_bound=1e-3)
            back, _ = await cli.decompress(stream)

    When tracing is enabled, each request opens a detached
    ``net.client.request`` span and propagates its trace context in an
    SXP2 frame, so server-side spans join the client's trace.  With
    tracing off the client speaks plain SXP1 — byte-identical to the
    pre-trace wire format.  ``last_request_id`` / ``last_timeline``
    hold the server-attributed stage ledger of the most recent request
    (the payload of ``szx trace <request-id>``).
    """

    def __init__(self, reader, writer, *,
                 max_frame: int = protocol.DEFAULT_MAX_FRAME,
                 tenant: str | None = None):
        self._reader = reader
        self._writer = writer
        self.max_frame = max_frame
        self.tenant = tenant
        self.last_request_id: str | None = None
        self.last_timeline: dict | None = None

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      tenant: str | None = None,
                      max_frame: int = protocol.DEFAULT_MAX_FRAME,
                      timeout: float = 10.0) -> "NetClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer, max_frame=max_frame, tenant=tenant)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        await self.aclose()
        return False

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # analyze: ignore[hygiene] - close is best-effort

    # -- core ------------------------------------------------------------
    async def request(self, kind: int, meta: dict | None = None,
                      payload: bytes = b"") -> tuple[dict, bytes]:
        """One raw request/response cycle; raises typed remote errors."""
        meta = dict(meta or {})
        if self.tenant is not None:
            meta.setdefault("tenant", self.tenant)
        sp = observe.open_span(
            "net.client.request", bytes_in=len(payload),
            verb=protocol.REQUEST_KINDS.get(kind, f"0x{kind:02x}"),
        )
        ctx = from_span(sp)
        try:
            self._writer.write(protocol.encode_frame(
                kind, meta, payload,
                ctx=ctx.to_traceparent() if ctx is not None else None,
            ))
            await self._writer.drain()
            frame = await protocol.read_frame(
                self._reader, max_frame=self.max_frame
            )
            if frame is None:
                raise ConnectionClosedError(
                    "server closed the connection before replying"
                )
            rkind, rmeta, rpayload = frame
            status = protocol.RESPONSE_KINDS.get(rkind)
            if status is None:
                raise ConnectionClosedError(
                    f"server answered with a request kind 0x{rkind:02x}"
                )
            self.last_request_id = rmeta.get("request_id")
            self.last_timeline = rmeta.get("timeline")
            if status != "ok":
                raise remote_error_for(
                    rmeta.get("code", status),
                    rmeta.get("error", f"server answered {status}"),
                    retry_after_s=rmeta.get("retry_after_s"),
                )
        except BaseException as exc:
            sp.finish(error=exc)
            raise
        sp.set(bytes_out=len(rpayload),
               request_id=rmeta.get("request_id")).finish()
        return rmeta, rpayload

    async def _request_retry(self, kind, meta, payload, retries: int):
        attempt = 0
        while True:
            try:
                return await self.request(kind, meta, payload)
            except RemoteError as exc:
                if not exc.retryable or attempt >= retries:
                    raise
                delay = exc.retry_after_s
                if delay is None or delay <= 0:
                    delay = 0.05 * (2 ** attempt)
                await asyncio.sleep(min(delay, _MAX_BACKOFF_S))
                attempt += 1

    # -- verbs -----------------------------------------------------------
    async def compress(self, arr: np.ndarray, *, err_bound: float,
                       mode: str | None = None, block_size: int | None = None,
                       retries: int = 0) -> tuple[bytes, dict]:
        """Compress *arr* remotely; returns ``(stream, response_meta)``."""
        arr = np.ascontiguousarray(arr)
        meta = protocol.array_wire_meta(arr)
        meta["err_bound"] = err_bound
        if mode is not None:
            meta["mode"] = mode
        if block_size is not None:
            meta["block_size"] = block_size
        rmeta, stream = await self._request_retry(
            protocol.COMPRESS, meta, arr.tobytes(), retries
        )
        return stream, rmeta

    async def decompress(self, stream: bytes, *,
                         retries: int = 0) -> tuple[np.ndarray, dict]:
        """Decompress an SZx stream remotely; returns ``(array, meta)``."""
        rmeta, payload = await self._request_retry(
            protocol.DECOMPRESS, {}, bytes(stream), retries
        )
        return protocol.array_from_wire(rmeta, payload).copy(), rmeta

    async def stats(self) -> dict:
        rmeta, _ = await self.request(protocol.STATS)
        return rmeta

    async def health(self) -> dict:
        rmeta, _ = await self.request(protocol.HEALTH)
        return rmeta


# -- sync one-shot helpers ---------------------------------------------

def _run_one(host, port, tenant, coro_fn):
    async def runner():
        async with await NetClient.connect(host, port, tenant=tenant) as cli:
            return await coro_fn(cli)

    return asyncio.run(runner())


def compress_remote(arr: np.ndarray, host: str, port: int, *,
                    err_bound: float, mode: str | None = None,
                    block_size: int | None = None,
                    tenant: str | None = None,
                    retries: int = 0) -> tuple[bytes, dict]:
    """Sync convenience: one connection, one compress, close."""
    return _run_one(host, port, tenant, lambda cli: cli.compress(
        arr, err_bound=err_bound, mode=mode, block_size=block_size,
        retries=retries,
    ))


def decompress_remote(stream: bytes, host: str, port: int, *,
                      tenant: str | None = None,
                      retries: int = 0) -> tuple[np.ndarray, dict]:
    """Sync convenience: one connection, one decompress, close."""
    return _run_one(host, port, tenant,
                    lambda cli: cli.decompress(stream, retries=retries))


def server_stats(host: str, port: int) -> dict:
    """Sync convenience: fetch the server's stats document."""
    return _run_one(host, port, None, lambda cli: cli.stats())


def server_health(host: str, port: int) -> dict:
    """Sync convenience: fetch the server's health document."""
    return _run_one(host, port, None, lambda cli: cli.health())


__all__ = [
    "NetClient",
    "compress_remote",
    "decompress_remote",
    "server_stats",
    "server_health",
]
