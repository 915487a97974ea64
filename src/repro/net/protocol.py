"""Length-prefixed binary wire protocol for the network front door.

One frame carries one request or one response.  Two wire versions
coexist, distinguished by the magic::

    frame    := magic "SXP1" (4) | u32 body_len | body_v1
    body_v1  := u8 kind | u32 meta_len | meta (JSON, UTF-8) | payload

    frame    := magic "SXP2" (4) | u32 body_len | body_v2
    body_v2  := u8 kind | u8 ctx_len | ctx (UTF-8)
                | u32 meta_len | meta (JSON, UTF-8) | payload

All integers are big-endian.  ``kind`` identifies the verb on requests
(``compress`` / ``decompress`` / ``stats`` / ``health``) and the status
on responses (``ok`` or a typed error code); ``meta`` is a small JSON
object (tenant, codec parameters, array dtype/shape, error details) and
``payload`` is the bulk bytes — the raw array for ``compress``, the SZx
stream for ``decompress``, and vice versa on the way back.

Version 2 adds exactly one field: ``ctx``, a W3C ``traceparent`` string
carrying the distributed trace context.  Compatibility is two-way by
construction: :func:`encode_frame` with no context emits byte-identical
SXP1 frames, so old servers never see the new magic from old clients,
and the server always answers in the version the request arrived in,
so old clients never receive SXP2 (see ``tests/net/test_protocol_compat``).

The 4-byte magic doubles as the protocol sniffer: HTTP/1.1 request
lines start with a method token (``GET ``, ``POST``, ...), so the
server can serve both protocols on one port by peeking at the first
four bytes (:func:`sniff_protocol`).

Frames are hard-capped (:data:`DEFAULT_MAX_FRAME` unless renegotiated)
so a corrupt or hostile length prefix cannot balloon memory; violations
raise the typed :class:`~repro.net.errors.FrameTooLargeError` before
any allocation.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np

from .errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
)

#: Wire magic; the trailing digit is the protocol version.
MAGIC = b"SXP1"

#: Version-2 magic: identical framing plus a trace-context field.
MAGIC_V2 = b"SXP2"

#: magic -> protocol version number.
MAGIC_VERSIONS = {MAGIC: 1, MAGIC_V2: 2}

#: Cap on the encoded trace-context field (the length prefix is a u8).
MAX_CONTEXT_LEN = 255

#: Default per-frame byte cap (prefix + body).  512 MiB covers any
#: realistic scientific chunk while bounding a hostile length prefix.
DEFAULT_MAX_FRAME = 512 * 1024 * 1024

# -- request verbs -----------------------------------------------------
COMPRESS = 0x01
DECOMPRESS = 0x02
STATS = 0x03
HEALTH = 0x04

REQUEST_KINDS = {
    COMPRESS: "compress",
    DECOMPRESS: "decompress",
    STATS: "stats",
    HEALTH: "health",
}

# -- response statuses -------------------------------------------------
OK = 0x80
ERR_BAD_REQUEST = 0x81
ERR_OVERLOADED = 0x82
ERR_RATE_LIMITED = 0x83
ERR_DRAINING = 0x84
ERR_INTERNAL = 0x85

RESPONSE_KINDS = {
    OK: "ok",
    ERR_BAD_REQUEST: "bad_request",
    ERR_OVERLOADED: "overloaded",
    ERR_RATE_LIMITED: "rate_limited",
    ERR_DRAINING: "draining",
    ERR_INTERNAL: "internal",
}

#: error code string -> response kind byte (the server-side encoder).
ERROR_KIND_FOR_CODE = {
    name: kind for kind, name in RESPONSE_KINDS.items() if kind != OK
}

#: dtypes the wire accepts for raw arrays (what the codec supports).
WIRE_DTYPES = {"float32": np.float32, "float64": np.float64}

#: dtype -> wire name; a dict lookup instead of ``str(dtype)`` per request.
_WIRE_NAMES = {np.dtype(t): name for name, t in WIRE_DTYPES.items()}

#: Frame metadata codec, built once (``json.dumps`` with options builds
#: a fresh encoder on every call).
_encode_meta = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_decode_meta = json.JSONDecoder().decode

_PRELUDE = struct.Struct(">4sI")      # magic, body length
_BODY_HEAD = struct.Struct(">BI")     # v1: kind, meta length
_BODY_HEAD2 = struct.Struct(">BB")    # v2: kind, ctx length (meta follows)
_META_LEN = struct.Struct(">I")

#: HTTP/1.1 method prefixes recognised by the protocol sniffer.
HTTP_METHOD_PREFIXES = (b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI")


class Frame(tuple):
    """A decoded frame: unpacks as ``(kind, meta, payload)``.

    A tuple subclass so the decode API is unchanged for every existing
    caller — ``kind, meta, payload = decode_frame(...)`` and equality
    against plain 3-tuples both still hold — while the version-2 fields
    ride along as attributes: ``ctx`` (the ``traceparent`` string or
    None) and ``version`` (1 or 2, which the server echoes back so old
    clients never see SXP2 responses).
    """

    def __new__(cls, kind: int, meta: dict, payload: bytes,
                ctx: str | None = None, version: int = 1):
        self = super().__new__(cls, (kind, meta, payload))
        self.ctx = ctx
        self.version = version
        return self

    @property
    def kind(self):
        return self[0]

    @property
    def meta(self):
        return self[1]

    @property
    def payload(self):
        return self[2]


def encode_frame(kind: int, meta: dict | None = None,
                 payload: bytes = b"", *, ctx: str | None = None,
                 version: int | None = None) -> bytes:
    """Serialize one frame.

    With neither *ctx* nor *version* this emits a byte-identical SXP1
    frame (the pre-trace wire format).  Passing a trace context — or
    requesting ``version=2`` explicitly — emits SXP2.  ``version=1``
    with a context is an error: v1 has nowhere to put it.
    """
    if kind not in REQUEST_KINDS and kind not in RESPONSE_KINDS:
        raise ValueError(f"unknown frame kind 0x{kind:02x}")
    if version is None:
        version = 2 if ctx is not None else 1
    if version not in (1, 2):
        raise ValueError(f"unknown protocol version {version!r}")
    if version == 1 and ctx is not None:
        raise ValueError("protocol v1 frames cannot carry a trace context")
    meta_bytes = _encode_meta(meta or {}).encode("utf-8")
    if version == 1:
        body_len = _BODY_HEAD.size + len(meta_bytes) + len(payload)
        return b"".join((
            _PRELUDE.pack(MAGIC, body_len),
            _BODY_HEAD.pack(kind, len(meta_bytes)),
            meta_bytes,
            payload,
        ))
    ctx_bytes = (ctx or "").encode("utf-8")
    if len(ctx_bytes) > MAX_CONTEXT_LEN:
        raise ValueError(
            f"trace context of {len(ctx_bytes)} bytes exceeds the "
            f"{MAX_CONTEXT_LEN}-byte field"
        )
    body_len = (_BODY_HEAD2.size + len(ctx_bytes) + _META_LEN.size
                + len(meta_bytes) + len(payload))
    return b"".join((
        _PRELUDE.pack(MAGIC_V2, body_len),
        _BODY_HEAD2.pack(kind, len(ctx_bytes)),
        ctx_bytes,
        _META_LEN.pack(len(meta_bytes)),
        meta_bytes,
        payload,
    ))


def _check_kind(kind: int) -> int:
    if kind not in REQUEST_KINDS and kind not in RESPONSE_KINDS:
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")
    return kind


def _parse_meta(raw: bytes) -> dict:
    try:
        meta = _decode_meta(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError(
            f"frame metadata must be a JSON object, got {type(meta).__name__}"
        )
    return meta


def decode_body(body: bytes, version: int = 1) -> Frame:
    """Parse a frame body into a :class:`Frame` (``(kind, meta, payload)``)."""
    if version == 1:
        if len(body) < _BODY_HEAD.size:
            raise ProtocolError(
                f"frame body truncated: {len(body)} < {_BODY_HEAD.size} bytes"
            )
        kind, meta_len = _BODY_HEAD.unpack_from(body)
        _check_kind(kind)
        meta_end = _BODY_HEAD.size + meta_len
        if meta_end > len(body):
            raise ProtocolError(
                f"frame metadata overruns body: {meta_len} bytes declared, "
                f"{len(body) - _BODY_HEAD.size} available"
            )
        meta = _parse_meta(body[_BODY_HEAD.size:meta_end])
        return Frame(kind, meta, body[meta_end:], ctx=None, version=1)
    if version != 2:
        raise ProtocolError(f"unknown protocol version {version!r}")
    if len(body) < _BODY_HEAD2.size:
        raise ProtocolError(
            f"frame body truncated: {len(body)} < {_BODY_HEAD2.size} bytes"
        )
    kind, ctx_len = _BODY_HEAD2.unpack_from(body)
    _check_kind(kind)
    ctx_end = _BODY_HEAD2.size + ctx_len
    if ctx_end + _META_LEN.size > len(body):
        raise ProtocolError(
            f"frame context overruns body: {ctx_len} bytes declared, "
            f"{len(body) - _BODY_HEAD2.size} available"
        )
    try:
        ctx = body[_BODY_HEAD2.size:ctx_end].decode("utf-8") or None
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame context is not valid UTF-8: {exc}") from exc
    (meta_len,) = _META_LEN.unpack_from(body, ctx_end)
    meta_start = ctx_end + _META_LEN.size
    meta_end = meta_start + meta_len
    if meta_end > len(body):
        raise ProtocolError(
            f"frame metadata overruns body: {meta_len} bytes declared, "
            f"{len(body) - meta_start} available"
        )
    meta = _parse_meta(body[meta_start:meta_end])
    return Frame(kind, meta, body[meta_end:], ctx=ctx, version=2)


def decode_frame(data: bytes) -> Frame:
    """Parse one complete in-memory frame (tests / HTTP bridging)."""
    if len(data) < _PRELUDE.size:
        raise ProtocolError(f"frame truncated: {len(data)} bytes")
    magic, body_len = _PRELUDE.unpack_from(data)
    version = MAGIC_VERSIONS.get(magic)
    if version is None:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if len(data) != _PRELUDE.size + body_len:
        raise ProtocolError(
            f"frame length mismatch: prefix says {body_len}, "
            f"{len(data) - _PRELUDE.size} bytes present"
        )
    return decode_body(data[_PRELUDE.size:], version)


async def read_frame(reader, *, max_frame: int = DEFAULT_MAX_FRAME,
                     first_bytes: bytes = b""):
    """Read one frame from an asyncio stream reader.

    Returns a :class:`Frame` (unpacks as ``(kind, meta, payload)``), or
    ``None`` on clean EOF at a frame boundary.  *first_bytes* carries
    bytes the caller already consumed while sniffing the protocol.
    Accepts both wire versions; the frame records which one arrived.
    """
    prelude = await _read_exact(reader, _PRELUDE.size, first_bytes)
    if prelude is None:
        return None
    magic, body_len = _PRELUDE.unpack(prelude)
    version = MAGIC_VERSIONS.get(magic)
    if version is None:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if body_len > max_frame:
        raise FrameTooLargeError(
            f"frame of {body_len} bytes exceeds the {max_frame}-byte cap"
        )
    body = await _read_exact(reader, body_len, b"")
    if body is None:
        raise ConnectionClosedError(
            f"connection closed mid-frame ({body_len} body bytes expected)"
        )
    return decode_body(body, version)


async def _read_exact(reader, n: int, first_bytes: bytes):
    """Read exactly *n* bytes (prepending *first_bytes*); None on EOF."""
    buf = first_bytes
    if len(buf) >= n:
        return buf[:n]
    try:
        rest = await reader.readexactly(n - len(buf))
    except asyncio.IncompleteReadError as exc:
        if not buf and not exc.partial:
            return None
        raise ConnectionClosedError(
            f"connection closed mid-frame "
            f"({len(buf) + len(exc.partial)}/{n} bytes read)"
        ) from exc
    return buf + rest


def sniff_protocol(first_bytes: bytes) -> str:
    """Classify a connection by its first four bytes.

    Returns ``"binary"`` for the framed protocol (either wire version),
    ``"http"`` for an HTTP/1.1 request line, and raises
    :class:`ProtocolError` otherwise.
    """
    if first_bytes[:4] in MAGIC_VERSIONS:
        return "binary"
    if any(first_bytes[:4] == p[:4] or p.startswith(first_bytes)
           for p in HTTP_METHOD_PREFIXES):
        return "http"
    raise ProtocolError(
        f"unrecognised protocol preamble {first_bytes[:4]!r} "
        "(expected SXP1/SXP2 magic or an HTTP method)"
    )


# -- array <-> wire helpers --------------------------------------------

def array_wire_meta(arr: np.ndarray) -> dict:
    """The metadata a raw array needs to cross the wire losslessly."""
    name = _WIRE_NAMES.get(arr.dtype) or str(arr.dtype)
    return {"dtype": name, "shape": list(arr.shape)}


def array_from_wire(meta: dict, payload: bytes) -> np.ndarray:
    """Rebuild (a read-only view of) the array a peer sent.

    Validates dtype and element count against the payload length, so a
    lying header cannot make ``frombuffer`` mis-slice memory.
    """
    dtype_name = meta.get("dtype")
    if dtype_name not in WIRE_DTYPES:
        raise ProtocolError(
            f"unsupported wire dtype {dtype_name!r} "
            f"(have {sorted(WIRE_DTYPES)})"
        )
    dtype = np.dtype(WIRE_DTYPES[dtype_name])
    shape = meta.get("shape", [])
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0
        for s in shape
    ):
        raise ProtocolError(f"bad wire shape {shape!r}")
    n = 1
    for s in shape:
        n *= s
    if n * dtype.itemsize != len(payload):
        raise ProtocolError(
            f"payload holds {len(payload)} bytes but shape {tuple(shape)} "
            f"of {dtype_name} needs {n * dtype.itemsize}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape)
