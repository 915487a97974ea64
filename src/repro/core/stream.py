"""SZx stream container: section assembly, parsing, block-range split/join.

The kernel chain (:mod:`repro.core.kernels`) and its test oracle
(:mod:`repro.core.scalar`) both produce :class:`StreamComponents`; this
module owns the byte layout, so every producer is byte-identical by
construction.  It also owns the one format fact every composer relies
on: blocks are independent and the ``zsize_array`` prefix sum gives any
block range its payload start (Section 6.1), so :func:`split_blocks`
cuts components at any block boundary and :func:`join_blocks` glues the
parts back byte-identically.  The thread and process backends, the
service's micro-batcher and random access all go through this pair.

Sections, in order, after the header:

1. **type bitmap** — one bit per block, 1 = non-constant
   (the paper's ``type_array``), packed LSB-first;
2. **constant-μ array** — one value (data dtype) per constant block;
3. **zsize array** — uint16 compressed payload size per non-constant block
   (Section 6.1's ``zsize_array``: the prefix sum gives every thread its
   start offset during parallel decompression);
4. **payloads** — per non-constant block:
   ``R (1 byte) | μ (itemsize) | packed leading codes | mid-bytes``;
5. **CRC32 footer** (only when the header's checksum flag is set) —
   4 bytes, little-endian, over every preceding stream byte.

``parse_stream`` treats its input as untrusted: every section boundary,
count, and cheap per-payload invariant is validated before any of it is
used, and violations raise :class:`~repro.core.errors.StreamFormatError`
subclasses naming the offending section and offset.  All offset
arithmetic is done in Python integers / int64, so adversarial headers
cannot overflow it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .. import observe
from .constants import FLAG_CHECKSUM, DtypeTraits
from .errors import (
    ChecksumError,
    PayloadFormatError,
    SectionFormatError,
    TruncatedStreamError,
)
from .header import StreamHeader, decode_header
from .safebytes import checked_frombuffer

#: Fixed per-payload prefix: required-length byte + μ.
def payload_prefix_size(traits: DtypeTraits) -> int:
    return 1 + traits.itemsize


def lead_section_size(block_len: int, traits: DtypeTraits) -> int:
    """Bytes used by the packed leading-code section of one block."""
    return (block_len * traits.lead_code_bits + 7) // 8


def payload_bound(
    n_values: int, n_blocks: int, block_size: int, traits: DtypeTraits
) -> int:
    """Worst-case payload bytes for *n_blocks* blocks of *n_values*.

    Per non-constant block the payload is ``R byte + mu + packed lead
    codes + mid-bytes`` and mid-bytes never exceed ``itemsize`` per
    value, so the bound is exact-by-construction, not a heuristic.
    """
    per_block = payload_prefix_size(traits) + lead_section_size(block_size, traits)
    return n_values * traits.itemsize + n_blocks * per_block


@dataclass
class StreamComponents:
    """All sections of an SZx stream, pre-assembly."""

    header: StreamHeader
    nonconst_mask: np.ndarray  # bool, one per block
    const_mu: np.ndarray       # data dtype, one per constant block
    zsizes: np.ndarray         # uint16, one per non-constant block
    payload: bytes             # concatenated non-constant payloads (a
                               # memoryview in split_blocks parts)
    #: How the user's bound resolved to the applied ABS bound (set by
    #: the compress path only — not serialized, None after parsing).
    bound: object | None = field(default=None, compare=False)

    def to_bytes(self) -> bytes:
        h = self.header
        if self.nonconst_mask.size != h.n_blocks:
            raise ValueError("type bitmap length mismatch")
        if self.const_mu.size != h.n_const:
            raise ValueError("constant-mu array length mismatch")
        if self.zsizes.size != h.n_nonconst:
            raise ValueError("zsize array length mismatch")
        if int(self.zsizes.sum(dtype=np.int64)) != len(self.payload):
            raise ValueError("payload length disagrees with zsize array")
        with observe.span("szx.assemble") as sp:
            bitmap = np.packbits(
                self.nonconst_mask.astype(np.uint8), bitorder="little"
            ).tobytes()
            body = b"".join(
                (
                    h.encode(),
                    bitmap,
                    np.ascontiguousarray(self.const_mu, dtype=h.traits.dtype).tobytes(),
                    np.ascontiguousarray(self.zsizes, dtype="<u2").tobytes(),
                    self.payload,
                )
            )
            if h.flags & FLAG_CHECKSUM:
                body += (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
            sp.set(bytes_out=len(body))
        return body


def _check_payload_invariants(
    header: StreamHeader,
    nonconst_mask: np.ndarray,
    zsizes: np.ndarray,
    payload_view: np.ndarray,
    payload_base: int,
) -> None:
    """Cheap vectorized per-payload checks (no lead-code unpacking).

    Validates, for every non-constant block: the payload is large enough
    for its fixed sections, the ``R`` byte is in ``[SE, fullbits]``, and
    the recorded ``zsize`` is consistent with the mid-byte count range
    that ``R`` and the lead-code width permit.  The exact mid-byte
    accounting (which needs the unpacked lead codes) is re-checked by the
    decoders; these bounds reject structurally impossible payloads before
    any decoding starts.
    """
    traits = header.traits
    n_nonconst = int(zsizes.size)
    if n_nonconst == 0:
        return
    z64 = zsizes.astype(np.int64)
    offsets = np.zeros(n_nonconst, dtype=np.int64)
    np.cumsum(z64[:-1], out=offsets[1:])

    block_lens = np.full(n_nonconst, header.block_size, dtype=np.int64)
    tail = header.n % header.block_size if header.n_blocks else 0
    if tail and bool(nonconst_mask[-1]):
        block_lens[-1] = tail

    prefix = payload_prefix_size(traits)
    lead_bytes = (block_lens * traits.lead_code_bits + 7) // 8
    fixed = prefix + lead_bytes

    def _fail(bad: np.ndarray, message: str) -> None:
        slot = int(np.argmax(bad))
        block_id = int(np.nonzero(nonconst_mask)[0][slot])
        raise PayloadFormatError(
            message.format(slot=slot, block=block_id, zsize=int(z64[slot])),
            section="payload", offset=payload_base + int(offsets[slot]),
        )

    too_small = z64 < fixed
    if too_small.any():
        _fail(
            too_small,
            "block {block}: zsize {zsize}B smaller than its fixed sections",
        )

    req = payload_view[offsets].astype(np.int64)
    bad_req = (req < traits.se_bits) | (req > traits.fullbits)
    if bad_req.any():
        _fail(
            bad_req,
            "block {block}: required length byte out of range "
            f"[{traits.se_bits}, {traits.fullbits}]",
        )

    nbytes = (req + (8 - req % 8) % 8) // 8
    mids = z64 - fixed
    max_mids = nbytes * block_lens
    min_mids = np.maximum(nbytes - traits.max_lead, 0) * block_lens
    impossible = (mids > max_mids) | (mids < min_mids)
    if impossible.any():
        _fail(
            impossible,
            "block {block}: zsize {zsize}B inconsistent with its "
            "required-length byte (mid-byte count out of range)",
        )


def parse_stream(buf: bytes, *, verify_checksum: bool = True) -> StreamComponents:
    """Split *buf* into its validated sections (no payload decoding).

    Raises a :class:`~repro.core.errors.StreamFormatError` subclass (all
    ``ValueError`` subclasses) on truncation, inconsistent section sizes,
    or structurally impossible payloads.  Bytes after the stream's
    recorded end are tolerated (enclosing containers rely on this).

    ``verify_checksum=False`` skips CRC verification of checksummed
    streams (used by the structural verifier, which reports the mismatch
    instead of raising).
    """
    buf = bytes(buf)
    with observe.span("szx.parse", bytes_in=len(buf)):
        return _parse_stream_impl(buf, verify_checksum=verify_checksum)


def _parse_stream_impl(buf: bytes, *, verify_checksum: bool) -> StreamComponents:
    header = decode_header(buf)
    traits = header.traits
    off = header.size

    bitmap_bytes = (header.n_blocks + 7) // 8
    end = off + bitmap_bytes
    bitmap = checked_frombuffer(
        buf, np.uint8, bitmap_bytes, off,
        section="type-bitmap", what="type bitmap",
    )
    all_bits = np.unpackbits(bitmap, bitorder="little")
    if bool(all_bits[header.n_blocks :].any()):
        raise SectionFormatError(
            "type bitmap has nonzero padding bits past the last block",
            section="type-bitmap", offset=off + bitmap_bytes - 1,
        )
    nonconst_mask = all_bits[: header.n_blocks].astype(bool)
    if int(nonconst_mask.sum()) != header.n_nonconst:
        raise SectionFormatError(
            f"type bitmap has {int(nonconst_mask.sum())} non-constant blocks "
            f"but header counts say {header.n_nonconst}",
            section="type-bitmap", offset=off,
        )
    off = end

    end = off + header.n_const * traits.itemsize
    const_mu = checked_frombuffer(
        buf, traits.dtype, header.n_const, off,
        section="const-mu", what="constant-mu array",
    )
    off = end

    end = off + header.n_nonconst * 2
    zsizes = checked_frombuffer(
        buf, "<u2", header.n_nonconst, off,
        section="zsize", what="zsize array",
    )
    off = end

    total = int(zsizes.sum(dtype=np.int64))
    if len(buf) < off + total:
        raise TruncatedStreamError(
            f"stream truncated in payload section "
            f"({len(buf)} < {off + total} bytes)",
            section="payload", offset=len(buf),
        )
    payload = buf[off : off + total]
    _check_payload_invariants(
        header,
        nonconst_mask,
        zsizes,
        np.frombuffer(payload, dtype=np.uint8),
        off,
    )

    if header.flags & FLAG_CHECKSUM:
        footer_end = off + total + 4
        if len(buf) < footer_end:
            raise TruncatedStreamError(
                "stream truncated in CRC32 footer",
                section="checksum", offset=len(buf),
            )
        if verify_checksum:
            stored = int.from_bytes(buf[off + total : footer_end], "little")
            actual = zlib.crc32(memoryview(buf)[: off + total]) & 0xFFFFFFFF
            if stored != actual:
                raise ChecksumError(
                    f"CRC32 mismatch: footer 0x{stored:08x}, "
                    f"content 0x{actual:08x}",
                    section="checksum", offset=off + total,
                )

    return StreamComponents(
        header=header,
        nonconst_mask=nonconst_mask,
        const_mu=const_mu,
        zsizes=zsizes.astype(np.uint16),
        payload=payload,
    )


def stream_end_offset(header: StreamHeader, zsize_total: int) -> int:
    """Total encoded size of a stream with *header* and *zsize_total*
    payload bytes (including the CRC footer when flagged)."""
    size = (
        header.size
        + (header.n_blocks + 7) // 8
        + header.n_const * header.traits.itemsize
        + header.n_nonconst * 2
        + zsize_total
    )
    if header.flags & FLAG_CHECKSUM:
        size += 4
    return size


def payload_offsets(zsizes: np.ndarray) -> np.ndarray:
    """Start offset of every non-constant payload (exclusive prefix sum).

    This is the prefix-sum step the paper's parallel decompressor performs
    so each thread can seek to its own blocks (Section 6.1).
    """
    out = np.zeros(zsizes.size + 1, dtype=np.int64)
    np.cumsum(zsizes.astype(np.int64), out=out[1:])
    return out


def split_blocks(comp: StreamComponents, edges) -> list[StreamComponents]:
    """Cut *comp* at block edges ``e0 <= e1 <= ... <= ek``.

    Part ``i`` holds the sections of blocks ``[e_i, e_{i+1})`` with a
    correct ``n``, ``n_blocks`` and ``n_const`` (empty runs give empty
    parts); its header has ``shape=()`` and ``flags=0``.  Part payloads
    are zero-copy views of ``comp.payload``.
    """
    header = comp.header
    edges = [int(e) for e in edges]
    if not edges or edges[0] < 0 or edges[-1] > header.n_blocks or any(
        a > b for a, b in zip(edges, edges[1:])
    ):
        raise ValueError(
            f"block edges {edges} are not ascending within "
            f"[0, {header.n_blocks}]"
        )
    nonconst_cum = np.zeros(header.n_blocks + 1, dtype=np.int64)
    np.cumsum(comp.nonconst_mask, out=nonconst_cum[1:])
    nc = nonconst_cum[edges].tolist()
    starts = payload_offsets(comp.zsizes)[nc].tolist()
    payload = memoryview(comp.payload)
    bs = header.block_size
    parts = []
    for i in range(len(edges) - 1):
        first, last = edges[i], edges[i + 1]
        c_lo, c_hi = first - nc[i], last - nc[i + 1]
        parts.append(StreamComponents(
            header=StreamHeader(
                traits=header.traits,
                n=min(last * bs, header.n) - min(first * bs, header.n),
                block_size=bs,
                err_bound=header.err_bound,
                n_blocks=last - first,
                n_const=c_hi - c_lo,
            ),
            nonconst_mask=comp.nonconst_mask[first:last],
            const_mu=comp.const_mu[c_lo:c_hi],
            zsizes=comp.zsizes[nc[i] : nc[i + 1]],
            payload=payload[starts[i] : starts[i + 1]],
        ))
    return parts


def join_blocks(parts, *, shape, flags: int) -> StreamComponents:
    """Glue consecutive block-range *parts* into one stream's components.

    The inverse of :func:`split_blocks`: sections concatenate, counts
    add up, and the header takes *shape* and *flags*.  Parts must share
    dtype, block size and bound, and only the last part holding blocks
    may end inside one (the ragged tail).
    """
    if not parts:
        raise ValueError("join_blocks needs at least one part")
    h0 = parts[0].header
    ragged = None
    for i, p in enumerate(parts):
        h = p.header
        if (h.traits, h.block_size, h.err_bound) != (
            h0.traits, h0.block_size, h0.err_bound
        ):
            raise ValueError(f"part {i} differs in dtype, block size or bound")
        if ragged is not None and h.n_blocks:
            raise ValueError(f"part {ragged} ends inside a block")
        if h.n != h.n_blocks * h.block_size:
            ragged = i
    return StreamComponents(
        header=StreamHeader(
            traits=h0.traits,
            n=sum(p.header.n for p in parts),
            block_size=h0.block_size,
            err_bound=h0.err_bound,
            n_blocks=sum(p.header.n_blocks for p in parts),
            n_const=sum(p.header.n_const for p in parts),
            shape=tuple(int(s) for s in shape),
            flags=flags,
        ),
        nonconst_mask=np.concatenate([p.nonconst_mask for p in parts]),
        const_mu=np.concatenate([p.const_mu for p in parts]),
        zsizes=np.concatenate([p.zsizes for p in parts]),
        payload=b"".join(p.payload for p in parts),
    )
