"""Fused-kernel stage chain: the single entry point to the SZx hot path.

This module is the production engine behind every consumer —
:class:`repro.codec.SZxCodec`, the thread pool (:mod:`repro.parallel.omp`),
the process pool (:mod:`repro.parallel.procpool`), the micro-batcher, and
``bench.stage_breakdown`` all route through :func:`compress_blocks` /
:func:`decompress_blocks`.  Three ideas organize it:

* **Fused batch passes.**  One pass over a ``(m, block_size)`` batch
  computes the normalized words, truncation shift, leading-XOR codes and
  per-value mid-byte counts together, instead of the separate array
  sweeps (and their temporaries) an unfused numpy encoder would
  make.  The leading-byte count uses threshold comparisons on the XOR
  words directly (``xor < 2^(8k)`` ⇔ at least ``n-k`` identical leading
  bytes), and mid-bytes are emitted per ``(lead, nbytes)`` *class run*
  with integer-gather ``take`` calls — ~4× faster than the boolean-mask
  gather it replaces.

* **Preallocated arenas.**  Every intermediate lives in a
  :class:`KernelArena`, a grow-only scratch allocator reused across
  batches; the numpy work happens through ``out=`` calls into arena
  views, so steady-state compression allocates almost nothing per call.
  Arenas are *not* thread-safe; each pool worker gets its own via the
  thread-local :func:`default_arena`.

* **A stage chain.**  The encode and decode paths are sequences of named
  :class:`KernelStage` objects run by a :class:`KernelChain`; each stage
  opens the tracing span of the same name (``block_stats``,
  ``encode_blocks``, ``encode_tail`` / ``broadcast_const``,
  ``decode_blocks``, ``decode_tail``), which is what
  ``bench.stage_breakdown(profile=True)`` surfaces.

The decompressor resolves the leading-byte *dependence chains* of
Section 6.2.2 with ``np.maximum.accumulate``: byte *j* of value *i* comes
from the most recent value ``i' <= i`` whose byte *j* was committed as a
mid-byte (``L_{i'} <= j``) — the sequential-scan equivalent of the
paper's GPU recursive-doubling index propagation (Figure 11).

Both directions are tested byte-identical to :mod:`repro.core.scalar`.
"""
# analyze: hot-path — float32-exact SZx kernel; no silent float64 upcasts

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import observe
from .blocks import BlockLayout, block_stats, validate_block_size
from .constants import FLAG_CHECKSUM, DtypeTraits, traits_for
from .errors import PayloadFormatError
from .header import StreamHeader
from .reqbits import required_bytes, required_length, shift_for, truncation_mask
from .scalar import _decode_nonconstant_block, _encode_nonconstant_block
from .stream import (
    StreamComponents,
    lead_section_size,
    payload_offsets,
    payload_prefix_size,
)

__all__ = [
    "KernelArena",
    "KernelStage",
    "KernelChain",
    "default_arena",
    "encode_batch",
    "decode_batch",
    "compress_blocks",
    "decompress_blocks",
    "ENCODE_CHAIN",
    "DECODE_CHAIN",
]


# ---------------------------------------------------------------------------
# Scratch arenas
# ---------------------------------------------------------------------------


class KernelArena:
    """Grow-only scratch allocator for the fused kernels.

    ``take(key, shape, dtype)`` returns a contiguous view of a cached
    flat buffer, reallocating only when the request outgrows (or changes
    the dtype of) what *key* already holds.  Views from earlier ``take``
    calls with the same key alias the same memory — by design: a batch
    uses each key exactly once, and the next batch reuses the bytes.

    One arena serves one thread.  Pool workers must not share an arena
    (use :func:`default_arena`, which is thread-local).
    """

    __slots__ = ("_bufs",)

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, key: str, shape, dtype) -> np.ndarray:
        """A contiguous uninitialized ``shape``/``dtype`` view for *key*."""
        if isinstance(shape, int):
            shape = (shape,)
        n = math.prod(shape)
        dtype = np.dtype(dtype)
        buf = self._bufs.get(key)
        if buf is None or buf.dtype != dtype or buf.size < n:
            buf = np.empty(n, dtype=dtype)
            self._bufs[key] = buf
        return buf[:n].reshape(shape)

    def reset(self) -> None:
        """Drop every cached buffer (frees the memory)."""
        self._bufs.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all keys."""
        return sum(b.nbytes for b in self._bufs.values())

    def __repr__(self):
        return f"KernelArena(keys={len(self._bufs)}, nbytes={self.nbytes})"


_LOCAL = threading.local()


def default_arena() -> KernelArena:
    """The calling thread's private :class:`KernelArena` (lazily built)."""
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = _LOCAL.arena = KernelArena()
    return arena


# ---------------------------------------------------------------------------
# Lead-code packing (shared with the stream verifier and the GPU simulator)
# ---------------------------------------------------------------------------


def _pack_lead_rows(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack an (m, bs) matrix of k-bit codes row-wise (LSB-first)."""
    m, bs = codes.shape
    if k == 2 and bs % 4 == 0:
        # Fast path for the float32 layout: four 2-bit codes per byte.
        quads = codes.reshape(m, bs // 4, 4).astype(np.uint8)
        return (
            quads[:, :, 0]
            | (quads[:, :, 1] << 2)
            | (quads[:, :, 2] << 4)
            | (quads[:, :, 3] << 6)
        )
    bits = (codes[..., None].astype(np.uint8) >> np.arange(k, dtype=np.uint8)) & 1
    return np.packbits(bits.reshape(m, bs * k), axis=1, bitorder="little")


def _unpack_lead_rows(packed: np.ndarray, k: int, bs: int) -> np.ndarray:
    """Inverse of :func:`_pack_lead_rows` for an (m, L) packed matrix."""
    if k == 2 and bs % 4 == 0 and packed.shape[1] == bs // 4:
        out = np.empty((packed.shape[0], bs // 4, 4), dtype=np.uint16)
        out[:, :, 0] = packed & 3
        out[:, :, 1] = (packed >> 2) & 3
        out[:, :, 2] = (packed >> 4) & 3
        out[:, :, 3] = packed >> 6
        return out.reshape(packed.shape[0], bs)
    bits = np.unpackbits(packed, axis=1, bitorder="little")[:, : bs * k]
    bits = bits.reshape(packed.shape[0], bs, k).astype(np.uint16)
    return (bits << np.arange(k, dtype=np.uint16)).sum(axis=2, dtype=np.uint16)


def _leading_counts_matrix(x: np.ndarray, traits: DtypeTraits) -> np.ndarray:
    """Identical-leading-byte counts for an XOR matrix, vectorized."""
    n = traits.itemsize
    count = np.zeros(x.shape, dtype=np.int8)
    for kept in range(1, n):
        count += (x >> traits.utype.type((n - kept) * 8)) == 0
    count += x == 0
    return count


# ---------------------------------------------------------------------------
# Fused batch encode
# ---------------------------------------------------------------------------


def encode_batch(
    body: np.ndarray,
    mu: np.ndarray,
    radius: np.ndarray,
    abs_bound: float,
    traits: DtypeTraits,
    *,
    arena: KernelArena | None = None,
):
    """Encode a ``(m, block_size)`` batch of non-constant blocks at once.

    Returns ``(payload_bytes, zsizes)``.  All intermediates live in
    *arena* (the caller thread's default arena when omitted); the single
    per-call allocation of consequence is the returned payload copy.
    """
    m, bs = body.shape
    n = traits.itemsize
    if m == 0:
        return b"", np.empty(0, dtype=np.int64)
    if arena is None:
        arena = default_arena()

    req = required_length(radius, abs_bound, traits)
    if observe.enabled():
        observe.histogram("szx.reqbits").observe_many(req)
    # Lossless fallback (as in the reference SZx): when every bit is kept,
    # mu is forced to zero so the normalization round trip is exact.
    mu = np.where(req == traits.fullbits, traits.dtype.type(0), mu)
    shift = shift_for(req).astype(traits.utype)
    nbytes = required_bytes(req)
    masks = truncation_mask(nbytes, traits)
    nb8 = nbytes.astype(np.uint8)

    # -- fused transform: normalize, byte-align, truncate, XOR, lead ----
    norm = arena.take("enc.norm", (m, bs), traits.dtype)
    np.subtract(body, mu[:, None], out=norm)
    shifted = norm.view(traits.utype)
    np.right_shift(shifted, shift[:, None], out=shifted)
    np.bitwise_and(shifted, masks[:, None], out=shifted)

    xor = arena.take("enc.xor", (m, bs), traits.utype)
    np.bitwise_xor(shifted[:, 1:], shifted[:, :-1], out=xor[:, 1:])
    xor[:, 0] = shifted[:, 0]  # first value XORs with 0

    # lead[i, v] = number of identical leading bytes of xor[i, v]:
    # at least k leading zero bytes  <=>  xor < 2^((n-k)*8).
    lead = arena.take("enc.lead", (m, bs), np.uint8)
    flags = arena.take("enc.flags", (m, bs), np.bool_)
    lead[:] = 0
    for kept in range(1, n):
        np.less(xor, 1 << ((n - kept) * 8), out=flags)
        lead += flags
    np.equal(xor, 0, out=flags)
    lead += flags
    np.minimum(lead, np.uint8(traits.max_lead), out=lead)
    np.minimum(lead, nb8[:, None], out=lead)

    packed = _pack_lead_rows(lead, traits.lead_code_bits)
    lead_bytes = packed.shape[1]

    # -- per-value mid-byte accounting and destination offsets ----------
    counts = arena.take("enc.counts", (m, bs), np.int32)
    np.subtract(nbytes.astype(np.int32)[:, None], lead, out=counts)
    inner = arena.take("enc.inner", (m, bs), np.int32)
    np.cumsum(counts, axis=1, out=inner)

    prefix = payload_prefix_size(traits)
    zsizes = inner[:, -1].astype(np.int64)
    zsizes += prefix + lead_bytes
    total = int(zsizes.sum())
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(zsizes[:-1], out=starts[1:])
    mid_starts = starts + (prefix + lead_bytes)

    # int32 positions gather measurably faster than int64; fall back only
    # when the payload (or the byte cube) could overflow them.
    pd = np.int32 if total < 2**31 and m * bs * n < 2**31 else np.int64
    dest0 = arena.take("enc.dest0", (m, bs), pd)
    np.subtract(inner, counts, out=dest0)  # exclusive per-value cumsum
    dest0 += mid_starts[:, None]
    dest0 -= lead  # first mid-byte position minus the lead count

    out = arena.take("enc.payload", total, np.uint8)

    # -- header scatter: req byte, mu bytes, packed lead section --------
    out[starts] = req.astype(np.uint8)
    mu_bytes = np.ascontiguousarray(mu, dtype=traits.dtype).view(np.uint8)
    out[starts[:, None] + (1 + np.arange(n, dtype=np.int64))] = (
        mu_bytes.reshape(m, n)
    )
    out[starts[:, None] + (prefix + np.arange(lead_bytes, dtype=np.int64))] = (
        packed
    )

    # -- mid-byte emission by (lead, nbytes) class runs ------------------
    # Values sharing a class commit the same big-endian byte positions
    # [L, nb); one integer gather per byte position per class replaces the
    # old (m, bs, n) boolean-mask gather.  Little-endian byte cube: BE
    # position j of a word is LE byte n-1-j.
    cube_flat = shifted.view(np.uint8).reshape(-1)
    dest0_flat = dest0.reshape(-1)
    lead_flat = lead.reshape(-1)
    dbuf = arena.take("enc.d", m * bs, pd)
    sbuf = arena.take("enc.s", m * bs, pd)
    vbuf = arena.take("enc.v", m * bs, np.uint8)

    nb_lo, nb_hi = int(nb8.min()), int(nb8.max())
    if nb_lo == nb_hi:
        # Uniform byte count: classes are the lead values alone.
        classes = [
            (L, nb_lo, np.flatnonzero(lead_flat == L))
            for L in range(min(nb_lo, n))
        ]
    else:
        key = arena.take("enc.key", (m, bs), np.int16)
        key[:] = lead
        key *= n + 1
        key += nb8[:, None]
        key_flat = key.reshape(-1)
        occupied = np.flatnonzero(
            np.bincount(key_flat, minlength=(n + 1) * (n + 1))
        )
        classes = [
            (int(k) // (n + 1), int(k) % (n + 1), np.flatnonzero(key_flat == k))
            for k in occupied
            if int(k) // (n + 1) < int(k) % (n + 1)
        ]

    for L, nb, ids in classes:
        K = ids.size
        if K == 0:
            continue
        ids = ids.astype(pd, copy=False)
        d = dbuf[:K]
        dest0_flat.take(ids, out=d, mode="clip")
        d += L
        s = sbuf[:K]
        np.multiply(ids, n, out=s)
        s += n - 1 - L
        v = vbuf[:K]
        for j in range(L, nb):
            cube_flat.take(s, out=v, mode="clip")
            out[d] = v
            if j + 1 < nb:
                d += 1
                s -= 1

    return out.tobytes(), zsizes


# ---------------------------------------------------------------------------
# Fused batch decode
# ---------------------------------------------------------------------------


def decode_batch(
    payload_u8: np.ndarray,
    starts: np.ndarray,
    bs: int,
    traits: DtypeTraits,
    *,
    ends: np.ndarray | None = None,
    arena: KernelArena | None = None,
):
    """Decode a batch of full-size non-constant blocks to an (m, bs) array.

    *starts*/*ends* are each block's payload boundaries.  Every invariant
    the gather below relies on is validated first, so corrupt payloads
    raise :class:`~repro.core.errors.PayloadFormatError` rather than
    reading out of bounds.  *ends* may be omitted by trusted callers
    that already know the payload is self-consistent.
    """
    m = starts.size
    itemsize = traits.itemsize
    if m == 0:
        return np.empty((0, bs), dtype=traits.dtype)
    if arena is None:
        arena = default_arena()

    req = payload_u8[starts].astype(np.int64)
    if (req < traits.se_bits).any() or (req > traits.fullbits).any():
        raise PayloadFormatError(
            "required length byte out of range", section="payload"
        )
    shift = shift_for(req)
    nbytes = required_bytes(req).astype(np.int8)

    idx = starts[:, None] + 1 + np.arange(itemsize, dtype=np.int64)
    mu = np.ascontiguousarray(payload_u8[idx]).view(traits.dtype).reshape(m)

    prefix = payload_prefix_size(traits)
    lead_bytes = lead_section_size(bs, traits)
    idx = starts[:, None] + prefix + np.arange(lead_bytes, dtype=np.int64)
    lead = _unpack_lead_rows(
        np.ascontiguousarray(payload_u8[idx]), traits.lead_code_bits, bs
    ).astype(np.int8)
    if (lead > nbytes[:, None]).any():
        raise PayloadFormatError(
            "leading count exceeds the required byte count", section="payload"
        )

    counts = nbytes[:, None] - lead
    if ends is not None:
        expected_mids = counts.sum(axis=1, dtype=np.int64)
        actual_mids = ends - starts - prefix - lead_bytes
        if (expected_mids != actual_mids).any():
            raise PayloadFormatError(
                "mid-byte count disagrees with the leading-code accounting",
                section="payload",
            )
    mid_starts = starts + prefix + lead_bytes
    pos_dtype = np.int32 if payload_u8.size < 2**31 else np.int64
    # Global payload position of every value's first mid-byte, minus its
    # lead count: byte j of a provider value lives at mid_pos + (j - lead),
    # so precomputing (mid_pos - lead) leaves one gather per byte position.
    mid_minus_lead = (
        mid_starts[:, None]
        + np.cumsum(counts, axis=1, dtype=pos_dtype)
        - counts
        - lead
    ).astype(pos_dtype, copy=False)

    value_index = np.arange(bs, dtype=np.int32)[None, :]
    # Little-endian byte cube: big-endian position j -> axis index n-1-j.
    cube = arena.take("dec.cube", (m, bs, itemsize), np.uint8)
    cube[...] = 0
    for j in range(itemsize):
        present = nbytes > j  # rows whose words have a byte at position j
        if not present.any():
            continue
        # An all-true mask degrades to a slice: boolean row indexing would
        # copy every operand matrix for nothing (bytes 0..1 always exist).
        rows = slice(None) if present.all() else present
        # Index propagation: provider of byte j for each value is the most
        # recent value whose lead count does not cover byte j (the
        # dependence-chain recurrence of Section 6.2.2, Figure 11).
        provider = np.maximum.accumulate(
            np.where(lead[rows] <= j, value_index, -1), axis=1
        )
        valid = provider >= 0
        prov = np.where(valid, provider, 0)
        src = np.take_along_axis(mid_minus_lead[rows], prov, axis=1) + j
        cube[rows, :, itemsize - 1 - j] = payload_u8[src] * valid

    words = cube.reshape(m, bs * itemsize).view(traits.utype).reshape(m, bs)
    words <<= shift.astype(traits.utype)[:, None]
    return words.view(traits.dtype) + mu[:, None]


# ---------------------------------------------------------------------------
# Stage chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelStage:
    """One named step of a kernel chain.

    ``fn`` mutates the chain context dict in place; its tracing span
    carries the stage's name, so a chain's structure is visible in
    ``bench.stage_breakdown`` output without the stages knowing about
    benchmarking.
    """

    name: str
    fn: Callable[[dict], None]


class KernelChain:
    """An ordered sequence of :class:`KernelStage` run over one context.

    The context is a plain dict seeded by the entry point
    (:func:`compress_blocks` / :func:`decompress_blocks`) with the
    input, layout, traits, and arena; stages read and extend it.
    """

    def __init__(self, name: str, stages: tuple[KernelStage, ...]):
        self.name = name
        self.stages = tuple(stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: dict) -> dict:
        for stage in self.stages:
            stage.fn(ctx)
        return ctx

    def __repr__(self):
        return f"KernelChain({self.name!r}, stages={list(self.stage_names)})"


# -- encode stages ----------------------------------------------------------


def _stage_block_stats(ctx: dict) -> None:
    flat = ctx["flat"]
    with observe.span("block_stats", bytes_in=int(flat.nbytes)):
        mu, radius = block_stats(flat, ctx["layout"])
    nonconst_mask = radius > ctx["abs_bound"]
    ctx["mu"], ctx["radius"] = mu, radius
    ctx["nonconst_mask"] = nonconst_mask
    if observe.enabled():
        n_nonconst = int(nonconst_mask.sum())
        observe.counter("szx.blocks.nonconstant").inc(n_nonconst)
        observe.counter("szx.blocks.constant").inc(
            ctx["layout"].n_blocks - n_nonconst
        )


def _stage_encode_blocks(ctx: dict) -> None:
    layout, bs = ctx["layout"], ctx["block_size"]
    flat, mask = ctx["flat"], ctx["nonconst_mask"]
    nf = layout.n_full
    body_mask = mask[:nf]
    body = flat[: nf * bs].reshape(nf, bs)[body_mask]
    with observe.span("encode_blocks", bytes_in=int(body.nbytes)) as sp:
        payload, zsizes = encode_batch(
            body,
            ctx["mu"][:nf][body_mask],
            ctx["radius"][:nf][body_mask],
            ctx["abs_bound"],
            ctx["traits"],
            arena=ctx["arena"],
        )
        sp.set(bytes_out=len(payload))
    ctx["payload_parts"] = [payload]
    ctx["zsize_list"] = [zsizes]


def _stage_encode_tail(ctx: dict) -> None:
    layout, bs = ctx["layout"], ctx["block_size"]
    if not (layout.tail and ctx["nonconst_mask"][-1]):
        return
    with observe.span("encode_tail"):
        tail_payload = _encode_nonconstant_block(
            ctx["flat"][layout.n_full * bs :],
            ctx["mu"][-1],
            ctx["radius"][-1],
            ctx["abs_bound"],
        )
    ctx["payload_parts"].append(tail_payload)
    ctx["zsize_list"].append(np.asarray([len(tail_payload)], dtype=np.int64))


ENCODE_CHAIN = KernelChain(
    "szx.encode",
    (
        KernelStage("block_stats", _stage_block_stats),
        KernelStage("encode_blocks", _stage_encode_blocks),
        KernelStage("encode_tail", _stage_encode_tail),
    ),
)


# -- decode stages ----------------------------------------------------------


def _stage_broadcast_const(ctx: dict) -> None:
    comp, layout = ctx["components"], ctx["layout"]
    bs, out = ctx["block_size"], ctx["out"]
    nonconst = comp.nonconst_mask
    if observe.enabled():
        n_nonconst = int(nonconst.sum())
        observe.counter("szx.decode.blocks.nonconstant").inc(n_nonconst)
        observe.counter("szx.decode.blocks.constant").inc(
            layout.n_blocks - n_nonconst
        )
    # Broadcast constant blocks: every value of a constant block is mu.
    with observe.span("broadcast_const"):
        const_ids = np.nonzero(~nonconst)[0]
        if const_ids.size:
            full_const = const_ids[const_ids < layout.n_full]
            if full_const.size:
                view = out[: layout.n_full * bs].reshape(layout.n_full, bs)
                view[full_const] = comp.const_mu[: full_const.size, None]
            if layout.tail and const_ids[-1] == layout.n_blocks - 1:
                out[layout.n_full * bs :] = comp.const_mu[-1]

    nonconst_ids = np.nonzero(nonconst)[0]
    tail_is_nonconst = bool(
        layout.tail > 0
        and nonconst_ids.size
        and nonconst_ids[-1] == layout.n_blocks - 1
    )
    ctx["nonconst_ids"] = nonconst_ids
    ctx["tail_is_nonconst"] = tail_is_nonconst
    ctx["n_full_nc"] = nonconst_ids.size - (1 if tail_is_nonconst else 0)


def _stage_decode_blocks(ctx: dict) -> None:
    comp, layout = ctx["components"], ctx["layout"]
    bs, out = ctx["block_size"], ctx["out"]
    offsets, n_full_nc = ctx["offsets"], ctx["n_full_nc"]
    with observe.span("decode_blocks", bytes_in=len(comp.payload)) as sp:
        decoded = decode_batch(
            ctx["payload_u8"],
            offsets[:n_full_nc].astype(np.int64),
            bs,
            ctx["traits"],
            ends=offsets[1 : n_full_nc + 1].astype(np.int64),
            arena=ctx["arena"],
        )
        sp.set(bytes_out=int(decoded.nbytes))
    if n_full_nc:
        view = out[: layout.n_full * bs].reshape(layout.n_full, bs)
        view[ctx["nonconst_ids"][:n_full_nc]] = decoded


def _stage_decode_tail(ctx: dict) -> None:
    if not ctx["tail_is_nonconst"]:
        return
    comp, layout, offsets = ctx["components"], ctx["layout"], ctx["offsets"]
    with observe.span("decode_tail"):
        start, end = int(offsets[-2]), int(offsets[-1])
        ctx["out"][layout.n_full * ctx["block_size"] :] = (
            _decode_nonconstant_block(
                comp.payload[start:end], layout.tail, ctx["traits"]
            )
        )


DECODE_CHAIN = KernelChain(
    "szx.decode",
    (
        KernelStage("broadcast_const", _stage_broadcast_const),
        KernelStage("decode_blocks", _stage_decode_blocks),
        KernelStage("decode_tail", _stage_decode_tail),
    ),
)


# ---------------------------------------------------------------------------
# Single-entry kernel API
# ---------------------------------------------------------------------------


def compress_blocks(
    data: np.ndarray,
    abs_bound: float,
    block_size: int,
    *,
    checksum: bool = False,
    arena: KernelArena | None = None,
) -> StreamComponents:
    """Compress *data* under absolute bound *abs_bound* via the fused chain.

    This is the single entry point to the SZx encode hot path; every
    engine/backend routes through it.  *arena* defaults to the calling
    thread's :func:`default_arena`.
    """
    traits = traits_for(data.dtype)
    block_size = validate_block_size(block_size)
    flat = np.ascontiguousarray(data).reshape(-1)
    layout = BlockLayout(flat.size, block_size)
    flags = FLAG_CHECKSUM if checksum else 0
    shape = tuple(int(s) for s in np.shape(data))

    if flat.size == 0:
        header = StreamHeader(
            traits=traits,
            n=0,
            block_size=block_size,
            err_bound=float(abs_bound),
            n_blocks=0,
            n_const=0,
            shape=shape,
            flags=flags,
        )
        return StreamComponents(
            header,
            np.zeros(0, dtype=bool),
            np.empty(0, dtype=traits.dtype),
            np.empty(0, dtype=np.uint16),
            b"",
        )

    ctx = ENCODE_CHAIN.run({
        "flat": flat,
        "layout": layout,
        "block_size": block_size,
        "abs_bound": abs_bound,
        "traits": traits,
        "arena": arena if arena is not None else default_arena(),
    })

    nonconst_mask = ctx["nonconst_mask"]
    all_zsizes = np.concatenate(ctx["zsize_list"])
    header = StreamHeader(
        traits=traits,
        n=flat.size,
        block_size=block_size,
        err_bound=float(abs_bound),
        n_blocks=layout.n_blocks,
        n_const=layout.n_blocks - int(nonconst_mask.sum()),
        shape=shape,
        flags=flags,
    )
    return StreamComponents(
        header=header,
        nonconst_mask=nonconst_mask,
        const_mu=ctx["mu"][~nonconst_mask],
        zsizes=all_zsizes.astype(np.uint16),
        payload=b"".join(ctx["payload_parts"]),
    )


def decompress_blocks(
    components: StreamComponents,
    *,
    arena: KernelArena | None = None,
) -> np.ndarray:
    """Reconstruct the dataset from parsed *components* via the fused chain."""
    header = components.header
    ctx = DECODE_CHAIN.run({
        "components": components,
        "layout": BlockLayout(header.n, header.block_size),
        "block_size": header.block_size,
        "traits": header.traits,
        "out": np.empty(header.n, dtype=header.traits.dtype),
        "offsets": payload_offsets(components.zsizes),
        "payload_u8": np.frombuffer(components.payload, dtype=np.uint8),
        "arena": arena if arena is not None else default_arena(),
    })
    out = ctx["out"]
    if header.shape:
        return out.reshape(header.shape)
    return out
