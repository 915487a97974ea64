"""Fused-kernel stage chain: the single entry point to the SZx hot path.

This module is the production engine behind every consumer —
:class:`repro.codec.SZxCodec`, the thread pool (:mod:`repro.parallel.omp`),
the process pool (:mod:`repro.parallel.procpool`), the micro-batcher, and
``bench.stage_breakdown`` all route through :func:`compress_blocks` /
:func:`decompress_blocks`.  Three ideas organize it:

* **Fused batch passes, one compaction.**  One pass over a
  ``(m, block_size)`` batch computes the normalized words, truncation
  shift, leading-XOR codes and lead counts together, instead of the
  separate array sweeps (and their temporaries) an unfused numpy
  encoder would make.  The leading-byte count uses threshold
  comparisons on the XOR words directly (``xor < 2^(8k)`` ⇔ at least
  ``n-k`` identical leading bytes).  Emission is then one stream
  compaction, the numpy form of the paper's byte-aligned straight copy
  (Solution C, Section 5.1): each block becomes a record of its header
  bytes and its big-endian words, a keep mask marks the header and
  every word byte ``lead <= j < nbytes``, and one ``np.compress`` writes
  the whole batch's payloads back to back.

* **Cache-blocked batches, one payload buffer.**  The chain never hands
  the kernels the whole input: ``encode_blocks``/``decode_blocks`` loop
  over batches of :data:`BATCH_BYTES` (~1 MiB) of non-constant full
  blocks, the CPU form of the paper's per-block streaming loop (Section
  6.1).  Every intermediate lives in a :class:`KernelArena`, a grow-only
  scratch allocator reused across batches, so its size is set by the
  batch rather than the input and stays cache-resident; the numpy work
  happens through ``out=`` calls into arena views.  Encode writes each
  batch's payloads into the next slice of one buffer sized by the
  format's worst case (:func:`~repro.core.stream.payload_bound`); decode
  gives each batch its own payload slice with batch-relative bounds.
  Arenas are *not* thread-safe; each pool worker gets its own via the
  thread-local :func:`default_arena`.

* **A stage chain.**  The encode and decode paths are sequences of named
  :class:`KernelStage` objects run by a :class:`KernelChain`; each stage
  opens the tracing span of the same name (``block_stats``,
  ``encode_blocks``, ``encode_tail`` / ``broadcast_const``,
  ``decode_blocks``, ``decode_tail``), which is what
  ``bench.stage_breakdown`` surfaces.

The decompressor is the encoder run backwards.  It builds the same keep
mask, scatters each batch's payload into the same per-block records
through it (the inverse of ``np.compress``), and byte-swaps the word
columns into native words whose lead bytes are still zero.  It then
resolves the leading-byte *dependence chains* of Section 6.2.2 with the
paper's recursive doubling (Figure 11), applied to values instead of
indices.
Value *i* is ``P[i] | (value[i-1] & M[i])``, where ``M[i]`` masks its
lead bytes.  Each round at ``s = 1, 2, 4, ...`` composes every value's
map with the one ``s`` values back, so ``ceil(log2(block_size))`` rounds
over the flat batch settle every chain.

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
    payload_bound,
    payload_offsets,
    payload_prefix_size,
)

__all__ = [
    "BATCH_BYTES",
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


#: Input bytes per encode/decode batch.  The chain hands the batch kernels
#: ``max(1, BATCH_BYTES // (block_size * itemsize))`` blocks at a time, so
#: every arena view stays cache-sized whatever the input size.  On a 64 MiB
#: field, 256 KiB to 1 MiB batches compress ~1.1-1.8x and decompress
#: ~1.35-2.2x faster than one input-sized batch over four sweeps
#: (``results/ablation_kernel_batch.txt`` holds the last).  With the scan
#: decoder, the sweep's decode column peaked at 128-512 KiB instead of
#: 1 MiB in all four, but an interleaved chain-level run read decompress
#: flat (108-116 MB/s) from 256 KiB to 2 MiB, so the size stays.
BATCH_BYTES = 1 << 20


def _batch_blocks(block_size: int, traits: DtypeTraits) -> int:
    """Blocks per kernel batch for *block_size*-value blocks."""
    return max(1, BATCH_BYTES // (block_size * traits.itemsize))


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


def _unpack_lead_rows(
    packed: np.ndarray, k: int, bs: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of :func:`_pack_lead_rows` for an (m, L) packed matrix.

    Codes come in groups of ``8 / gcd(k, 8)`` that fill whole bytes (four
    2-bit codes per byte, eight 3-bit codes per three bytes): each group
    is read as one little-endian integer and its codes are shifted out
    column by column.  Writes into *out* (any ``(m, bs)`` integer array)
    when given, else returns a fresh uint16 matrix.
    """
    m = packed.shape[0]
    per = 8 // math.gcd(k, 8)
    group_bytes = per * k // 8
    groups = -(-bs // per)
    if packed.shape[1] < groups * group_bytes:  # ragged last group
        padded = np.zeros((m, groups * group_bytes), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        packed = padded
    grouped = packed[:, : groups * group_bytes].reshape(m, groups, group_bytes)
    wtype = np.uint32 if group_bytes <= 4 else np.uint64
    word = grouped[:, :, 0].astype(wtype)
    for b in range(1, group_bytes):
        word |= grouped[:, :, b].astype(wtype) << (8 * b)
    if out is None:
        out = np.empty((m, bs), dtype=np.uint16)
    full = bs // per
    codes = out[:, : full * per].reshape(m, full, per)
    mask = (1 << k) - 1
    for t in range(per):
        np.bitwise_and(word[:, :full] >> (k * t), mask, out=codes[:, :, t],
                       casting="unsafe")
    for t in range(bs - full * per):
        out[:, full * per + t] = (word[:, full] >> (k * t)) & mask
    return out


def _leading_counts_matrix(
    x: np.ndarray, traits: DtypeTraits, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Identical-leading-byte counts for an XOR matrix, vectorized.

    At least k leading zero bytes  <=>  ``x < 2^((n-k)*8)``, so the count
    is a sum of threshold comparisons.  Returns int8 counts, or fills and
    returns *out* (any integer dtype of ``x``'s shape).
    """
    n = traits.itemsize
    count = np.empty(x.shape, dtype=np.int8) if out is None else out
    np.equal(x, 0, out=count)
    flags = np.empty(x.shape, dtype=np.bool_)
    for kept in range(1, n):
        np.less(x, 1 << ((n - kept) * 8), out=flags)
        count += flags
    return count


# ---------------------------------------------------------------------------
# Block records: the layout both batch kernels share
# ---------------------------------------------------------------------------


def _keep_mask(
    keep: np.ndarray,
    lead: np.ndarray,
    nbytes: np.ndarray,
    head: int,
    traits: DtypeTraits,
    scratch: np.ndarray,
) -> np.ndarray:
    """Mark which bytes of each block record its payload holds.

    A batch's records are the rows of an ``(m, head + bs*itemsize)``
    uint8 matrix: the ``head`` header bytes, then every value's
    big-endian word.  The payload keeps the header and word byte ``j`` of
    a value iff ``lead <= j < nbytes`` (Formula (5)), so ``np.compress``
    through *keep* emits a batch and a masked assignment through it is
    the inverse.  The word columns are filled one word per value: 0x01
    in each kept byte, written through a big-endian view.  *scratch* is
    an ``(m, bs)`` word-typed matrix; it is returned holding each
    value's non-lead mask ``~0 >> 8*lead``.
    """
    keep[:, :head] = True
    np.left_shift(lead, 3, out=scratch)
    np.right_shift(np.iinfo(traits.utype).max, scratch, out=scratch)
    ones = traits.utype.type(int.from_bytes(b"\x01" * traits.itemsize, "little"))
    kept = truncation_mask(nbytes, traits) & ones
    np.bitwise_and(
        scratch, kept[:, None], out=keep[:, head:].view(traits.utype.newbyteorder(">"))
    )
    return scratch


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
    out: np.ndarray,
    arena: KernelArena | None = None,
) -> np.ndarray:
    """Encode a ``(m, block_size)`` batch of non-constant blocks into *out*.

    The payloads land back to back from ``out[0]``; *out* is a uint8
    buffer of at least :func:`~repro.core.stream.payload_bound` bytes
    for the batch.  Returns the per-block zsizes (int64), so the payload
    is ``out[:zsizes.sum()]``.  The word, lead, record and keep-mask
    matrices live in *arena* (the caller thread's default arena when
    omitted).
    """
    m, bs = body.shape
    n = traits.itemsize
    if m == 0:
        return np.empty(0, dtype=np.int64)
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
    norm = arena.take("words", (m, bs), traits.dtype)
    np.subtract(body, mu[:, None], out=norm)
    shifted = norm.view(traits.utype)
    np.right_shift(shifted, shift[:, None], out=shifted)
    np.bitwise_and(shifted, masks[:, None], out=shifted)

    xor = arena.take("xor", (m, bs), traits.utype)
    np.bitwise_xor(shifted[:, 1:], shifted[:, :-1], out=xor[:, 1:])
    xor[:, 0] = shifted[:, 0]  # first value XORs with 0

    lead = _leading_counts_matrix(
        xor, traits, out=arena.take("lead", (m, bs), np.uint8)
    )
    np.minimum(lead, np.uint8(traits.max_lead), out=lead)
    np.minimum(lead, nb8[:, None], out=lead)

    packed = _pack_lead_rows(lead, traits.lead_code_bits)
    prefix = payload_prefix_size(traits)
    head = prefix + packed.shape[1]

    # -- one compaction: per-block records through a keep mask ----------
    # Each block's record is [req | mu | packed lead codes | big-endian
    # words]; the record's kept bytes are exactly its payload, so one
    # row-major np.compress emits the whole batch back to back.
    rec = arena.take("rec", (m, head + bs * n), np.uint8)
    rec[:, 0] = req
    mu_bytes = np.ascontiguousarray(mu, dtype=traits.dtype).view(np.uint8)
    rec[:, 1:prefix] = mu_bytes.reshape(m, n)
    rec[:, prefix:head] = packed
    # The copy through a big-endian view is the byte swap.
    rec[:, head:].view(traits.utype.newbyteorder(">"))[...] = shifted

    keep = arena.take("keep", rec.shape, np.bool_)
    _keep_mask(keep, lead, nbytes, head, traits, scratch=xor)

    zsizes = head + bs * nbytes - lead.sum(axis=1, dtype=np.int64)
    np.compress(keep.reshape(-1), rec.reshape(-1), out=out[: int(zsizes.sum())])
    return zsizes


# ---------------------------------------------------------------------------
# Fused batch decode
# ---------------------------------------------------------------------------


def decode_batch(
    payload_u8: np.ndarray,
    starts: np.ndarray,
    bs: int,
    traits: DtypeTraits,
    *,
    ends: np.ndarray,
    arena: KernelArena | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Decode a batch of full-size non-constant blocks to an (m, bs) array.

    The inverse of :func:`encode_batch`.  Block *i*'s payload is
    ``payload_u8[starts[i]:ends[i]]`` and the payloads lie back to back
    (``starts[1:] == ends[:-1]``; the chain passes one batch's slice with
    batch-relative bounds).  Every invariant the scatter relies on is
    validated first, so corrupt payloads raise
    :class:`~repro.core.errors.PayloadFormatError` rather than reading
    out of bounds.  All ``(m, bs)`` work happens in *arena*, in the
    buffers :func:`encode_batch` uses (same keys, shapes and dtypes), so
    a thread that does both holds one set.  The values land in *out*
    (an ``(m, bs)`` array of the dtype) when given, else in a fresh array.
    """
    m = starts.size
    if m == 0:
        return np.empty((0, bs), dtype=traits.dtype)
    if arena is None:
        arena = default_arena()
    if (starts[1:] != ends[:-1]).any():
        raise ValueError("decode_batch needs back-to-back block payloads")
    ut = traits.utype
    prefix = payload_prefix_size(traits)
    head = prefix + lead_section_size(bs, traits)
    if starts[0] < 0 or ends[-1] > payload_u8.size:
        raise PayloadFormatError(
            "payload slice shorter than its block accounting", section="payload"
        )
    if (ends - starts < head).any():
        raise PayloadFormatError(
            "block payload shorter than its fixed sections", section="payload"
        )

    # -- headers: req, mu and lead codes of every block -----------------
    hdr = np.lib.stride_tricks.sliding_window_view(payload_u8, head)[starts]
    req = hdr[:, 0].astype(np.int64)
    if (req < traits.se_bits).any() or (req > traits.fullbits).any():
        raise PayloadFormatError(
            "required length byte out of range", section="payload"
        )
    nbytes = required_bytes(req)
    mu = np.ascontiguousarray(hdr[:, 1:prefix]).view(traits.dtype).reshape(m)
    lead = _unpack_lead_rows(
        hdr[:, prefix:], traits.lead_code_bits, bs,
        out=arena.take("lead", (m, bs), np.uint8),
    )
    if (lead.max(axis=1) > nbytes).any():
        raise PayloadFormatError(
            "leading count exceeds the required byte count", section="payload"
        )
    if (head + bs * nbytes - lead.sum(axis=1, dtype=np.int64) != ends - starts).any():
        raise PayloadFormatError(
            "mid-byte count disagrees with the leading-code accounting",
            section="payload",
        )

    # -- one scatter: the inverse of the encoder's compaction -----------
    rec = arena.take("rec", (m, head + bs * traits.itemsize), np.uint8)
    keep = arena.take("keep", rec.shape, np.bool_)
    lead_mask = _keep_mask(
        keep, lead, nbytes, head, traits, scratch=arena.take("xor", (m, bs), ut)
    )
    rec.fill(0)
    # The accounting above makes keep's count equal the slice's length.
    # Indexing through the kept positions costs ~3 ms per 1 MiB batch
    # against ~6 ms for a boolean-mask assignment, which copies run by
    # run.  The index is int64, 8 bytes per payload byte, so the scatter
    # walks 128 KiB row groups of the records to keep it within 1 MiB.
    step = max(1, (128 << 10) // rec.shape[1])
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        rec[lo:hi].reshape(-1)[np.flatnonzero(keep[lo:hi])] = (
            payload_u8[starts[lo] : ends[hi - 1]]
        )
    words = arena.take("words", (m, bs), traits.dtype).view(ut)
    words[...] = rec[:, head:].view(ut.newbyteorder(">"))

    # -- dependence chains: word-level recursive doubling (Figure 11) ---
    # Value i is P[i] | (value[i-1] & M[i]), with M[i] its lead bytes and
    # P[i] its mid-bytes (lead bytes still zero).  Round s composes each
    # value's map with the one s values back, so after the rounds at
    # s = 1, 2, 4, ... P holds every value.  M is zero at each block's
    # first value (its lead bytes are zero), so chains stop there and
    # the flat scan never mixes blocks.
    np.invert(lead_mask, out=lead_mask)
    lead_mask[:, 0] = 0
    p, mk = words.reshape(-1), lead_mask.reshape(-1)
    tmp = arena.take("body", (m, bs), traits.dtype).view(ut).reshape(-1)
    s = 1
    while s < bs and mk.any():
        np.bitwise_and(p[:-s], mk[s:], out=tmp[s:])
        np.bitwise_or(p[s:], tmp[s:], out=p[s:])
        np.bitwise_and(mk[s:], mk[:-s], out=tmp[s:])
        tmp[:s] = 0  # finished values: keep stale words out of mk.any()
        mk, tmp = tmp, mk
        s <<= 1

    words <<= shift_for(req).astype(ut)[:, None]
    # A valid stream decodes finite words and μ, so the add sees no NaN.
    # A corrupted payload without a checksum can carry NaN/inf bit
    # patterns; decoding them to NaN is the documented outcome there.
    with np.errstate(invalid="ignore"):
        return np.add(words.view(traits.dtype), mu[:, None], out=out)


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
    layout, bs, traits = ctx["layout"], ctx["block_size"], ctx["traits"]
    flat, mask, arena = ctx["flat"], ctx["nonconst_mask"], ctx["arena"]
    nf = layout.n_full
    rows = flat[: nf * bs].reshape(nf, bs)
    ids = np.flatnonzero(mask[:nf])
    # One worst-case buffer per call; each batch fills the next slice.
    payload = np.empty(payload_bound(flat.size, layout.n_blocks, bs, traits), np.uint8)
    zsizes = np.empty(int(mask.sum()), dtype=np.uint16)
    step, pos = _batch_blocks(bs, traits), 0
    with observe.span("encode_blocks", bytes_in=ids.size * bs * traits.itemsize) as sp:
        for lo in range(0, ids.size, step):
            batch = ids[lo : lo + step]
            body = arena.take("body", (batch.size, bs), traits.dtype)
            rows.take(batch, axis=0, out=body, mode="clip")
            z = encode_batch(
                body, ctx["mu"][batch], ctx["radius"][batch], ctx["abs_bound"],
                traits, out=payload[pos:], arena=arena,
            )
            zsizes[lo : lo + batch.size] = z
            pos += int(z.sum())
        sp.set(bytes_out=pos)
    ctx["payload"], ctx["payload_len"], ctx["zsizes"] = payload, pos, zsizes


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
    pos, end = ctx["payload_len"], ctx["payload_len"] + len(tail_payload)
    ctx["payload"][pos:end] = np.frombuffer(tail_payload, np.uint8)
    ctx["payload_len"] = end
    ctx["zsizes"][-1] = len(tail_payload)


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
    comp, layout, traits = ctx["components"], ctx["layout"], ctx["traits"]
    bs, offsets, n_full_nc = ctx["block_size"], ctx["offsets"], ctx["n_full_nc"]
    rows = ctx["out"][: layout.n_full * bs].reshape(layout.n_full, bs)
    step = _batch_blocks(bs, traits)
    with observe.span("decode_blocks", bytes_in=len(comp.payload)) as sp:
        for lo in range(0, n_full_nc, step):
            hi = min(lo + step, n_full_nc)
            # Batch-relative boundaries: the ends check runs on every batch.
            bounds = offsets[lo : hi + 1] - offsets[lo]
            ids = ctx["nonconst_ids"][lo:hi]
            # Adjacent blocks decode straight into the output.
            run = ids[-1] - ids[0] == hi - lo - 1
            values = decode_batch(
                ctx["payload_u8"][offsets[lo] : offsets[hi]], bounds[:-1], bs,
                traits, ends=bounds[1:], arena=ctx["arena"],
                out=rows[ids[0] : ids[-1] + 1] if run else None,
            )
            if not run:
                rows[ids] = values
        sp.set(bytes_out=n_full_nc * bs * traits.itemsize)


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
        zsizes=ctx["zsizes"],
        payload=ctx["payload"][: ctx["payload_len"]].tobytes(),
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
