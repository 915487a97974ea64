"""Readable scalar reference implementation of the SZx codec.

This engine follows Algorithm 1 of the paper line by line, one block and
one value at a time.  It is deliberately slow and obvious: the
fused-kernel chain (:mod:`repro.core.kernels`) is tested to produce
*byte-identical* streams, so this module doubles as the format's
executable specification and the test oracle.
"""
# analyze: hot-path — float32-exact SZx kernel; no silent float64 upcasts

from __future__ import annotations

import numpy as np

from .. import observe
from ..bitstream.packing import pack_kbit, unpack_kbit
from .bits import as_uint, leading_identical_bytes, split_bytes_be
from .blocks import BlockLayout, block_stats, validate_block_size
from .constants import FLAG_CHECKSUM, traits_for
from .errors import PayloadFormatError
from .header import StreamHeader
from .reqbits import required_bytes, required_length, shift_for, truncation_mask
from .stream import StreamComponents, lead_section_size, payload_offsets


def _encode_nonconstant_block(block: np.ndarray, mu, radius: float, err_bound: float):
    """Encode one non-constant block; returns its payload bytes."""
    traits = traits_for(block.dtype)
    req = int(required_length(radius, err_bound, traits))
    if req == traits.fullbits:
        # Lossless fallback (as in the reference SZx): all bits are kept,
        # and mu is forced to zero so the normalization round trip cannot
        # itself introduce rounding error.
        mu = traits.dtype.type(0)
    shift = int(shift_for(req))
    nbytes = int(required_bytes(req))
    mask = truncation_mask(np.int64(nbytes), traits)

    normalized = (block - mu).astype(traits.dtype)
    words = as_uint(normalized, traits)

    leads = np.empty(block.size, dtype=np.uint16)
    mid_parts = []
    prev = traits.utype.type(0)
    for i in range(block.size):
        shifted = traits.utype.type((words[i] >> traits.utype.type(shift)) & mask)
        xor = shifted ^ prev
        lead = int(leading_identical_bytes(xor, traits))
        lead = min(lead, traits.max_lead, nbytes)
        leads[i] = lead
        be = split_bytes_be(shifted, traits)
        mid_parts.append(be[lead:nbytes].tobytes())
        prev = shifted

    payload = (
        bytes([req])
        + np.asarray(mu, dtype=traits.dtype).tobytes()
        + pack_kbit(leads, traits.lead_code_bits).tobytes()
        + b"".join(mid_parts)
    )
    return payload


def compress_scalar(
    data: np.ndarray, err_bound: float, block_size: int, *, checksum: bool = False
) -> StreamComponents:
    """Compress *data* with absolute error bound *err_bound* (Algorithm 1)."""
    traits = traits_for(data.dtype)
    block_size = validate_block_size(block_size)
    flat = np.ascontiguousarray(data).reshape(-1)
    layout = BlockLayout(flat.size, block_size)
    with observe.span("block_stats", bytes_in=int(flat.nbytes)):
        mu, radius = block_stats(flat, layout) if flat.size else (
            np.empty(0, traits.dtype),
            np.empty(0, np.float64),  # analyze: ignore[hot-float64] - empty radius placeholder
        )

    nonconst_mask = np.zeros(layout.n_blocks, dtype=bool)
    const_mu = []
    zsizes = []
    payloads = []
    with observe.span("encode_blocks") as sp:
        for k in range(layout.n_blocks):
            block = flat[layout.block_slice(k)]
            if radius[k] <= err_bound:
                const_mu.append(mu[k])
            else:
                nonconst_mask[k] = True
                payload = _encode_nonconstant_block(block, mu[k], radius[k], err_bound)
                payloads.append(payload)
                zsizes.append(len(payload))
        sp.set(bytes_out=sum(zsizes))
    if observe.enabled():
        n_nonconst = int(nonconst_mask.sum())
        observe.counter("szx.blocks.nonconstant").inc(n_nonconst)
        observe.counter("szx.blocks.constant").inc(layout.n_blocks - n_nonconst)

    header = StreamHeader(
        traits=traits,
        n=flat.size,
        block_size=block_size,
        err_bound=float(err_bound),
        n_blocks=layout.n_blocks,
        n_const=layout.n_blocks - int(nonconst_mask.sum()),
        shape=tuple(int(s) for s in np.shape(data)),
        flags=FLAG_CHECKSUM if checksum else 0,
    )
    return StreamComponents(
        header=header,
        nonconst_mask=nonconst_mask,
        const_mu=np.asarray(const_mu, dtype=traits.dtype),
        zsizes=np.asarray(zsizes, dtype=np.uint16),
        payload=b"".join(payloads),
    )


def _decode_nonconstant_block(payload: bytes, block_len: int, traits):
    """Decode one non-constant payload into its values.

    Validates every invariant of the payload before touching it: the
    decode path treats its input as untrusted, so malformed payloads
    raise :class:`~repro.core.errors.PayloadFormatError` instead of raw
    numpy index/broadcast errors.
    """
    lead_bytes = lead_section_size(block_len, traits)
    fixed = 1 + traits.itemsize + lead_bytes
    if len(payload) < fixed:
        raise PayloadFormatError(
            f"payload {len(payload)}B shorter than its fixed sections "
            f"({fixed}B)",
            section="payload",
        )
    req = payload[0]
    if not traits.se_bits <= req <= traits.fullbits:
        raise PayloadFormatError(
            f"required length byte {req} out of range "
            f"[{traits.se_bits}, {traits.fullbits}]",
            section="payload", offset=0,
        )
    shift = int(shift_for(req))
    nbytes = int(required_bytes(req))
    off = 1
    mu = np.frombuffer(payload, dtype=traits.dtype, count=1, offset=off)[0]
    off += traits.itemsize
    leads = unpack_kbit(
        np.frombuffer(payload, dtype=np.uint8, count=lead_bytes, offset=off),
        traits.lead_code_bits,
        block_len,
    )
    off += lead_bytes
    mids = np.frombuffer(payload, dtype=np.uint8, offset=off)

    if int(leads.max(initial=0)) > nbytes:
        raise PayloadFormatError(
            "leading count exceeds the required byte count",
            section="payload", offset=1 + traits.itemsize,
        )
    expected_mids = nbytes * block_len - int(leads.sum(dtype=np.int64))
    if mids.size != expected_mids:
        raise PayloadFormatError(
            f"payload holds {mids.size} mid-bytes but the leading codes "
            f"account for {expected_mids}",
            section="payload", offset=off,
        )

    values = np.empty(block_len, dtype=traits.dtype)
    prev_bytes = np.zeros(traits.itemsize, dtype=np.uint8)
    mpos = 0
    for i in range(block_len):
        lead = int(leads[i])
        cur = np.zeros(traits.itemsize, dtype=np.uint8)
        cur[:lead] = prev_bytes[:lead]
        take = nbytes - lead
        cur[lead:nbytes] = mids[mpos : mpos + take]
        mpos += take
        word = traits.utype.type(0)
        for b in cur[:nbytes].tolist():
            word = traits.utype.type(word << traits.utype.type(8)) | traits.utype.type(
                b
            )
        word = traits.utype.type(
            word << traits.utype.type((traits.itemsize - nbytes) * 8)
        )
        word = traits.utype.type(word << traits.utype.type(shift))
        values[i] = word.view(traits.dtype) + mu
        prev_bytes = cur
    return values


def decompress_scalar(components: StreamComponents) -> np.ndarray:
    """Reconstruct the dataset from parsed stream *components*."""
    header = components.header
    traits = header.traits
    layout = BlockLayout(header.n, header.block_size)
    out = np.empty(header.n, dtype=traits.dtype)
    offsets = payload_offsets(components.zsizes)

    const_i = 0
    nonconst_i = 0
    with observe.span("decode_blocks", bytes_in=len(components.payload)):
        for k in range(layout.n_blocks):
            sl = layout.block_slice(k)
            if components.nonconst_mask[k]:
                start, end = offsets[nonconst_i], offsets[nonconst_i + 1]
                out[sl] = _decode_nonconstant_block(
                    components.payload[start:end], layout.block_length(k), traits
                )
                nonconst_i += 1
            else:
                out[sl] = components.const_mu[const_i]
                const_i += 1
    if header.shape:
        return out.reshape(header.shape)
    return out
