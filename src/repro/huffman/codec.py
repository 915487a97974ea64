"""Vectorized Huffman encode and gap-array chunked decode.

Stream layout::

    magic 'HUF1' | max_len u8 | reserved u8 | n_symbols u64 |
    alphabet u32 | chunk_size u32 | n_chunks u32 |
    lengths u8[alphabet] | chunk bit offsets u64[n_chunks] |
    payload bits

The chunk offsets are the *gap array*: every chunk of ``chunk_size``
symbols records where its first code starts, so decoding runs all chunks
in lockstep — ``chunk_size`` numpy iterations total instead of one Python
iteration per symbol.
"""

from __future__ import annotations

import struct

import numpy as np

from .canonical import build_decode_table, canonical_codes
from .tree import code_lengths

_MAGIC = b"HUF1"
_HEADER = struct.Struct("<4sBBQIII")

#: Decode window; also the code-length cap.
MAX_LEN = 16


def _choose_chunk_size(n: int) -> int:
    """Gap-array chunk size: small enough to parallelize, large enough
    that the stored offsets stay a negligible fraction of the payload."""
    if n <= 1 << 16:
        return 64
    if n <= 1 << 20:
        return 256
    return 1024


class HuffmanCodec:
    """Canonical Huffman codec over a contiguous alphabet ``0..alphabet-1``."""

    def __init__(self, lengths: np.ndarray):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.codes = canonical_codes(self.lengths)

    @classmethod
    def fit(cls, symbols: np.ndarray, alphabet: int | None = None) -> "HuffmanCodec":
        """Build a codec from observed *symbols*."""
        symbols = np.asarray(symbols)
        if symbols.size and int(symbols.min()) < 0:
            raise ValueError("symbols must be non-negative")
        if alphabet is None:
            alphabet = int(symbols.max()) + 1 if symbols.size else 1
        freqs = np.bincount(symbols.reshape(-1), minlength=alphabet)
        return cls(code_lengths(freqs, MAX_LEN))

    def encode(self, symbols: np.ndarray) -> bytes:
        symbols = np.ascontiguousarray(symbols).reshape(-1)
        n = symbols.size
        chunk = _choose_chunk_size(n)
        n_chunks = (n + chunk - 1) // chunk

        if n and (
            int(symbols.max()) >= self.lengths.size or int(symbols.min()) < 0
        ):
            raise ValueError("symbol outside the fitted code book")
        lens = self.lengths[symbols]
        if n and int(lens.min()) == 0:
            raise ValueError("symbol outside the fitted code book")
        starts = np.concatenate(([0], np.cumsum(lens)))
        total_bits = int(starts[-1])

        bits = np.zeros(total_bits, dtype=np.uint8)
        codes = self.codes[symbols]
        max_len = int(lens.max()) if n else 0
        for b in range(max_len):
            mask = lens > b
            pos = starts[:-1][mask] + b
            bits[pos] = (codes[mask] >> (lens[mask] - 1 - b).astype(np.uint32)) & 1

        payload = np.packbits(bits).tobytes()
        offsets = starts[:-1:chunk].astype(np.uint64)

        header = _HEADER.pack(
            _MAGIC, MAX_LEN, 0, n, self.lengths.size, chunk, n_chunks
        )
        return b"".join(
            (
                header,
                self.lengths.astype(np.uint8).tobytes(),
                offsets.tobytes(),
                payload,
            )
        )

    @staticmethod
    def decode(buf: bytes) -> np.ndarray:
        if len(buf) < _HEADER.size:
            raise ValueError("huffman stream too short")
        magic, max_len, _r, n, alphabet, chunk, n_chunks = _HEADER.unpack(
            buf[: _HEADER.size]
        )
        if magic != _MAGIC:
            raise ValueError("bad huffman magic")
        # Check the symbol count before it sizes any allocation: the chunk
        # table must cover exactly n symbols, and every code takes >= 1 bit.
        if chunk == 0 or n_chunks != -(-n // chunk):
            raise ValueError("corrupt huffman header: symbol count disagrees "
                             "with the chunk table")
        payload_bytes = len(buf) - _HEADER.size - alphabet - 8 * n_chunks
        if n > 8 * max(payload_bytes, 0):
            raise ValueError("corrupt huffman header: more symbols than "
                             "payload bits")
        off = _HEADER.size
        lengths = np.frombuffer(buf, dtype=np.uint8, count=alphabet, offset=off)
        off += alphabet
        offsets = np.frombuffer(buf, dtype=np.uint64, count=n_chunks, offset=off)
        off += n_chunks * 8
        # Pad so 4-byte window gathers near the end never run off the buffer.
        payload = np.frombuffer(buf, dtype=np.uint8, offset=off)
        payload = np.concatenate([payload, np.zeros(8, dtype=np.uint8)])

        if n == 0:
            return np.zeros(0, dtype=np.uint32)

        table_sym, table_len = build_decode_table(lengths.astype(np.int64), max_len)

        out = np.zeros(n, dtype=np.uint32)
        pos = offsets.astype(np.int64).copy()  # bit cursor per chunk
        # Number of symbols in each chunk (last one may be short).
        remaining = np.full(n_chunks, chunk, dtype=np.int64)
        remaining[-1] = n - chunk * (n_chunks - 1)
        chunk_base = np.arange(n_chunks, dtype=np.int64) * chunk

        for step in range(chunk):
            live = remaining > step
            if not live.any():
                break
            p = pos[live]
            byte = p >> 3
            shift = p & 7
            window = (
                (payload[byte].astype(np.uint32) << 24)
                | (payload[byte + 1].astype(np.uint32) << 16)
                | (payload[byte + 2].astype(np.uint32) << 8)
                | payload[byte + 3].astype(np.uint32)
            )
            window = (window << shift.astype(np.uint32)) >> np.uint32(32 - max_len)
            window &= np.uint32((1 << max_len) - 1)
            syms = table_sym[window]
            consumed = table_len[window]
            if (consumed == 0).any():
                raise ValueError("corrupt huffman payload: invalid code")
            out[chunk_base[live] + step] = syms
            pos[live] += consumed
        return out


def huffman_encode(symbols: np.ndarray, alphabet: int | None = None) -> bytes:
    """One-shot fit+encode."""
    return HuffmanCodec.fit(symbols, alphabet).encode(symbols)


def huffman_decode(buf: bytes) -> np.ndarray:
    """One-shot decode."""
    return HuffmanCodec.decode(buf)
