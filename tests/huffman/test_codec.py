"""Roundtrip tests for the Huffman codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.huffman import HuffmanCodec, huffman_decode, huffman_encode
from repro.huffman.codec import _HEADER


class TestRoundtrip:
    @pytest.mark.parametrize(
        "symbols",
        [
            [],
            [0],
            [5, 5, 5, 5],
            list(range(256)),
            [0, 1] * 1000,
        ],
        ids=["empty", "single", "constant", "all-bytes", "alternating"],
    )
    def test_cases(self, symbols):
        arr = np.asarray(symbols, dtype=np.uint16)
        got = huffman_decode(huffman_encode(arr))
        assert np.array_equal(got, arr.astype(np.uint32))

    def test_large_skewed(self):
        rng = np.random.default_rng(1)
        arr = np.clip(np.abs(rng.normal(0, 2, 300_000)), 0, 100).astype(np.uint16)
        buf = huffman_encode(arr)
        assert np.array_equal(huffman_decode(buf), arr.astype(np.uint32))
        # entropy coding should beat raw 16-bit storage comfortably
        assert len(buf) < arr.size * 2 * 0.4

    def test_compression_near_entropy(self):
        rng = np.random.default_rng(2)
        # two symbols, 90/10 split: H ~ 0.469 bits; huffman >= 1 bit/sym
        arr = (rng.random(100_000) < 0.1).astype(np.uint16)
        buf = huffman_encode(arr)
        bits_per_symbol = len(buf) * 8 / arr.size
        assert bits_per_symbol < 1.3

    def test_fixed_codec_rejects_unknown_symbol(self):
        codec = HuffmanCodec.fit(np.array([1, 2, 3], dtype=np.uint16))
        with pytest.raises(ValueError, match="code book"):
            codec.encode(np.array([7], dtype=np.uint16))

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            huffman_decode(b"XXXX" + b"\x00" * 40)

    def test_truncated(self):
        with pytest.raises(ValueError):
            huffman_decode(b"HU")

    @staticmethod
    def _reheader(buf: bytes, **fields) -> bytes:
        """*buf* with some header fields (see ``_HEADER``) replaced."""
        names = ("magic", "max_len", "reserved", "n", "alphabet", "chunk",
                 "n_chunks")
        values = dict(zip(names, _HEADER.unpack(buf[: _HEADER.size])))
        values.update(fields)
        return _HEADER.pack(*(values[k] for k in names)) + buf[_HEADER.size :]

    @pytest.mark.parametrize(
        "fields",
        [{"n": 2000 + (1 << 48)}, {"n": 2100}, {"chunk": 0}, {"n_chunks": 33}],
        ids=["huge-n", "n-past-chunks", "zero-chunk", "extra-chunk"],
    )
    def test_symbol_count_disagreeing_with_chunks(self, fields):
        buf = huffman_encode(np.arange(2000, dtype=np.uint16) % 7)
        with pytest.raises(ValueError, match="chunk table"):
            huffman_decode(self._reheader(buf, **fields))

    def test_more_symbols_than_payload_bits(self):
        # 10 symbols of one 1-bit code fill 2 payload bytes; 17+ symbols
        # cannot fit 16 bits, whatever the chunk table says.
        buf = huffman_encode(np.zeros(10, dtype=np.uint16))
        assert huffman_decode(self._reheader(buf, n=16)).size == 16
        with pytest.raises(ValueError, match="payload bits"):
            huffman_decode(self._reheader(buf, n=17))

    def test_corrupt_payload_detected_or_wrong(self):
        arr = np.arange(100, dtype=np.uint16) % 7
        buf = bytearray(huffman_encode(arr))
        buf[-3] ^= 0xFF
        try:
            got = huffman_decode(bytes(buf))
            assert not np.array_equal(got, arr.astype(np.uint32))
        except ValueError:
            pass  # invalid code detected — also acceptable


@settings(max_examples=80, deadline=None)
@given(
    symbols=st.lists(st.integers(0, 2000), max_size=2000),
)
def test_roundtrip_property(symbols):
    arr = np.asarray(symbols, dtype=np.uint16)
    assert np.array_equal(huffman_decode(huffman_encode(arr)), arr.astype(np.uint32))
