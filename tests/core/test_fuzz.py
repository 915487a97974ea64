"""Failure-injection tests: corrupted streams must fail loudly, not crash.

Every decoder in the repository is exercised against truncated and
bit-flipped inputs.  The contract: either a clean exception
(ValueError/EOFError/IndexError/struct.error) or a *wrong but well-formed*
result — never a hang, segfault, or silent partial state.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import sz_compress, sz_decompress, zfp_compress, zfp_decompress
from repro.core import compress, decompress
from repro.huffman import huffman_decode, huffman_encode
from repro.lossless import lossless_compress, lossless_decompress

ACCEPTABLE = (ValueError, EOFError, IndexError, struct.error, OverflowError)

RNG = np.random.default_rng(100)
DATA = np.cumsum(RNG.normal(size=4000)).astype(np.float32)


def _expect_graceful(decoder, blob):
    try:
        decoder(blob)
    except ACCEPTABLE:
        pass  # detected corruption — ideal


class TestTruncation:
    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_szx(self, frac):
        stream = compress(DATA, 1e-3)
        with pytest.raises(ACCEPTABLE):
            decompress(stream[: int(len(stream) * frac)])

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_sz(self, frac):
        stream = sz_compress(DATA, 1e-3)
        _expect_graceful(sz_decompress, stream[: int(len(stream) * frac)])

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_zfp(self, frac):
        stream = zfp_compress(DATA, 1e-3)
        _expect_graceful(zfp_decompress, stream[: int(len(stream) * frac)])

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_lossless(self, frac):
        stream = lossless_compress(DATA.tobytes()[:5000])
        _expect_graceful(lossless_decompress, stream[: int(len(stream) * frac)])


class TestBitFlips:
    @settings(max_examples=60, deadline=None)
    @given(pos_frac=st.floats(0, 1), bit=st.integers(0, 7))
    def test_szx_flip(self, pos_frac, bit):
        stream = bytearray(compress(DATA, 1e-3))
        pos = min(int(pos_frac * len(stream)), len(stream) - 1)
        stream[pos] ^= 1 << bit
        _expect_graceful(decompress, bytes(stream))

    @settings(max_examples=30, deadline=None)
    @given(pos_frac=st.floats(0, 1), bit=st.integers(0, 7))
    # Flips bit 48 of the symbol count, which once sized a 1 PiB allocation.
    @example(pos_frac=0.00390625, bit=0)
    def test_huffman_flip(self, pos_frac, bit):
        syms = (np.abs(DATA[:2000]) * 10).astype(np.uint16)
        stream = bytearray(huffman_encode(syms))
        pos = min(int(pos_frac * len(stream)), len(stream) - 1)
        stream[pos] ^= 1 << bit
        _expect_graceful(huffman_decode, bytes(stream))

    @settings(max_examples=30, deadline=None)
    @given(pos_frac=st.floats(0, 1), bit=st.integers(0, 7))
    def test_sz_flip(self, pos_frac, bit):
        stream = bytearray(sz_compress(DATA, 1e-2))
        pos = min(int(pos_frac * len(stream)), len(stream) - 1)
        stream[pos] ^= 1 << bit
        _expect_graceful(sz_decompress, bytes(stream))


class TestGarbageInput:
    @settings(max_examples=50, deadline=None)
    @given(blob=st.binary(max_size=500))
    def test_szx_garbage(self, blob):
        _expect_graceful(decompress, blob)

    @settings(max_examples=50, deadline=None)
    @given(blob=st.binary(max_size=500))
    def test_all_decoders_garbage(self, blob):
        for decoder in (sz_decompress, zfp_decompress, lossless_decompress,
                        huffman_decode):
            _expect_graceful(decoder, blob)
