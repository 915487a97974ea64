"""Exhaustive corruption tests for the hardened decode path.

The contract under test: decoding any truncated or single-byte-corrupted
stream either raises :class:`StreamFormatError` (with a section name) or
reproduces the intact reconstruction exactly — no raw ``struct.error``,
``IndexError`` or numpy ``ValueError`` ever escapes ``parse_stream``,
``decompress``, the thread-pool codec or the scalar decoder.
"""

import numpy as np
import pytest

from repro.core import (
    ChecksumError,
    HeaderFormatError,
    StreamFormatError,
    TruncatedStreamError,
    compress,
    decompress,
    parse_stream,
)
from repro.codec import CodecConfig, SZxCodec
from repro.core.scalar import decompress_scalar
from repro.testing.mutators import stream_layout

RNG = np.random.default_rng(20260806)


def _small_stream(checksum=False):
    data = np.cumsum(RNG.standard_normal(300)).astype(np.float32)
    stream = compress(data, 1e-3, block_size=32, checksum=checksum)
    return stream, decompress(stream)


def _decoders():
    return [
        ("decompress", decompress),
        ("scalar", lambda s: decompress_scalar(parse_stream(s))),
        ("omp", SZxCodec(CodecConfig(workers=3)).decompress),
    ]


def _assert_fail_closed(name, decoder, mutant, reference):
    """Decoder must raise StreamFormatError or reproduce *reference*."""
    try:
        out = decoder(mutant)
    except StreamFormatError:
        return "raised"
    except Exception as exc:  # noqa: BLE001
        pytest.fail(f"{name}: raw {type(exc).__name__} escaped: {exc}")
    assert np.array_equal(out, reference), (
        f"{name}: silent wrong decode ({out.size} values)"
    )
    return "decoded"


class TestExhaustiveTruncation:
    def test_every_prefix_fails_closed(self):
        stream, reference = _small_stream()
        for name, decoder in _decoders():
            for k in range(len(stream)):
                verdict = _assert_fail_closed(
                    name, decoder, stream[:k], reference
                )
                # A strict prefix can never decode: the payload-section
                # accounting pins the stream's minimum length.
                assert verdict == "raised", f"{name}: prefix {k} decoded"

    def test_every_prefix_of_checksummed_stream_raises(self):
        stream, reference = _small_stream(checksum=True)
        for k in range(len(stream)):
            _ = pytest.raises(StreamFormatError, decompress, stream[:k])

    def test_truncation_errors_name_a_section(self):
        stream, _ = _small_stream()
        seen = set()
        for k in range(len(stream)):
            with pytest.raises(StreamFormatError) as exc_info:
                parse_stream(stream[:k])
            assert exc_info.value.section, f"no section at prefix {k}"
            seen.add(exc_info.value.section)
        # The cut sweeps through every region of the stream.
        assert {"header", "type-bitmap", "zsize", "payload"} <= seen


class TestExhaustiveBitFlips:
    def test_header_and_zsize_flips_fail_closed(self):
        stream, reference = _small_stream()
        spans = stream_layout(stream)
        positions = [
            p
            for s in ("header", "zsizes")
            for p in range(spans[s][0], spans[s][1])
        ]
        for name, decoder in _decoders():
            for pos in positions:
                for bit in range(8):
                    mutant = bytearray(stream)
                    mutant[pos] ^= 1 << bit
                    _assert_fail_closed(
                        name, decoder, bytes(mutant), reference
                    )

    def test_bitmap_flips_fail_closed(self):
        data = np.zeros(300, np.float32)
        data[128:160] = np.cumsum(RNG.standard_normal(32)).astype(np.float32)
        stream = compress(data, 1e-3, block_size=32)
        reference = decompress(stream)
        spans = stream_layout(stream)
        assert spans["const_mu"][1] > spans["const_mu"][0]
        b0, b1 = spans["bitmap"]
        for pos in range(b0, b1):
            for bit in range(8):
                mutant = bytearray(stream)
                mutant[pos] ^= 1 << bit
                _assert_fail_closed(
                    "decompress", decompress, bytes(mutant), reference
                )

    def test_every_flip_of_checksummed_stream_detected(self):
        """With the CRC32 footer, no single-bit flip decodes silently."""
        stream, reference = _small_stream(checksum=True)
        for pos in range(len(stream)):
            mutant = bytearray(stream)
            mutant[pos] ^= 1 << int(RNG.integers(0, 8))
            with pytest.raises(StreamFormatError):
                decompress(bytes(mutant))

    def test_payload_flip_without_checksum_may_decode(self):
        """Documents the limitation the CRC footer exists to close."""
        stream, reference = _small_stream()
        spans = stream_layout(stream)
        p0, p1 = spans["payload"]
        silent = 0
        for pos in range(p0, p1):
            mutant = bytearray(stream)
            mutant[pos] ^= 0x01  # low bit of a mid-byte: value-only change
            try:
                out = decompress(bytes(mutant))
            except StreamFormatError:
                continue
            if not np.array_equal(out, reference):
                silent += 1
        assert silent > 0  # structural checks alone cannot catch these


class TestErrorDiagnostics:
    def test_bad_magic_names_offset(self):
        stream, _ = _small_stream()
        with pytest.raises(HeaderFormatError) as exc_info:
            parse_stream(b"XXXX" + stream[4:])
        assert exc_info.value.offset == 0
        assert "magic" in str(exc_info.value)

    def test_checksum_error_type_and_section(self):
        stream, _ = _small_stream(checksum=True)
        mutant = bytearray(stream)
        mutant[-1] ^= 0xFF  # corrupt the footer itself
        with pytest.raises(ChecksumError) as exc_info:
            parse_stream(bytes(mutant))
        assert exc_info.value.section == "checksum"

    def test_verify_checksum_opt_out(self):
        from repro.core.stream import parse_stream as ps

        stream, reference = _small_stream(checksum=True)
        mutant = bytearray(stream)
        mutant[-1] ^= 0xFF
        comp = ps(bytes(mutant), verify_checksum=False)
        assert np.array_equal(comp.to_bytes()[: len(stream) - 4], stream[:-4])

    def test_empty_and_tiny_buffers(self):
        for buf in (b"", b"S", b"SZX1", b"SZX1" + b"\x00" * 10):
            with pytest.raises(TruncatedStreamError):
                parse_stream(buf)

    def test_error_is_valueerror_subclass(self):
        with pytest.raises(ValueError):
            parse_stream(b"garbage-not-a-stream")

    def test_huge_header_counts_do_not_allocate(self):
        """Adversarial n/n_blocks are rejected before any allocation."""
        stream, _ = _small_stream()
        mutant = bytearray(stream)
        mutant[8:16] = (1 << 60).to_bytes(8, "little")  # n
        with pytest.raises(StreamFormatError):
            parse_stream(bytes(mutant))
