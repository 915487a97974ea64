"""Cross-backend differential suite: every execution path, same bytes.

The repo's central compatibility claim is that the serial fused-kernel
path, the thread pool, and the shared-memory process pool are
interchangeable — and byte-identical to the scalar reference
(:mod:`repro.core.scalar`, the test oracle): same stream bytes out of
compression, same array out of decompression, same typed rejection of
invalid input.  This suite states that claim as a grid — for every
(dtype, bound mode, block size, worker count) cell all four must agree
exactly — plus the awkward inputs where merges historically diverge
(empty arrays, all-constant fields, non-block-multiple lengths).
"""

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.core.api import compress, decompress, resolve_error_bound
from repro.core.scalar import compress_scalar, decompress_scalar
from repro.core.stream import parse_stream

RNG = np.random.default_rng(2024)


def make_field(dtype, n=10_037):
    """A mixed field: smooth ramp, a constant plateau, and noise."""
    d = np.cumsum(RNG.normal(size=n)).astype(dtype)
    d[n // 5 : n // 3] = d[n // 5]          # constant run -> constant blocks
    tail = n // 7
    d[n - tail :] += RNG.normal(size=tail)  # rough tail
    return d


def pool(backend, workers, err_bound=None, **kw):
    """The codec on *backend* with *workers* pool workers."""
    return SZxCodec(CodecConfig(
        err_bound=err_bound, workers=workers, backend=backend, **kw
    ))


def all_backend_streams(data, err_bound, *, mode, block_size, workers):
    """Compressed bytes from the scalar oracle and the three codec paths."""
    kw = dict(mode=mode, block_size=block_size)
    return {
        "scalar": compress_scalar(
            data, resolve_error_bound(data, err_bound, mode), block_size
        ).to_bytes(),
        "vectorized": compress(data, err_bound, **kw),
        "thread": pool("thread", workers, err_bound, **kw).compress(data),
        "process": pool("process", workers, err_bound, **kw).compress(data),
    }


def all_backend_arrays(stream, *, workers):
    """Reconstructions from the scalar oracle and the three codec paths."""
    return {
        "scalar": decompress_scalar(parse_stream(stream)),
        "vectorized": decompress(stream),
        "thread": pool("thread", workers).decompress(stream),
        "process": pool("process", workers).decompress(stream),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["abs", "rel"])
@pytest.mark.parametrize("block_size", [64, 128])
@pytest.mark.parametrize("workers", [2, 5])
class TestBackendGrid:
    def test_streams_byte_identical(self, dtype, mode, block_size, workers):
        data = make_field(dtype)
        streams = all_backend_streams(
            data, 1e-3, mode=mode, block_size=block_size, workers=workers
        )
        reference = streams.pop("scalar")
        for name, stream in streams.items():
            assert stream == reference, f"{name} diverged from scalar"

    def test_reconstructions_identical(self, dtype, mode, block_size, workers):
        data = make_field(dtype)
        stream = compress(data, 1e-3, mode=mode, block_size=block_size)
        arrays = all_backend_arrays(stream, workers=workers)
        reference = arrays.pop("scalar")
        assert reference.dtype == dtype
        for name, arr in arrays.items():
            assert arr.dtype == reference.dtype, name
            assert np.array_equal(arr, reference), f"{name} diverged from scalar"


class TestAwkwardInputs:
    WORKERS = 3

    def roundtrip_all(self, data, err_bound=1e-3, **kw):
        streams = all_backend_streams(
            data, err_bound, mode=kw.get("mode", "abs"),
            block_size=kw.get("block_size", 128), workers=self.WORKERS,
        )
        assert len(set(streams.values())) == 1, "backends disagree"
        stream = streams["scalar"]
        arrays = all_backend_arrays(stream, workers=self.WORKERS)
        ref = arrays["scalar"]
        for arr in arrays.values():
            assert np.array_equal(arr, ref)
        return stream, ref

    def test_empty(self):
        stream, recon = self.roundtrip_all(np.empty(0, dtype=np.float32))
        assert recon.size == 0

    def test_single_value(self):
        _, recon = self.roundtrip_all(np.array([3.25], dtype=np.float32))
        assert recon.size == 1

    def test_all_constant(self):
        data = np.full(5000, 7.5, dtype=np.float32)
        _, recon = self.roundtrip_all(data)
        assert np.all(np.abs(recon - data) <= 1e-3)

    def test_non_block_multiple(self):
        # 10_037 = 78 * 128 + 53: final partial block crosses every merge.
        data = make_field(np.float32, n=10_037)
        assert data.size % 128 != 0
        self.roundtrip_all(data, block_size=128)

    def test_fewer_blocks_than_workers(self):
        data = make_field(np.float32, n=300)  # 3 blocks, 3 workers
        self.roundtrip_all(data, block_size=128)

    def test_checksum_streams_identical(self):
        data = make_field(np.float32)
        serial = compress(data, 1e-3, checksum=True)
        parallel = pool(
            "process", self.WORKERS, 1e-3, checksum=True
        ).compress(data)
        assert serial == parallel

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_identically(self, bad):
        # Input validation is the codec's contract; the scalar oracle
        # is not an entry point and takes no part in it.
        data = make_field(np.float32)
        data[123] = bad
        errors = {}
        for name, fn in {
            "vectorized": lambda: compress(data, 1e-3),
            "thread": lambda: pool("thread", self.WORKERS, 1e-3).compress(data),
            "process": lambda: pool("process", self.WORKERS, 1e-3).compress(data),
        }.items():
            with pytest.raises(ValueError) as excinfo:
                fn()
            errors[name] = str(excinfo.value)
        assert len(set(errors.values())) == 1, errors
