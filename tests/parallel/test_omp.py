"""Tests for the OpenMP-style parallel codec and the scaling model."""

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.core.api import compress, decompress
from repro.parallel import chunk_block_ranges, resolve_worker_count
from repro.parallel.scaling import modeled_speedup, modeled_throughput

RNG = np.random.default_rng(40)


def omp_codec(workers, err_bound=None, **kw):
    """The codec on the thread backend with *workers* pool threads."""
    return SZxCodec(CodecConfig(err_bound=err_bound, workers=workers, **kw))


class TestChunking:
    def test_covers_everything(self):
        ranges = chunk_block_ranges(100, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0

    def test_balanced(self):
        sizes = [b - a for a, b in chunk_block_ranges(103, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_blocks(self):
        ranges = chunk_block_ranges(3, 16)
        assert len(ranges) == 3

    def test_rejects_zero_chunks(self):
        with pytest.raises(ValueError):
            chunk_block_ranges(10, 0)


@pytest.mark.parametrize("workers", [1, 2, 4, 7])
class TestOmpCodec:
    def test_stream_byte_identical_to_serial(self, workers):
        d = np.cumsum(RNG.normal(size=50_000 + 13)).astype(np.float32)
        d[1000:3000] = 0.5
        serial = compress(d, 1e-3)
        parallel = omp_codec(workers, 1e-3).compress(d)
        assert serial == parallel

    def test_parallel_decompress_matches(self, workers):
        d = (np.sin(np.linspace(0, 100, 40_000)) * 3).astype(np.float32)
        stream = compress(d, 1e-4)
        assert np.array_equal(
            decompress(stream), omp_codec(workers).decompress(stream)
        )

    def test_rel_mode(self, workers):
        d = (RNG.normal(size=20_000) * 50).astype(np.float32)
        serial = compress(d, 1e-3, mode="rel")
        parallel = omp_codec(workers, 1e-3, mode="rel").compress(d)
        assert serial == parallel


class TestOmpEdgeCases:
    def test_empty(self):
        d = np.empty(0, dtype=np.float32)
        assert omp_codec(4).decompress(omp_codec(4, 1e-3).compress(d)).size == 0

    def test_fewer_blocks_than_threads(self):
        d = RNG.normal(size=100).astype(np.float32)
        assert omp_codec(64, 1e-3).compress(d) == compress(d, 1e-3)

    def test_shape_restored(self):
        d = RNG.normal(size=(50, 70)).astype(np.float32)
        codec = omp_codec(4, 1e-2)
        r = codec.decompress(codec.compress(d))
        assert r.shape == d.shape

    def test_float64(self):
        d = np.cumsum(RNG.normal(size=30_000)).astype(np.float64)
        assert omp_codec(4, 1e-5).compress(d) == compress(d, 1e-5)


class TestScalingModel:
    def test_single_thread_no_speedup(self):
        for c in ("szx", "sz", "zfp"):
            assert modeled_speedup(c, 1) == pytest.approx(1.0)

    def test_monotone_in_threads(self):
        speedups = [modeled_speedup("szx", n) for n in (1, 2, 8, 32, 64)]
        assert all(a < b for a, b in zip(speedups, speedups[1:]))

    def test_64_thread_bands_match_paper(self):
        # Paper: SZx ~6-9x, SZ ~12-15x, ZFP ~4-7x at 64 threads.
        assert 6 <= modeled_speedup("szx", 64) <= 9
        assert 12 <= modeled_speedup("sz", 64) <= 15
        assert 4 <= modeled_speedup("zfp", 64) <= 7

    def test_throughput_projection(self):
        assert modeled_throughput("szx", 100.0, 64) == pytest.approx(
            100.0 * modeled_speedup("szx", 64)
        )

    def test_unknown_compressor(self):
        with pytest.raises(KeyError):
            modeled_speedup("lz4", 8)

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            modeled_speedup("szx", 0)


@pytest.mark.parametrize("workers", [1, 2, 3, 16])
class TestOmpDifferential:
    """Block counts smaller than, equal to, and coprime with the thread
    count — the chunk-boundary cases where a merge bug would hide."""

    _BS = 32

    def _block_counts(self, workers):
        return sorted(
            {
                max(workers - 1, 1),  # fewer blocks than threads
                workers,  # exactly one block per thread
                workers + 1,
                2 * workers + 1,  # coprime with workers
                7 if workers != 7 else 9,  # coprime, fixed small count
            }
        )

    def _field(self, n_blocks, tail):
        n = n_blocks * self._BS - (self._BS - tail if tail else 0)
        d = np.cumsum(RNG.normal(size=max(n, 0))).astype(np.float32)
        if n >= 2 * self._BS:
            d[self._BS : 2 * self._BS] = 1.25  # force one constant block
        return d

    def test_compress_bytes_match_serial(self, workers):
        for n_blocks in self._block_counts(workers):
            for tail in (0, 1, self._BS - 1):
                d = self._field(n_blocks, tail)
                serial = compress(d, 1e-3, block_size=self._BS)
                parallel = omp_codec(
                    workers, 1e-3, block_size=self._BS
                ).compress(d)
                assert serial == parallel, (
                    f"n_blocks={n_blocks}, tail={tail}"
                )

    def test_decompress_matches_serial(self, workers):
        for n_blocks in self._block_counts(workers):
            for tail in (0, 1, self._BS - 1):
                d = self._field(n_blocks, tail)
                stream = compress(d, 1e-3, block_size=self._BS)
                assert np.array_equal(
                    decompress(stream),
                    omp_codec(workers).decompress(stream),
                ), f"n_blocks={n_blocks}, tail={tail}"

    def test_checksummed_stream_matches_serial(self, workers):
        d = np.cumsum(RNG.normal(size=5 * self._BS + 3)).astype(np.float32)
        serial = compress(d, 1e-3, block_size=self._BS, checksum=True)
        parallel = omp_codec(
            workers, 1e-3, block_size=self._BS, checksum=True
        ).compress(d)
        assert serial == parallel
        assert np.array_equal(
            decompress(serial), omp_codec(workers).decompress(serial)
        )


class TestThreadCountValidation:
    def test_rejects_zero_and_negative(self):
        for bad in (0, -1, -100):
            with pytest.raises(ValueError, match=">= 1"):
                resolve_worker_count(bad)

    def test_rejects_non_int(self):
        for bad in (2.0, "4", None, True):
            with pytest.raises(ValueError, match="int"):
                resolve_worker_count(bad)

    def test_clamps_to_cpu_count(self):
        import os

        ncpu = os.cpu_count() or 1
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(ncpu) == ncpu
        assert resolve_worker_count(10_000) == ncpu

    def test_omp_entrypoints_reject_bad_counts(self):
        d = np.cumsum(RNG.normal(size=1024)).astype(np.float32)
        stream = compress(d, 1e-3)
        with pytest.raises(ValueError):
            omp_codec(0, 1e-3).compress(d)
        with pytest.raises(ValueError):
            omp_codec(-2).decompress(stream)

    def test_oversubscribed_request_still_correct(self):
        d = np.cumsum(RNG.normal(size=2048)).astype(np.float32)
        assert omp_codec(10_000, 1e-3).compress(d) == compress(d, 1e-3)
