"""Micro-batcher tests: byte-identity of split streams, grouping rules."""

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.serve.batching import MicroBatcher, batch_key, compress_batch, is_batchable

RNG = np.random.default_rng(77)
BS = 128


class FakeJob:
    """The attribute surface batching needs from a service job."""

    def __init__(self, array, abs_bound=1e-3, block_size=BS,
                 kind="compress", checksum=False):
        self.array = np.asarray(array)
        self.abs_bound = abs_bound
        self.block_size = block_size
        self.kind = kind
        self.checksum = checksum


def _field(n):
    return np.cumsum(RNG.normal(size=n)).astype(np.float32)


def _sync_stream(job):
    return SZxCodec(
        CodecConfig(
            err_bound=job.abs_bound,
            block_size=job.block_size,
            checksum=job.checksum,
        )
    ).compress(job.array)


class TestCompressBatch:
    def test_single_job_byte_identical(self):
        job = FakeJob(_field(1000))
        assert compress_batch([job]) == [_sync_stream(job)]

    def test_aligned_jobs_byte_identical(self):
        jobs = [FakeJob(_field(n)) for n in (BS, 4 * BS, 2 * BS, 16 * BS)]
        streams = compress_batch(jobs)
        assert streams == [_sync_stream(j) for j in jobs]

    def test_unaligned_tail_job_byte_identical(self):
        jobs = [FakeJob(_field(n)) for n in (4 * BS, 2 * BS, 3 * BS + 17)]
        streams = compress_batch(jobs)
        assert streams == [_sync_stream(j) for j in jobs]

    def test_constant_blocks_split_correctly(self):
        a = _field(4 * BS)
        a[BS : 3 * BS] = 2.5  # two constant blocks inside job 0
        b = np.full(2 * BS, 7.0, dtype=np.float32)  # all-constant job
        jobs = [FakeJob(a), FakeJob(b), FakeJob(_field(5 * BS))]
        assert compress_batch(jobs) == [_sync_stream(j) for j in jobs]

    def test_checksummed_jobs_mix_with_plain(self):
        jobs = [
            FakeJob(_field(2 * BS), checksum=True),
            FakeJob(_field(2 * BS), checksum=False),
        ]
        streams = compress_batch(jobs)
        assert streams == [_sync_stream(j) for j in jobs]

    def test_multidim_shape_preserved(self):
        arr = _field(4 * BS).reshape(4, BS)
        jobs = [FakeJob(arr), FakeJob(_field(2 * BS))]
        streams = compress_batch(jobs)
        assert streams == [_sync_stream(j) for j in jobs]
        recon = SZxCodec(CodecConfig()).decompress(streams[0])
        assert recon.shape == (4, BS)

    def test_roundtrip_and_bound(self):
        jobs = [FakeJob(_field(n), abs_bound=1e-2) for n in (BS, 3 * BS, 129)]
        codec = SZxCodec(CodecConfig())
        for job, stream in zip(jobs, compress_batch(jobs)):
            recon = codec.decompress(stream)
            assert np.abs(job.array - recon).max() <= 1e-2

    def test_float64(self):
        jobs = [
            FakeJob(_field(2 * BS).astype(np.float64), abs_bound=1e-8)
            for _ in range(3)
        ]
        assert compress_batch(jobs) == [_sync_stream(j) for j in jobs]


class TestGrouping:
    def test_batch_key_separates_bounds_and_dtypes(self):
        a = FakeJob(_field(BS), abs_bound=1e-3)
        b = FakeJob(_field(BS), abs_bound=1e-4)
        c = FakeJob(_field(BS).astype(np.float64), abs_bound=1e-3)
        assert batch_key(a) != batch_key(b)
        assert batch_key(a) != batch_key(c)

    def test_is_batchable(self):
        assert is_batchable(FakeJob(_field(BS)))
        assert not is_batchable(FakeJob(_field(BS), kind="decompress"))
        assert not is_batchable(FakeJob(np.empty(0, np.float32)))


class TestMicroBatcher:
    def test_seals_on_max_jobs(self):
        mb = MicroBatcher(window_s=10.0, max_jobs=3, max_values=1 << 30)
        jobs = [FakeJob(_field(BS)) for _ in range(3)]
        assert mb.add(jobs[0], now=0.0) == []
        assert mb.add(jobs[1], now=0.0) == []
        sealed = mb.add(jobs[2], now=0.0)
        assert sealed == [jobs]
        assert mb.pending == 0

    def test_seals_on_max_values(self):
        mb = MicroBatcher(window_s=10.0, max_jobs=100, max_values=2 * BS)
        jobs = [FakeJob(_field(BS)), FakeJob(_field(BS))]
        assert mb.add(jobs[0], now=0.0) == []
        assert mb.add(jobs[1], now=0.0) == [jobs]

    def test_unaligned_job_seals_its_batch(self):
        mb = MicroBatcher(window_s=10.0, max_jobs=100, max_values=1 << 30)
        aligned = FakeJob(_field(BS))
        ragged = FakeJob(_field(BS + 5))
        assert mb.add(aligned, now=0.0) == []
        assert mb.add(ragged, now=0.0) == [[aligned, ragged]]

    def test_window_expiry(self):
        mb = MicroBatcher(window_s=0.01, max_jobs=100, max_values=1 << 30)
        job = FakeJob(_field(BS))
        mb.add(job, now=100.0)
        assert mb.pop_expired(100.005) == []
        assert mb.pop_expired(100.02) == [[job]]
        assert mb.next_deadline() is None

    def test_incompatible_jobs_open_separate_groups(self):
        mb = MicroBatcher(window_s=10.0, max_jobs=2, max_values=1 << 30)
        a1 = FakeJob(_field(BS), abs_bound=1e-3)
        b1 = FakeJob(_field(BS), abs_bound=1e-5)
        a2 = FakeJob(_field(BS), abs_bound=1e-3)
        assert mb.add(a1, now=0.0) == []
        assert mb.add(b1, now=0.0) == []
        assert mb.add(a2, now=0.0) == [[a1, a2]]
        assert mb.pop_all() == [[b1]]

    def test_bad_params(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_s=-1)
        with pytest.raises(ValueError):
            MicroBatcher(max_jobs=0)
