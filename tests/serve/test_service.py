"""CompressionService tests: determinism, backpressure, faults, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.serve import (
    CompressionService,
    JobTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransientError,
)
from repro.serve import service as service_module
from repro.testing import faults

RNG = np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.reset()


def _field(n, seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=n)).astype(np.float32)


CFG = CodecConfig(err_bound=1e-3)


class TestBasics:
    def test_compress_matches_sync_codec(self):
        data = _field(10_000)
        with CompressionService(workers=2) as svc:
            assert svc.compress(data, CFG) == SZxCodec(CFG).compress(data)

    def test_decompress_roundtrip(self):
        data = _field(5_000)
        stream = SZxCodec(CFG).compress(data)
        with CompressionService(workers=2) as svc:
            recon = svc.decompress(stream)
        np.testing.assert_array_equal(recon, SZxCodec(CFG).decompress(stream))
        assert np.abs(data - recon).max() <= 1e-3

    def test_rel_mode_resolved_at_submit(self):
        data = _field(4_096)
        cfg = CodecConfig(err_bound=1e-4, mode="rel")
        with CompressionService(workers=2) as svc:
            assert svc.compress(data, cfg) == SZxCodec(cfg).compress(data)

    def test_default_config(self):
        data = _field(1_000)
        with CompressionService(workers=1, default_config=CFG) as svc:
            assert svc.compress(data) == SZxCodec(CFG).compress(data)

    def test_missing_config_raises_at_submit(self):
        with CompressionService(workers=1) as svc:
            with pytest.raises(ValueError, match="err_bound"):
                svc.submit_compress(_field(10))

    def test_invalid_input_raises_at_submit(self):
        with CompressionService(workers=1) as svc:
            with pytest.raises(TypeError):
                svc.submit_compress(np.arange(10, dtype=np.int32), CFG)

    def test_empty_array(self):
        data = np.empty(0, dtype=np.float32)
        with CompressionService(workers=1) as svc:
            stream = svc.compress(data, CFG)
        assert stream == SZxCodec(CFG).compress(data)

    def test_stats_counters(self):
        with CompressionService(workers=1) as svc:
            for _ in range(5):
                svc.compress(_field(256), CFG)
            stats = svc.stats()
        assert stats["submitted"] == 5
        assert stats["served"] == 5
        assert stats["failed"] == 0
        assert stats["workers"] == svc.workers


class TestDeterminismUnderConcurrency:
    def test_many_threads_byte_identical_to_sync(self):
        # N jobs submitted from multiple threads, batching on: every
        # stream must be byte-identical to the synchronous codec path.
        arrays = [_field(n, seed=i) for i, n in enumerate([256, 1000, 4096, 65, 2048] * 8)]
        expected = [SZxCodec(CFG).compress(a) for a in arrays]
        results = [None] * len(arrays)
        with CompressionService(workers=4, queue_capacity=256,
                                batch_window_s=0.001) as svc:
            def submit_range(lo, hi):
                futs = [(i, svc.submit_compress(arrays[i], CFG)) for i in range(lo, hi)]
                for i, fut in futs:
                    results[i] = fut.result(timeout=30)

            threads = [
                threading.Thread(target=submit_range, args=(lo, lo + 10))
                for lo in range(0, len(arrays), 10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert results == expected

    def test_mixed_bounds_never_cross_batch(self):
        cfgs = [CodecConfig(err_bound=b) for b in (1e-2, 1e-3, 1e-4)]
        arrays = [_field(512, seed=s) for s in range(9)]
        expected = [
            SZxCodec(cfgs[i % 3]).compress(a) for i, a in enumerate(arrays)
        ]
        with CompressionService(workers=2, batch_window_s=0.005) as svc:
            futs = [
                svc.submit_compress(a, cfgs[i % 3]) for i, a in enumerate(arrays)
            ]
            got = [f.result(timeout=30) for f in futs]
        assert got == expected

    def test_batching_actually_happens(self):
        with CompressionService(workers=1, batch_window_s=0.05) as svc:
            futs = [svc.submit_compress(_field(128, seed=i), CFG) for i in range(8)]
            for f in futs:
                f.result(timeout=30)
            stats = svc.stats()
        assert stats["batched_jobs"] >= 2
        assert stats["batches"] >= 1


class TestFaultInjection:
    def test_transient_fault_retried_result_still_identical(self):
        data = _field(2_000)
        expected = SZxCodec(CFG).compress(data)
        with CompressionService(workers=1, batching=False,
                                max_retries=3, retry_backoff_s=0.001) as svc:
            with faults.inject("serve.worker.compress", TransientError, times=2):
                assert svc.compress(data, CFG) == expected
            assert svc.stats()["retries"] == 2

    def test_transient_fault_in_batch_path(self):
        arrays = [_field(256, seed=i) for i in range(6)]
        expected = [SZxCodec(CFG).compress(a) for a in arrays]
        with CompressionService(workers=1, batch_window_s=0.05,
                                max_retries=3, retry_backoff_s=0.001) as svc:
            with faults.inject("serve.worker.batch", TransientError, times=1):
                futs = [svc.submit_compress(a, CFG) for a in arrays]
                assert [f.result(timeout=30) for f in futs] == expected

    def test_retry_budget_exhausted_fails_job(self):
        with CompressionService(workers=1, batching=False,
                                max_retries=1, retry_backoff_s=0.001) as svc:
            with faults.inject("serve.worker.compress", TransientError, times=5):
                fut = svc.submit_compress(_field(100), CFG)
                with pytest.raises(TransientError):
                    fut.result(timeout=30)
            assert svc.stats()["failed"] == 1

    def test_permanent_fault_not_retried(self):
        with CompressionService(workers=1, batching=False,
                                max_retries=3) as svc:
            with faults.inject("serve.worker.compress", RuntimeError("disk on fire")):
                fut = svc.submit_compress(_field(100), CFG)
                with pytest.raises(RuntimeError, match="disk on fire"):
                    fut.result(timeout=30)
            assert svc.stats()["retries"] == 0

    def test_faulty_decompress_retried(self):
        data = _field(1_000)
        stream = SZxCodec(CFG).compress(data)
        with CompressionService(workers=1, max_retries=2,
                                retry_backoff_s=0.001) as svc:
            with faults.inject("serve.worker.decompress", TransientError, times=1):
                recon = svc.decompress(stream)
        np.testing.assert_array_equal(recon, SZxCodec(CFG).decompress(stream))

    def test_service_survives_faults_and_serves_later_jobs(self):
        data = _field(500)
        expected = SZxCodec(CFG).compress(data)
        with CompressionService(workers=2, batching=False, max_retries=0) as svc:
            with faults.inject("serve.worker.compress", TransientError, times=2):
                bad = [svc.submit_compress(data, CFG) for _ in range(2)]
                for f in bad:
                    with pytest.raises(TransientError):
                        f.result(timeout=30)
            assert svc.compress(data, CFG) == expected


class TestBackpressure:
    def test_overload_rejects_fast(self):
        data = _field(1 << 18)
        svc = CompressionService(workers=1, queue_capacity=2,
                                 overflow="reject", batching=False)
        try:
            futs = []
            rejected = 0
            for _ in range(40):
                try:
                    futs.append(svc.submit_compress(data, CFG))
                except ServiceOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert svc.stats()["rejected"] == rejected
            for f in futs:
                f.result(timeout=60)
        finally:
            svc.close()

    def test_block_policy_times_out(self, monkeypatch):
        # Jobs slowed to 200 ms each: one worker cannot free queue
        # space within the 50 ms submit deadline.
        class SlowCodec(SZxCodec):
            def compress(self, data):
                time.sleep(0.2)
                return super().compress(data)

        monkeypatch.setattr(service_module, "SZxCodec", SlowCodec)
        data = _field(1 << 15)
        svc = CompressionService(workers=1, queue_capacity=1,
                                 overflow="block", submit_timeout_s=0.05,
                                 batching=False)
        try:
            futs = []
            with pytest.raises(ServiceOverloadedError):
                for _ in range(6):
                    futs.append(svc.submit_compress(data, CFG))
            for f in futs:
                f.result(timeout=120)
        finally:
            svc.close()

    def test_per_job_timeout_expires_stale_queued_work(self):
        slow = _field(1 << 19)
        svc = CompressionService(workers=1, queue_capacity=64, batching=False)
        try:
            head = [svc.submit_compress(slow, CFG) for _ in range(4)]
            stale = svc.submit_compress(_field(128), CFG, timeout_s=1e-6)
            with pytest.raises(JobTimeoutError):
                stale.result(timeout=60)
            assert svc.stats()["timeouts"] == 1
            for f in head:
                f.result(timeout=60)
        finally:
            svc.close()


class TestLifecycle:
    def test_close_drains_accepted_jobs(self):
        arrays = [_field(512, seed=i) for i in range(10)]
        expected = [SZxCodec(CFG).compress(a) for a in arrays]
        svc = CompressionService(workers=2, batch_window_s=0.05)
        futs = [svc.submit_compress(a, CFG) for a in arrays]
        svc.close(drain=True)
        assert [f.result(timeout=0) for f in futs] == expected

    def test_close_without_drain_fails_pending(self):
        data = _field(1 << 18)
        svc = CompressionService(workers=1, queue_capacity=64, batching=False)
        futs = [svc.submit_compress(data, CFG) for _ in range(6)]
        svc.close(drain=False)
        outcomes = []
        for f in futs:
            try:
                f.result(timeout=0)
                outcomes.append("ok")
            except ServiceClosedError:
                outcomes.append("closed")
        # Jobs already on a worker finish; queued ones are failed.
        assert "closed" in outcomes

    def test_submit_after_close_raises(self):
        svc = CompressionService(workers=1)
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosedError):
            svc.submit_compress(_field(10), CFG)

    def test_close_idempotent(self):
        svc = CompressionService(workers=1)
        svc.close()
        svc.close()

    def test_bad_params(self):
        with pytest.raises(ValueError):
            CompressionService(overflow="drop-oldest")
        with pytest.raises(ValueError):
            CompressionService(workers=0)
        with pytest.raises(ValueError):
            CompressionService(max_retries=-1)


class TestSpanPropagation:
    """serve.job.* spans nest under the submitting request's span."""

    @staticmethod
    def _names(span):
        yield span.name
        for child in span.children:
            yield from TestSpanPropagation._names(child)

    def test_job_span_nests_under_request_span(self):
        from repro import observe

        data = _field(4_096)
        with observe.trace() as sink:
            with CompressionService(workers=2) as svc:
                with observe.span("client.request"):
                    svc.compress(data, CFG)
        roots = [s for s in sink.spans if s.name == "client.request"]
        assert roots, [s.name for s in sink.spans]
        assert "serve.job.compress" in list(self._names(roots[0]))
        # The job span must not ALSO surface as its own root.
        assert "serve.job.compress" not in [s.name for s in sink.spans]

    def test_decompress_job_nests_too(self):
        from repro import observe

        data = _field(4_096)
        stream = SZxCodec(CFG).compress(data)
        with observe.trace() as sink:
            with CompressionService(workers=1) as svc:
                with observe.span("client.request"):
                    svc.decompress(stream)
        (root,) = [s for s in sink.spans if s.name == "client.request"]
        assert "serve.job.decompress" in list(self._names(root))

    def test_job_span_is_root_without_request_span(self):
        from repro import observe

        data = _field(4_096)
        with observe.trace() as sink:
            with CompressionService(workers=1) as svc:
                svc.compress(data, CFG)
        assert "serve.job.compress" in [s.name for s in sink.spans]

    def test_orphaned_job_span_delivered_as_root(self):
        # The submitting span closes before the worker finishes: the job
        # span must not be lost, nor attached to the delivered parent.
        from repro import observe

        data = _field(1 << 18)
        with observe.trace() as sink:
            with CompressionService(workers=1, batching=False) as svc:
                with observe.span("fire.and.forget"):
                    fut = svc.submit_compress(data, CFG)
                fut.result()
        names = [s.name for s in sink.spans]
        assert "fire.and.forget" in names
        assert "serve.job.compress" in names
        (req,) = [s for s in sink.spans if s.name == "fire.and.forget"]
        assert "serve.job.compress" not in list(self._names(req))[1:]
