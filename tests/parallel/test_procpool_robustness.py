"""Robustness of the process pool: crashes, cleanup, and validation.

The crash tests use :func:`repro.testing.faults.inject_kill` — one-shot
cross-process kill tokens claimed by an atomic unlink, so exactly the
armed number of workers ``os._exit`` mid-job no matter how the pool's
processes race.  Every test asserts the shared-memory arena is torn
down (``/dev/shm`` gains no ``psm_`` segments) even on the failure
paths — a leaked segment survives the interpreter, so this is the
invariant that matters operationally.
"""

import os
import warnings

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.core.api import compress, decompress
from repro.parallel import (
    MAX_PROCESS_WORKERS,
    KILL_SITE,
    ProcPool,
    UnknownBackendError,
    WorkerCrashError,
    default_pool,
    resolve_backend,
    resolve_worker_count,
    shutdown_default_pools,
)
from repro.parallel import backends as backends_mod
from repro.testing import faults

RNG = np.random.default_rng(77)


def proc_codec(workers, err_bound=None):
    """The codec on the process backend with *workers* processes."""
    return SZxCodec(CodecConfig(
        err_bound=err_bound, workers=workers, backend="process"
    ))


def shm_segments():
    """Names of live POSIX shared-memory segments (this machine)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: fall back to "can't check"
        return set()


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def data():
    return np.cumsum(RNG.normal(size=30_011)).astype(np.float32)


class TestCrashRecovery:
    def test_single_crash_recovers_transparently(self, data):
        serial = compress(data, 1e-3)
        before = shm_segments()
        with ProcPool(3, crash_retries=1) as pool:
            with faults.inject_kill(KILL_SITE, times=1):
                from repro.parallel.procpool import compress_components_procpool

                comp = compress_components_procpool(
                    data, 1e-3, n_procs=3, pool=pool
                )
            assert comp.to_bytes() == serial
        assert shm_segments() <= before

    def test_crash_budget_exhausted_fails_closed(self, data):
        before = shm_segments()
        with ProcPool(2, crash_retries=1) as pool:
            from repro.parallel.procpool import compress_components_procpool

            # More tokens than (retries + 1) attempts can absorb: every
            # attempt loses a worker, so the call must fail closed.
            with faults.inject_kill(KILL_SITE, times=16):
                with pytest.raises(WorkerCrashError):
                    compress_components_procpool(data, 1e-3, n_procs=2, pool=pool)
            # The arena and input segments must not outlive the failure.
            assert shm_segments() <= before
            # Disarmed, the same pool object serves again (rebuilt).
        with ProcPool(2, crash_retries=1) as pool:
            from repro.parallel.procpool import compress_components_procpool

            comp = compress_components_procpool(data, 1e-3, n_procs=2, pool=pool)
            assert comp.to_bytes() == compress(data, 1e-3)
        assert shm_segments() <= before

    def test_decompress_crash_recovers(self, data):
        stream = compress(data, 1e-3)
        before = shm_segments()
        with ProcPool(3, crash_retries=1) as pool:
            from repro.core.stream import parse_stream
            from repro.parallel.procpool import decompress_components_procpool

            with faults.inject_kill(KILL_SITE, times=1):
                out = decompress_components_procpool(
                    parse_stream(stream), n_procs=3, pool=pool
                )
            assert np.array_equal(out, decompress(stream))
        assert shm_segments() <= before

    def test_no_segments_leak_across_many_calls(self, data):
        before = shm_segments()
        for _ in range(3):
            codec = proc_codec(2, 1e-3)
            codec.decompress(codec.compress(data))
        shutdown_default_pools()
        assert shm_segments() <= before


class TestPoolLifecycle:
    def test_closed_pool_rejects_work(self):
        pool = ProcPool(2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.run(len, [()])

    def test_default_pool_recreated_after_close(self):
        pool = default_pool(2)
        pool.close()
        fresh = default_pool(2)
        assert fresh is not pool and not fresh.closed
        shutdown_default_pools()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcPool(0)
        with pytest.raises(ValueError):
            ProcPool(True)
        with pytest.raises(ValueError):
            ProcPool(2, crash_retries=-1)


class TestBackendValidation:
    def test_unknown_backend_typed_error(self):
        for bad in ("gpu", "", 3, b"process"):
            with pytest.raises(UnknownBackendError):
                resolve_backend(bad)
            with pytest.raises(UnknownBackendError):
                resolve_worker_count(2, backend=bad)
        with pytest.raises(UnknownBackendError):
            resolve_backend(None)
        # backend=None means "not specified" for the count resolver.
        assert resolve_worker_count(1, backend=None) == 1
        # UnknownBackendError is a ValueError: old call sites that catch
        # ValueError keep working.
        assert issubclass(UnknownBackendError, ValueError)

    def test_thread_counts_still_cpu_clamped(self):
        assert resolve_worker_count(10_000) == (os.cpu_count() or 1)
        assert resolve_worker_count(10_000, backend="thread") == (
            os.cpu_count() or 1
        )

    def test_process_counts_capped_not_cpu_clamped(self):
        assert resolve_worker_count(4, backend="process") == 4
        assert (
            resolve_worker_count(10_000, backend="process")
            == MAX_PROCESS_WORKERS
        )

    def test_process_falls_back_to_thread_without_shm(self, monkeypatch, data):
        monkeypatch.setattr(backends_mod, "_shm_probe_result", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("process") == "thread"
        # The codec path degrades the same way and still round-trips.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stream = proc_codec(2, 1e-3).compress(data)
        assert stream == compress(data, 1e-3)

    def test_warn_false_is_silent(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "_shm_probe_result", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("process", warn=False) == "thread"

    def test_shared_memory_available_here(self):
        # The suite's crash/differential tests only mean something when
        # the probe passes on this platform; make that explicit.
        assert backends_mod.shared_memory_available() is True
