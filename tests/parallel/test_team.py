"""The thread backend's persistent team (``repro.parallel.omp``).

The team outlives every call: its threads start on first use, keep
their kernel arenas, and always take the same block run of a call, so a
repeated call of one shape grows nothing.  A call returns or re-raises
only after all of its runs have finished.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analyze import analyze_source
from repro.codec import CodecConfig, SZxCodec
from repro.core.api import compress, decompress
from repro.core.kernels import default_arena
from repro.parallel import omp

REPO = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the team needs at least 2 cores"
)


def _field(n=300_000, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    d = np.cumsum(rng.normal(size=n)).astype(dtype)
    d[5_000:9_000] = 0.25  # a few constant blocks
    return d


def _codec(workers, err_bound=1e-3):
    return SZxCodec(CodecConfig(err_bound=err_bound, workers=workers))


def _team_threads():
    return [t for t in threading.enumerate() if t.name.startswith("szx-team-")]


def _spy(monkeypatch, name):
    """Wrap ``omp.<name>``; record (thread, arena keys, arena bytes) per run."""
    real = getattr(omp, name)
    seen = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        arena = default_arena()
        seen.append(
            (threading.current_thread(), sorted(arena._bufs), arena.nbytes)
        )
        return result

    monkeypatch.setattr(omp, name, spy)
    return seen


class TestWarmTeam:
    @pytest.mark.parametrize("name", ["compress_blocks", "decompress_blocks"])
    def test_same_shape_calls_reuse_threads_and_arenas(self, monkeypatch, name):
        d = _field()
        codec = _codec(2)
        stream = codec.compress(d)
        seen = _spy(monkeypatch, name)
        op = codec.compress if name == "compress_blocks" else codec.decompress
        arg = d if name == "compress_blocks" else stream
        op(arg)
        first = sorted(seen, key=lambda s: s[0].name)
        seen.clear()
        op(arg)
        second = sorted(seen, key=lambda s: s[0].name)

        assert len(first) == len(second) == 2
        caller = threading.current_thread()
        threads = {s[0] for s in first}
        assert caller in threads  # the caller runs block run 0 itself
        assert [t.name for t in threads - {caller}] == ["szx-team-0_0"]
        # Same threads, and their arenas gained no key and no byte.
        assert first == second

    def test_team_does_not_grow_across_calls(self):
        d = _field(60_000, seed=3)
        stream = compress(d, 1e-3)
        workers = os.cpu_count()
        codec = _codec(workers)
        codec.compress(d)
        before = _team_threads()
        for _ in range(50):
            codec.compress(d)
            codec.decompress(stream)
        after = _team_threads()
        assert after == before
        assert 1 <= len(after) <= workers - 1 <= os.cpu_count()

    def test_import_starts_no_thread(self):
        code = textwrap.dedent("""
            import threading
            from repro.parallel import omp
            assert omp._team == []
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("szx-team-")]
        """)
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )


class TestFailures:
    @pytest.mark.parametrize("name", ["compress_blocks", "decompress_blocks"])
    def test_error_reaches_caller_after_other_runs(self, monkeypatch, name):
        d = _field(100_000, seed=1)
        codec = _codec(2)
        stream = codec.compress(d)
        real = getattr(omp, name)
        caller = threading.current_thread()
        finished = []

        def flaky(*args, **kwargs):
            if threading.current_thread() is caller:
                raise RuntimeError("run 0 failed")
            time.sleep(0.3)
            result = real(*args, **kwargs)
            finished.append(time.perf_counter())
            return result

        monkeypatch.setattr(omp, name, flaky)
        with pytest.raises(RuntimeError, match="run 0 failed"):
            if name == "compress_blocks":
                codec.compress(d)
            else:
                codec.decompress(stream)
        assert len(finished) == 1  # the team's run ended before the raise

    def test_team_error_reaches_caller_and_team_survives(self, monkeypatch):
        d = _field(100_000, seed=2)
        codec = _codec(2)
        real = omp.compress_blocks
        caller = threading.current_thread()

        def flaky(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise ValueError("team run failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(omp, "compress_blocks", flaky)
        with pytest.raises(ValueError, match="team run failed"):
            codec.compress(d)
        monkeypatch.setattr(omp, "compress_blocks", real)
        assert codec.compress(d) == compress(d, 1e-3)


class TestConcurrentCallers:
    def test_four_callers_match_one_worker(self):
        fields = [_field(150_000 + 977 * i, seed=10 + i) for i in range(4)]
        fields[3] = fields[3].astype(np.float64)
        serial = [compress(f, 1e-3) for f in fields]
        serial_recon = [decompress(s) for s in serial]
        codec = _codec(2)
        results = [None] * 4
        errors = []
        start = threading.Barrier(4)

        def caller(i):
            try:
                start.wait()
                for _ in range(5):
                    stream = codec.compress(fields[i])
                    recon = codec.decompress(stream)
                    assert stream == serial[i]
                    assert recon.tobytes() == serial_recon[i].tobytes()
                results[i] = True
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so races surface
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a caller hung"
        assert not errors, errors
        assert results == [True] * 4
        assert len(_team_threads()) <= os.cpu_count()


class TestFork:
    def test_forked_child_gets_a_fresh_team(self):
        d = _field(100_000, seed=4)
        expected = compress(d, 1e-3)
        d_recon = decompress(expected).tobytes()
        codec = _codec(2)
        assert codec.compress(d) == expected  # the team is running now
        assert _team_threads()
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork() in a multi-threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # child: a hang here is caught by the parent's timeout
            status = 1
            try:
                recon = codec.decompress(expected)
                ok = codec.compress(d) == expected
                status = 0 if ok and recon.tobytes() == d_recon else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("thread-backend call hung in a forked child")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0


class TestLint:
    def test_double_checked_global_trips_lock_discipline(self):
        # Why the team is not a lazily built, double-checked global.
        src = textwrap.dedent("""
            import threading
            _lock = threading.Lock()
            _team = None

            def team():
                global _team
                if _team is None:
                    with _lock:
                        if _team is None:
                            _team = object()
                return _team
        """)
        rules = {f.rule for f in analyze_source(src, "pkg/mod.py")}
        assert "lock-discipline" in rules
