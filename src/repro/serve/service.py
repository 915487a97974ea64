"""The in-process compression service.

:class:`CompressionService` is the scheduling substrate the rest of the
repo submits codec work to: a **bounded** submission queue feeding a
dispatcher thread that micro-batches compatible small jobs
(:mod:`repro.serve.batching`) and fans work out to a worker pool.  The
paper's argument is that SZx must never be the pipeline bottleneck
(Section 1's instrument use case); this layer extends that argument
from one array to *many concurrent requests*:

* **backpressure** — when the queue is full, ``overflow="reject"``
  fails the submit immediately with
  :class:`~repro.serve.errors.ServiceOverloadedError` and
  ``overflow="block"`` waits up to ``submit_timeout_s`` first, so
  memory stays bounded either way;
* **deadlines** — a per-job ``timeout_s`` expires jobs still waiting in
  the queue (:class:`~repro.serve.errors.JobTimeoutError`) instead of
  serving arbitrarily stale work;
* **bounded retries** — worker faults raising
  :class:`~repro.serve.errors.TransientError` are retried up to
  ``max_retries`` times with jittered exponential backoff (fault sites
  ``serve.worker.*`` are armable via :mod:`repro.testing.faults`);
* **clean shutdown** — ``close(drain=True)`` stops admissions, runs
  everything already accepted, and joins the pool;
  ``close(drain=False)`` fails not-yet-dispatched jobs with
  :class:`~repro.serve.errors.ServiceClosedError`.

Every result is byte-identical to the synchronous
:class:`repro.codec.SZxCodec` path — batching splits streams on block
boundaries exactly like the OpenMP merge, and error bounds are resolved
per job at submit time.  Queue depth, wait/serve/reject counts, and
latency histograms feed :mod:`repro.observe` when tracing is enabled;
:meth:`CompressionService.stats` always works.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import observe
from ..codec import CodecConfig, SZxCodec
from ..core.api import _check_input, resolve_error_bound_info
from ..core.blocks import validate_block_size
from ..parallel.backends import resolve_backend
from ..parallel.omp import resolve_worker_count
from ..parallel.procpool import ProcPool, WorkerCrashError
from ..testing import faults
from . import batching as _batching
from .errors import (
    JobTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransientError,
)
from .queueing import BoundedQueue, QueueEmpty

_OVERFLOW_POLICIES = ("reject", "block")

#: Uniquifies worker-thread name prefixes so ``close()`` can tell its
#: *own* pool threads apart from any other service's.
_SERVICE_SEQ = itertools.count()


@dataclass
class _Job:
    """One accepted unit of work travelling queue → dispatcher → pool."""

    kind: str                      # "compress" | "decompress"
    future: Future
    submitted_at: float
    deadline: float | None = None
    # compress fields (bound already resolved to absolute):
    array: np.ndarray | None = None
    abs_bound: float = 0.0
    block_size: int = 0
    checksum: bool = False
    # decompress fields:
    payload: bytes = b""
    config: CodecConfig | None = field(default=None)
    #: The submitter's innermost open span (None when untraced) — worker
    #: spans attach here so ``serve.job.*`` nests under the request.
    parent_span: object = None
    #: The request's stage ledger (a
    #: :class:`repro.observe.telemetry.RequestTimeline`, or None) —
    #: workers attribute queue-wait and kernel time into it.
    timeline: object = None


class CompressionService:
    """Concurrent compress/decompress executor with bounded admission.

    Parameters
    ----------
    workers:
        Pool size (validated and, for the thread backend, clamped to
        the CPU count like the OMP codec).  Job-level
        ``CodecConfig.workers`` is ignored — the service owns
        parallelism.
    backend:
        ``"thread"`` (default) runs codec work on the service's own
        thread pool.  ``"process"`` additionally owns a
        :class:`repro.parallel.procpool.ProcPool` of ``workers``
        processes, pre-forked at construction and torn down by
        :meth:`close`: unbatched compress/decompress jobs execute
        through shared memory on that pool, and a worker crash
        (:class:`~repro.parallel.procpool.WorkerCrashError` after the
        pool's own rebuild/retry) surfaces as a
        :class:`~repro.serve.errors.TransientError`, so the service's
        bounded-retry machinery re-runs the job on the rebuilt pool
        before failing closed.  Micro-batches stay on the thread path
        (they merge many small arrays — fork/IPC would dominate).
        Unknown names raise
        :class:`~repro.parallel.backends.UnknownBackendError`;
        ``"process"`` degrades to ``"thread"`` with a warning where
        shared memory is unavailable.
    queue_capacity, overflow, submit_timeout_s:
        The backpressure policy (see module docstring).
    batching, batch_window_s, batch_max_jobs, batch_max_values:
        Micro-batching controls; ``batching=False`` gives the
        one-kernel-call-per-job baseline on the same pool.
    max_retries, retry_backoff_s:
        Transient-fault retry budget and base backoff (exponential,
        jittered to half–1.5× to avoid retry stampedes).
    metrics_export_path, metrics_flush_interval_s, metrics_export_fmt:
        When a path is given, a
        :class:`repro.observe.PeriodicMetricsFlusher` snapshots the
        metrics registry there on the interval (``"jsonl"`` event feed
        or ``"prom"`` Prometheus textfile) for the service's lifetime;
        a final flush runs on :meth:`close`.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        backend: str = "thread",
        queue_capacity: int = 128,
        overflow: str = "reject",
        submit_timeout_s: float = 1.0,
        batching: bool = True,
        batch_window_s: float = _batching.DEFAULT_BATCH_WINDOW_S,
        batch_max_jobs: int = _batching.DEFAULT_BATCH_MAX_JOBS,
        batch_max_values: int = _batching.DEFAULT_BATCH_MAX_VALUES,
        max_retries: int = 2,
        retry_backoff_s: float = 0.005,
        default_config: CodecConfig | None = None,
        metrics_export_path=None,
        metrics_flush_interval_s: float = 5.0,
        metrics_export_fmt: str = "jsonl",
    ):
        if overflow not in _OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {_OVERFLOW_POLICIES}, got {overflow!r}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.backend = resolve_backend(backend)
        self.workers = resolve_worker_count(workers, backend=self.backend)
        self.overflow = overflow
        #: None = block without deadline; only used under overflow="block".
        self.submit_timeout_s = (
            None if submit_timeout_s is None else float(submit_timeout_s)
        )
        self.default_config = default_config
        self._queue = BoundedQueue(queue_capacity)
        self._batching = bool(batching)
        self._batcher = _batching.MicroBatcher(
            window_s=batch_window_s,
            max_jobs=batch_max_jobs,
            max_values=batch_max_values,
        )
        self._max_retries = int(max_retries)
        self._retry_backoff_s = float(retry_backoff_s)
        self._rng = random.Random(0xC0DEC)
        self._lock = threading.Lock()
        self._counts = {
            "submitted": 0, "served": 0, "rejected": 0, "failed": 0,
            "timeouts": 0, "retries": 0, "batches": 0, "batched_jobs": 0,
        }
        self._discard = False
        self._closed = False
        # The executor's internal queue is unbounded; without this gate
        # the dispatcher would drain the bounded queue straight into it
        # and the capacity limit would never exert backpressure.  One
        # slot per worker: the dispatcher stalls once every worker is
        # busy, the submission queue fills, and admission rejects.
        self._slots = threading.BoundedSemaphore(self.workers)
        self._worker_prefix = f"serve-worker-{next(_SERVICE_SEQ)}"
        self._close_done = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=self._worker_prefix
        )
        # Process backend: fork the worker fleet once, up front, so the
        # first job pays no fork latency and close() owns the teardown.
        self._procpool = (
            ProcPool(self.workers).start() if self.backend == "process" else None
        )
        self._flusher = None
        if metrics_export_path is not None:
            self._flusher = observe.PeriodicMetricsFlusher(
                metrics_export_path,
                interval_s=metrics_flush_interval_s,
                fmt=metrics_export_fmt,
            ).start()
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- bookkeeping ----------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] += n
        if observe.enabled():
            observe.counter(f"serve.jobs.{name}").inc(n)

    def stats(self) -> dict:
        """Snapshot of service counters plus current queue depth."""
        with self._lock:
            out = dict(self._counts)
        out["queue_depth"] = len(self._queue)
        out["workers"] = self.workers
        out["backend"] = self.backend
        return out

    # -- submission -----------------------------------------------------
    def _admit(self, job: _Job, block: bool | None) -> Future:
        if block is None:
            block = self.overflow == "block"
        try:
            self._queue.put(
                job, block=block,
                timeout=self.submit_timeout_s if block else None,
            )
        except ServiceClosedError:
            raise
        except ServiceOverloadedError:
            self._count("rejected")
            raise
        self._count("submitted")
        return job.future

    def submit_compress(
        self,
        data,
        config: CodecConfig | None = None,
        *,
        timeout_s: float | None = None,
        block: bool | None = None,
        parent_span=None,
        timeline=None,
    ) -> Future:
        """Enqueue a compression job; returns a ``Future[bytes]``.

        The error bound is resolved (REL → absolute) against *data*
        here, so the eventual stream is byte-identical to
        ``SZxCodec(config).compress(data)`` regardless of how jobs are
        batched or scheduled.  Invalid input/config raise immediately.
        *parent_span* overrides the submitting thread's current span as
        the parent for worker-side job spans — asyncio callers (the
        network front door) pass their detached request span, which the
        thread-local stack cannot carry across awaits.  *timeline* is
        the request's stage ledger: the worker adds ``serve_wait`` and
        ``kernel`` attributions to it.
        """
        config = config or self.default_config
        if config is None or config.err_bound is None:
            raise ValueError(
                "compress needs a CodecConfig with err_bound "
                "(pass one, or construct the service with default_config)"
            )
        arr = _check_input(data)
        block_size = validate_block_size(config.block_size)
        resolution = resolve_error_bound_info(arr, config.err_bound, config.mode)
        now = time.monotonic()
        job = _Job(
            kind="compress",
            future=Future(),
            submitted_at=now,
            deadline=now + timeout_s if timeout_s is not None else None,
            array=arr,
            abs_bound=resolution.abs_bound,
            block_size=block_size,
            checksum=config.checksum,
            parent_span=self._parent_span(parent_span),
            timeline=timeline,
        )
        return self._admit(job, block)

    def submit_decompress(
        self,
        stream,
        config: CodecConfig | None = None,
        *,
        timeout_s: float | None = None,
        block: bool | None = None,
        parent_span=None,
        timeline=None,
    ) -> Future:
        """Enqueue a decompression job; returns a ``Future[ndarray]``."""
        config = config or self.default_config or CodecConfig()
        now = time.monotonic()
        job = _Job(
            kind="decompress",
            future=Future(),
            submitted_at=now,
            deadline=now + timeout_s if timeout_s is not None else None,
            payload=bytes(stream),
            config=config.replace(workers=1),
            parent_span=self._parent_span(parent_span),
            timeline=timeline,
        )
        return self._admit(job, block)

    @staticmethod
    def _parent_span(explicit):
        if explicit is not None:
            return explicit
        return observe.current_span() if observe.enabled() else None

    def compress(self, data, config: CodecConfig | None = None, **kw) -> bytes:
        """Synchronous convenience: submit and wait."""
        return self.submit_compress(data, config, **kw).result()

    def decompress(self, stream, config: CodecConfig | None = None, **kw):
        """Synchronous convenience: submit and wait."""
        return self.submit_decompress(stream, config, **kw).result()

    # -- dispatcher -----------------------------------------------------
    def _dispatch(self) -> None:
        batcher = self._batcher
        while True:
            deadline = batcher.next_deadline()
            timeout = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            try:
                job = self._queue.get(timeout=timeout)
            except QueueEmpty:
                self._launch_batches(batcher.pop_expired(time.monotonic()))
                continue
            except ServiceClosedError:
                break
            if self._discard:  # analyze: ignore[lock-discipline] - monotonic flag, set before queue.close()
                self._fail(job, ServiceClosedError("service closed without draining"))
                continue
            if self._batching and _batching.is_batchable(job):
                self._launch_batches(batcher.add(job, time.monotonic()))
                self._launch_batches(batcher.pop_expired(time.monotonic()))
            else:
                self._launch(self._run_single, job)
        leftovers = batcher.pop_all()
        if self._discard:  # analyze: ignore[lock-discipline] - queue already closed, flag is final
            for group in leftovers:
                for job in group:
                    self._fail(job, ServiceClosedError("service closed without draining"))
        else:
            self._launch_batches(leftovers)

    def _launch_batches(self, groups) -> None:
        for jobs in groups:
            if len(jobs) == 1:
                self._launch(self._run_single, jobs[0])
            else:
                self._launch(self._run_batch, jobs)

    def _launch(self, fn, arg) -> None:
        """Submit one work unit, holding a worker slot until it ends."""
        self._slots.acquire()
        try:
            self._pool.submit(fn, arg)
        except BaseException:
            self._slots.release()
            raise

    # -- execution ------------------------------------------------------
    def _claim(self, job: _Job) -> bool:
        """Mark the job running; False when cancelled or past deadline."""
        if not job.future.set_running_or_notify_cancel():
            return False
        now = time.monotonic()
        if observe.enabled():
            observe.histogram("serve.job.wait_s").observe(now - job.submitted_at)
        if job.timeline is not None:
            job.timeline.put("serve_wait", now - job.submitted_at)
        if job.deadline is not None and now > job.deadline:
            self._count("timeouts")
            job.future.set_exception(
                JobTimeoutError(
                    f"job deadline expired after "
                    f"{now - job.submitted_at:.3f}s in queue"
                )
            )
            return False
        return True

    def _fail(self, job: _Job, exc: BaseException) -> None:
        self._count("failed")
        if job.future.set_running_or_notify_cancel():
            job.future.set_exception(exc)

    def _with_retries(self, fn, site: str):
        attempt = 0
        while True:
            try:
                faults.maybe_fail(site)
                return fn()
            except TransientError:
                if attempt >= self._max_retries:
                    raise
                self._count("retries")
                with self._lock:
                    jitter = 0.5 + self._rng.random()
                time.sleep(self._retry_backoff_s * (2 ** attempt) * jitter)
                attempt += 1

    def _run_single(self, job: _Job) -> None:
        try:
            self._run_single_inner(job)
        finally:
            self._slots.release()

    def _compress_on_procpool(self, job: _Job) -> bytes:
        from ..parallel.procpool import compress_components_procpool

        try:
            return compress_components_procpool(
                job.array,
                job.abs_bound,
                mode="abs",
                block_size=job.block_size,
                n_procs=self.workers,
                checksum=job.checksum,
                pool=self._procpool,
            ).to_bytes()
        except WorkerCrashError as exc:
            # The pool has already been rebuilt; the job is pure, so the
            # service retry loop may safely re-run it on the fresh pool.
            raise TransientError(str(exc)) from exc

    def _decompress_on_procpool(self, job: _Job):
        from ..core.stream import parse_stream
        from ..parallel.procpool import decompress_components_procpool

        try:
            return decompress_components_procpool(
                parse_stream(job.payload), n_procs=self.workers,
                pool=self._procpool,
            )
        except WorkerCrashError as exc:
            raise TransientError(str(exc)) from exc

    def _run_single_inner(self, job: _Job) -> None:
        if not self._claim(job):
            return
        t0 = time.monotonic()
        use_procs = self._procpool is not None and self.workers > 1
        try:
            with observe.span(f"serve.job.{job.kind}", parent=job.parent_span):
                if job.kind == "compress":
                    if use_procs:
                        result = self._with_retries(
                            lambda: self._compress_on_procpool(job),
                            "serve.worker.compress",
                        )
                    else:
                        codec = SZxCodec(
                            CodecConfig(
                                err_bound=job.abs_bound,
                                mode="abs",
                                block_size=job.block_size,
                                checksum=job.checksum,
                            )
                        )
                        result = self._with_retries(
                            lambda: codec.compress(job.array),
                            "serve.worker.compress",
                        )
                elif use_procs:
                    result = self._with_retries(
                        lambda: self._decompress_on_procpool(job),
                        "serve.worker.decompress",
                    )
                else:
                    codec = SZxCodec(job.config)
                    result = self._with_retries(
                        lambda: codec.decompress(job.payload),
                        "serve.worker.decompress",
                    )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the future
            self._count("failed")
            job.future.set_exception(exc)
            return
        self._record_exec(t0)
        if job.timeline is not None:
            job.timeline.put("kernel", time.monotonic() - t0)
        self._count("served")
        job.future.set_result(result)

    def _run_batch(self, jobs) -> None:
        try:
            self._run_batch_inner(jobs)
        finally:
            self._slots.release()

    def _run_batch_inner(self, jobs) -> None:
        live = [j for j in jobs if self._claim(j)]
        if not live:
            return
        t0 = time.monotonic()
        self._count("batches")
        self._count("batched_jobs", len(live))
        if observe.enabled():
            observe.histogram("serve.batch.jobs").observe(len(live))
        # A merged batch has one span; it can only nest under a request
        # span when every member came from the same one.
        parents = {id(j.parent_span) for j in live}
        batch_parent = live[0].parent_span if len(parents) == 1 else None
        try:
            with observe.span(
                "serve.batch",
                parent=batch_parent,
                jobs=len(live),
                bytes_in=sum(int(j.array.nbytes) for j in live),
            ):
                streams = self._with_retries(
                    lambda: _batching.compress_batch(live),
                    "serve.worker.batch",
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the futures
            self._count("failed", len(live))
            for job in live:
                job.future.set_exception(exc)
            return
        self._record_exec(t0)
        batch_s = time.monotonic() - t0
        self._count("served", len(live))
        for job, stream in zip(live, streams):
            if job.timeline is not None:
                job.timeline.put("kernel", batch_s)
            job.future.set_result(stream)

    def _record_exec(self, t0: float) -> None:
        if observe.enabled():
            observe.histogram("serve.job.exec_s").observe(time.monotonic() - t0)

    # -- lifecycle ------------------------------------------------------
    def _is_service_thread(self) -> bool:
        """True when the calling thread is owned by this service."""
        cur = threading.current_thread()
        return cur is self._dispatcher or cur.name.startswith(self._worker_prefix)

    def _teardown(self, timeout: float | None) -> None:
        """Join the dispatcher and pools, then flush metrics — the
        blocking half of :meth:`close`, run at most once."""
        try:
            self._dispatcher.join(timeout)
            self._pool.shutdown(wait=True)
            if self._procpool is not None:
                # After the thread pool joined, no job can still touch
                # the process pool — safe to reap the forked workers.
                self._procpool.close()
            if self._flusher is not None:
                self._flusher.stop()
        finally:
            self._close_done.set()

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the service down (idempotent, safe from any thread).

        With ``drain=True`` every accepted job still runs to completion;
        with ``drain=False`` not-yet-dispatched jobs fail with
        :class:`~repro.serve.errors.ServiceClosedError` (work already on
        a worker finishes — threads cannot be interrupted).

        Double-close and close-during-drain are no-ops: a second call
        waits (up to *timeout*) for the first teardown to finish and
        returns.  A close issued from one of the service's own threads
        — a ``Future`` done-callback runs on the worker that completed
        the job — cannot join the calling thread, so the teardown is
        handed to a helper thread instead of raising.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
            if first and not drain:
                self._discard = True
        if not first:
            # Close already in progress (or done).  Joining from inside
            # the service would deadlock against our own teardown.
            if not self._is_service_thread():
                self._close_done.wait(timeout)
            return
        self._queue.close()
        if self._is_service_thread():
            threading.Thread(
                target=self._teardown, args=(timeout,),
                name="serve-closer", daemon=True,
            ).start()
            return
        self._teardown(timeout)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
