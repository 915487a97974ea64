"""Multi-process SZx execution backend over POSIX shared memory.

The thread harness (:mod:`repro.parallel.omp`) mirrors the paper's
OpenMP loop split, but CPython serializes the Python-level glue between
numpy kernels, so threads buy little on interpreter-bound block sizes.
This module is the same Section 6.1 decomposition across *processes*:

* the flat input array is published once as a
  ``multiprocessing.shared_memory`` segment and every worker maps a
  zero-copy view of its block range — array payloads are never pickled;
* compressed payload bytes are written into a shared output **arena**
  sized by the format's worst case (``n_values * itemsize`` mid-bytes
  plus per-block prefix and lead sections), one disjoint slice per
  worker, so results come back through shared memory too;
* the parent cuts and merges the per-worker sections with the same
  :func:`repro.core.stream.split_blocks` /
  :func:`~repro.core.stream.join_blocks` pair as the thread backend —
  each decompression task's payload range is the running sum of the
  part payload lengths — so the assembled stream is **byte-identical**
  to the serial path (enforced by
  ``tests/parallel/test_backend_differential.py``);
* a worker death (OOM kill, segfault, injected
  :func:`repro.testing.faults.claim_kill` token) surfaces as
  :class:`WorkerCrashError` after the pool is rebuilt; block
  compression is pure, so the parent retries the whole task set on a
  fresh pool up to ``crash_retries`` times before failing closed.

Per-worker spans cannot cross the process boundary, so each worker
reports its wall/CPU time and pid and the parent reconstructs
``procworker[i]`` child spans from them; ``parallel.procpool.*``
metrics (tasks, task seconds, crashes, pool rebuilds) feed the metrics
registry whenever :mod:`repro.observe` is enabled.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .. import observe
from ..core.constants import DEFAULT_BLOCK_SIZE, FLAG_CHECKSUM, traits_for
from ..core.stream import StreamComponents, join_blocks, payload_bound
from ..core.kernels import compress_blocks, decompress_blocks
from .chunking import split_input, split_stream

# NOTE: repro.testing imports repro.parallel (the fuzz oracles exercise
# the OMP codec), so faults must be imported lazily to avoid a cycle.

#: Fault site checked at the top of every worker task; arm it with
#: ``faults.inject_kill(KILL_SITE)`` to make (exactly) that many workers
#: die mid-job with ``os._exit`` — the crash-recovery test hook.
KILL_SITE = "parallel.procpool.worker"

#: Worker exit status used by the injected kill (visible in core dumps /
#: pool diagnostics; any abnormal exit breaks the pool the same way).
_KILL_EXIT_STATUS = 17


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-job and the crash-retry budget is spent.

    The pool has already been rebuilt when this raises; the shared
    memory segments of the failed call are cleaned up by the parent's
    ``finally`` blocks, so no ``/dev/shm`` names leak.
    """


# -- shared-memory plumbing ---------------------------------------------


def _create_shm(nbytes: int):
    """Create a segment of at least 1 byte (0-size segments are illegal)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))


def _attach_shm(name: str):
    """Attach an existing segment by name (worker-side).

    Ownership stays with the creating (parent) process: workers only
    ``close()`` their mapping, the parent does the single ``unlink``.
    Under the default fork start method the pool shares one
    resource-tracker process with the parent, whose registration set is
    idempotent, so worker attaches need no unregister bookkeeping.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _destroy_shm(shm) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # already gone (crashed run raced cleanup)
        pass


# -- worker task bodies (top-level: picklable under any start method) ---


def _warmup_task(i: int) -> int:
    """No-op task used to pre-fork pool workers at startup."""
    return os.getpid()


def _guarded(fn, task: tuple, kill_token_dir: str | None):
    """Worker entry: consume an armed kill token (test hook), then run.

    The token directory travels inside the submitted call — not via
    environment or module state — so arming works for workers forked at
    any time, under any start method, and ``claim_kill``'s atomic unlink
    guarantees exactly the armed number of workers die fleet-wide.
    """
    from ..testing import faults

    if faults.claim_kill(kill_token_dir):
        os._exit(_KILL_EXIT_STATUS)
    return fn(task)


def _compress_task(task: tuple):
    (
        in_name, arena_name, dtype_str, n_values, lo, hi,
        arena_off, arena_cap, abs_bound, block_size, trace_ctx,
    ) = task
    import time as _time

    # The trace context rides in the job descriptor; the worker mints
    # its own span id here, in its own process, so the parent-side
    # reconstruction carries a causally real cross-process identity.
    span_id = os.urandom(8).hex() if trace_ctx else ""
    t0 = os.times()
    w0 = _time.perf_counter()
    in_shm = _attach_shm(in_name)
    try:
        flat = np.ndarray((n_values,), dtype=np.dtype(dtype_str), buffer=in_shm.buf)
        part = compress_blocks(flat[lo:hi], abs_bound, block_size)
        # The payload travels through the arena; the small sections
        # travel with the (payload-less) part.
        payload, part.payload = part.payload, b""
        if len(payload) > arena_cap:  # impossible by payload_bound; fail loud
            raise RuntimeError(
                f"compressed payload {len(payload)}B exceeds arena slice "
                f"{arena_cap}B"
            )
        arena_shm = _attach_shm(arena_name)
        try:
            arena_shm.buf[arena_off : arena_off + len(payload)] = payload
        finally:
            arena_shm.close()
        t1 = os.times()
        return (
            part,
            len(payload),
            _time.perf_counter() - w0,
            (t1.user - t0.user) + (t1.system - t0.system),
            os.getpid(),
            span_id,
        )
    finally:
        in_shm.close()


def _decompress_task(task: tuple):
    (
        payload_name, out_name, total_n, lo, part,
        payload_lo, payload_hi, trace_ctx,
    ) = task
    import time as _time

    span_id = os.urandom(8).hex() if trace_ctx else ""
    w0 = _time.perf_counter()
    payload_shm = _attach_shm(payload_name)
    try:
        # The (compressed, small) payload slice is materialized locally;
        # the (large) reconstruction goes back through the output segment.
        part.payload = bytes(payload_shm.buf[payload_lo:payload_hi])
    finally:
        payload_shm.close()
    out_shm = _attach_shm(out_name)
    try:
        out = np.ndarray(
            (total_n,), dtype=part.header.traits.dtype, buffer=out_shm.buf
        )
        decompress_blocks(part, out=out[lo : lo + part.header.n])
    finally:
        out_shm.close()
    return (_time.perf_counter() - w0, 0.0, os.getpid(), span_id)


# -- the managed pool ---------------------------------------------------


class ProcPool:
    """A rebuildable :class:`ProcessPoolExecutor` with crash recovery.

    One instance is safe to share across threads (the executor is) and
    across many compress/decompress calls — fork cost is paid once, not
    per call.  ``run`` submits a task list, waits for all results in
    order, and converts a broken pool (a worker died) into either a
    transparent retry on a fresh pool (block compression is pure and
    arena writes are idempotent) or a :class:`WorkerCrashError`.
    """

    def __init__(self, n_procs: int, *, crash_retries: int = 1):
        if not isinstance(n_procs, int) or isinstance(n_procs, bool) or n_procs < 1:
            raise ValueError(f"n_procs must be a positive int, got {n_procs!r}")
        if crash_retries < 0:
            raise ValueError("crash_retries must be >= 0")
        self.n_procs = n_procs
        self.crash_retries = int(crash_retries)
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.n_procs)
                if observe.enabled():
                    observe.gauge("parallel.procpool.workers").set(self.n_procs)
            return self._executor

    def start(self) -> "ProcPool":
        """Pre-fork every worker now (one no-op task per worker)."""
        executor = self._ensure_executor()
        list(executor.map(_warmup_task, range(self.n_procs)))
        return self

    def _rebuild(self) -> None:
        """Discard a broken executor so the next run forks a fresh pool."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if observe.enabled():
            observe.counter("parallel.procpool.pool_rebuilds").inc()

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- execution ------------------------------------------------------
    def run(self, fn, tasks: list) -> list:
        """Run *tasks* through *fn* on the pool; results in task order.

        A worker death breaks the whole executor (that is how
        :class:`ProcessPoolExecutor` fails); the broken pool is torn
        down and, while the crash-retry budget lasts, the full task set
        re-runs on a fresh pool — safe because every task is pure and
        writes only its own shared-memory slice.
        """
        from ..testing import faults

        attempts = self.crash_retries + 1
        for attempt in range(attempts):
            executor = self._ensure_executor()
            kill = faults.kill_dir(KILL_SITE)
            try:
                futures = [
                    executor.submit(_guarded, fn, task, kill) for task in tasks
                ]
                results = [f.result() for f in futures]
            except BrokenProcessPool as exc:
                if observe.enabled():
                    observe.counter("parallel.procpool.crashes").inc()
                self._rebuild()
                if attempt + 1 >= attempts:
                    raise WorkerCrashError(
                        f"process-pool worker died mid-job "
                        f"({len(tasks)} task(s), attempt {attempt + 1}/{attempts}); "
                        f"pool rebuilt"
                    ) from exc
                continue
            if observe.enabled():
                observe.counter("parallel.procpool.tasks").inc(len(tasks))
            return results
        raise AssertionError("unreachable")  # pragma: no cover


# -- shared default pools (one per worker count, reused across calls) ---

_default_pools: dict[int, ProcPool] = {}
_default_pools_lock = threading.Lock()


def default_pool(n_procs: int) -> ProcPool:
    """The process-wide shared pool for *n_procs* workers.

    Codec-level calls route here so repeated ``SZxCodec.compress`` calls
    amortize fork cost; long-lived owners (the serve layer) construct
    their own :class:`ProcPool` for explicit lifecycle control.
    """
    with _default_pools_lock:
        pool = _default_pools.get(n_procs)
        if pool is None or pool.closed:
            pool = _default_pools[n_procs] = ProcPool(n_procs)
        return pool


def shutdown_default_pools() -> None:
    """Close every cached default pool (tests and interpreter exit)."""
    with _default_pools_lock:
        pools = list(_default_pools.values())
        _default_pools.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_default_pools)


# -- parent-side orchestration ------------------------------------------


def _task_trace_ctx(root):
    """The traceparent string a task descriptor should carry (or None).

    Built from the *current* procpool root span, so worker ids minted
    against it join the request's distributed trace.
    """
    from ..observe.telemetry import from_span

    ctx = from_span(root) if isinstance(root, observe.Span) else None
    return ctx.to_traceparent() if ctx is not None else None


def _emit_worker_spans(root, reports, bytes_in: list) -> None:
    """Reconstruct ``procworker[i]`` child spans from worker reports.

    Each report carries the span id the worker minted in its own
    process; the reconstructed span adopts it (instead of the parent
    minting a fresh one), so the cross-process parent/child edge in the
    stitched trace points at an id that really originated in the
    worker.
    """
    if not (observe.enabled() and isinstance(root, observe.Span)):
        return
    for i, (wall_s, cpu_s, pid, span_id) in enumerate(reports):
        with observe.span(
            f"procworker[{i}]", parent=root, bytes_in=bytes_in[i], pid=pid,
            cpu_s=round(cpu_s, 6),
        ) as sp:
            pass
        # The span body ran in another process; restore its real window
        # and the identity minted over there.
        sp.t0 = sp.t1 - wall_s
        if span_id:
            sp.span_id = span_id
        observe.histogram("parallel.procpool.task_s").observe(wall_s)


def compress_components_procpool(
    data: np.ndarray,
    abs_bound: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_procs: int = 4,
    checksum: bool = False,
    pool: ProcPool | None = None,
) -> StreamComponents:
    """Multi-process compression of checked *data* under *abs_bound*.

    The input is published once as a shared-memory segment; each worker
    compresses a contiguous block range from a zero-copy view and writes
    its payload into a disjoint slice of a shared output arena.  The
    parts merge with :func:`join_blocks`, as on the thread backend, so
    the stream matches the serial path byte for byte.
    """
    from .omp import resolve_worker_count

    n_procs = resolve_worker_count(n_procs, backend="process")
    flat, block_size, ranges = split_input(data, block_size, n_procs)
    if ranges is None:
        return compress_blocks(data, abs_bound, block_size, checksum=checksum)

    if pool is None:
        pool = default_pool(len(ranges))

    # Per-worker arena slices, each sized by the format's worst case.
    traits = traits_for(flat.dtype)
    caps, arena_offs, total_cap = [], [], 0
    for lo, hi in ranges:
        n_blocks = -(-(hi - lo) // block_size)
        cap = payload_bound(hi - lo, n_blocks, block_size, traits)
        arena_offs.append(total_cap)
        caps.append(cap)
        total_cap += cap

    in_shm = _create_shm(flat.nbytes)
    try:
        arena_shm = _create_shm(total_cap)
    except BaseException:
        # The input segment is already live; losing it here would leak a
        # /dev/shm name for the rest of the boot.
        _destroy_shm(in_shm)
        raise
    try:
        if flat.nbytes:
            np.ndarray(flat.shape, dtype=flat.dtype, buffer=in_shm.buf)[:] = flat
        tasks, bytes_in = [], []
        for i, (lo, hi) in enumerate(ranges):
            bytes_in.append((hi - lo) * flat.itemsize)
            tasks.append((
                in_shm.name, arena_shm.name, flat.dtype.str, flat.size,
                lo, hi, arena_offs[i], caps[i], abs_bound, block_size,
            ))

        with observe.span(
            "szx.procpool.compress", bytes_in=int(flat.nbytes), workers=len(ranges)
        ) as root:
            ctx = _task_trace_ctx(root)
            results = pool.run(_compress_task, [t + (ctx,) for t in tasks])
            _emit_worker_spans(root, [r[2:6] for r in results], bytes_in)

        parts = []
        for off, (part, size, *_) in zip(arena_offs, results):
            part.payload = bytes(arena_shm.buf[off : off + size])
            parts.append(part)
    finally:
        _destroy_shm(in_shm)
        _destroy_shm(arena_shm)

    return join_blocks(
        parts, shape=np.shape(data), flags=FLAG_CHECKSUM if checksum else 0
    )


def decompress_components_procpool(
    comp: StreamComponents, *, n_procs: int = 4, pool: ProcPool | None = None
) -> np.ndarray:
    """Multi-process decode of parsed *comp*, one block run per worker.

    The payload section is published as one shared segment; every worker
    reads its own byte range (the running sum of the
    :func:`~repro.core.stream.split_blocks` part payload lengths) and
    writes its reconstructed values into a shared output array, so
    neither direction pickles array payloads.
    """
    from .omp import resolve_worker_count

    n_procs = resolve_worker_count(n_procs, backend="process")
    runs = split_stream(comp, n_procs)
    if runs is None:
        return decompress_blocks(comp)

    header = comp.header
    if pool is None:
        pool = default_pool(len(runs))

    payload_shm = _create_shm(len(comp.payload))
    try:
        out_shm = _create_shm(header.n * header.traits.itemsize)
    except BaseException:
        # Same pairing discipline as the compress path: never let the
        # second allocation failing orphan the first segment.
        _destroy_shm(payload_shm)
        raise
    try:
        if comp.payload:
            payload_shm.buf[: len(comp.payload)] = comp.payload
        tasks, bytes_in, payload_lo = [], [], 0
        for lo, part in runs:
            payload_hi = payload_lo + len(part.payload)
            bytes_in.append(payload_hi - payload_lo)
            tasks.append((
                payload_shm.name, out_shm.name, header.n, lo,
                dataclasses.replace(part, payload=b""), payload_lo, payload_hi,
            ))
            payload_lo = payload_hi

        with observe.span(
            "szx.procpool.decompress", bytes_in=len(comp.payload),
            workers=len(runs),
        ) as root:
            ctx = _task_trace_ctx(root)
            results = pool.run(_decompress_task, [t + (ctx,) for t in tasks])
            _emit_worker_spans(root, results, bytes_in)

        out = np.ndarray(
            (header.n,), dtype=header.traits.dtype, buffer=out_shm.buf
        ).copy()
    finally:
        _destroy_shm(payload_shm)
        _destroy_shm(out_shm)

    if header.shape:
        return out.reshape(header.shape)
    return out
