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
* the parent stitches the per-worker sections exactly like the thread
  merge — the ``zsize_array`` prefix sum gives every decompression
  worker its payload start offset — so the assembled stream is
  **byte-identical** to the serial path (enforced by
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
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .. import observe
from ..core.api import _check_input, resolve_error_bound_info
from ..core.blocks import BlockLayout, validate_block_size
from ..core.constants import DEFAULT_BLOCK_SIZE, FLAG_CHECKSUM, traits_for
from ..core.header import StreamHeader
from ..core.stream import (
    StreamComponents,
    lead_section_size,
    payload_offsets,
    payload_prefix_size,
)
from ..core.kernels import compress_blocks, decompress_blocks
from .chunking import chunk_block_ranges

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


def _payload_bound(n_values: int, n_blocks: int, block_size: int, traits) -> int:
    """Worst-case payload bytes for *n_blocks* blocks of *n_values*.

    Per non-constant block the payload is ``R byte + mu + packed lead
    codes + mid-bytes`` and mid-bytes never exceed ``itemsize`` per
    value, so the bound is exact-by-construction, not a heuristic.
    """
    per_block = payload_prefix_size(traits) + lead_section_size(block_size, traits)
    return n_values * traits.itemsize + n_blocks * per_block


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
        payload = part.payload
        if len(payload) > arena_cap:  # impossible by _payload_bound; fail loud
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
            part.nonconst_mask.tobytes(),
            part.const_mu.tobytes(),
            part.zsizes.tobytes(),
            len(payload),
            int(part.header.n_const),
            _time.perf_counter() - w0,
            (t1.user - t0.user) + (t1.system - t0.system),
            os.getpid(),
            span_id,
        )
    finally:
        in_shm.close()


def _decompress_task(task: tuple):
    (
        payload_name, out_name, dtype_str, total_n, block_size, err_bound,
        lo, hi, n_blocks, mask_bytes, mu_bytes, zsize_bytes,
        payload_lo, payload_hi, trace_ctx,
    ) = task
    import time as _time

    span_id = os.urandom(8).hex() if trace_ctx else ""
    w0 = _time.perf_counter()
    dtype = np.dtype(dtype_str)
    traits = traits_for(dtype)
    payload_shm = _attach_shm(payload_name)
    try:
        # The (compressed, small) payload slice is materialized locally;
        # the (large) reconstruction goes back through the output segment.
        payload = bytes(payload_shm.buf[payload_lo:payload_hi])
    finally:
        payload_shm.close()
    mask = np.frombuffer(mask_bytes, dtype=bool)
    sub = StreamComponents(
        header=StreamHeader(
            traits=traits,
            n=hi - lo,
            block_size=block_size,
            err_bound=err_bound,
            n_blocks=n_blocks,
            n_const=int(n_blocks - mask.sum()),
            shape=(),
        ),
        nonconst_mask=mask,
        const_mu=np.frombuffer(mu_bytes, dtype=dtype),
        zsizes=np.frombuffer(zsize_bytes, dtype=np.uint16),
        payload=payload,
    )
    out_shm = _attach_shm(out_name)
    try:
        out = np.ndarray((total_n,), dtype=dtype, buffer=out_shm.buf)
        out[lo:hi] = decompress_blocks(sub)
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
    err_bound: float,
    *,
    mode: str = "abs",
    block_size: int = DEFAULT_BLOCK_SIZE,
    n_procs: int = 4,
    checksum: bool = False,
    pool: ProcPool | None = None,
) -> StreamComponents:
    """Multi-process SZx compression to merged, byte-identical components.

    The input is published once as a shared-memory segment; each worker
    compresses a contiguous block range from a zero-copy view and writes
    its payload into a disjoint slice of a shared output arena.  The
    merge step is identical to the thread backend's, so the stream that
    :meth:`StreamComponents.to_bytes` assembles matches the serial
    path byte for byte.
    """
    from .omp import resolve_worker_count

    n_procs = resolve_worker_count(n_procs, backend="process")
    arr = _check_input(data)
    block_size = validate_block_size(block_size)
    resolution = resolve_error_bound_info(arr, err_bound, mode)
    abs_bound = resolution.abs_bound
    flat = np.ascontiguousarray(arr).reshape(-1)
    layout = BlockLayout(flat.size, block_size)
    traits = traits_for(arr.dtype)

    if layout.n_blocks == 0 or n_procs <= 1:
        comp = compress_blocks(arr, abs_bound, block_size, checksum=checksum)
        comp.bound = resolution
        return comp

    ranges = chunk_block_ranges(layout.n_blocks, n_procs)
    if pool is None:
        pool = default_pool(len(ranges))

    # Per-worker arena slices, each sized by the format's worst case.
    caps, arena_offs, total_cap = [], [], 0
    for first, last in ranges:
        n_vals = min(last * block_size, flat.size) - first * block_size
        cap = _payload_bound(n_vals, last - first, block_size, traits)
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
        for i, (first, last) in enumerate(ranges):
            lo = first * block_size
            hi = min(last * block_size, flat.size)
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
            _emit_worker_spans(root, [r[5:9] for r in results], bytes_in)

        payload = b"".join(
            bytes(arena_shm.buf[arena_offs[i] : arena_offs[i] + results[i][3]])
            for i in range(len(ranges))
        )
    finally:
        _destroy_shm(in_shm)
        _destroy_shm(arena_shm)

    merged = StreamComponents(
        header=StreamHeader(
            traits=traits,
            n=flat.size,
            block_size=block_size,
            err_bound=float(abs_bound),
            n_blocks=layout.n_blocks,
            n_const=sum(r[4] for r in results),
            shape=tuple(int(s) for s in np.shape(data)),
            flags=FLAG_CHECKSUM if checksum else 0,
        ),
        nonconst_mask=np.frombuffer(
            b"".join(r[0] for r in results), dtype=bool
        ).copy(),
        const_mu=np.frombuffer(
            b"".join(r[1] for r in results), dtype=traits.dtype
        ).copy(),
        zsizes=np.frombuffer(
            b"".join(r[2] for r in results), dtype=np.uint16
        ).copy(),
        payload=payload,
    )
    merged.bound = resolution
    return merged


def decompress_components_procpool(
    comp: StreamComponents, *, n_procs: int = 4, pool: ProcPool | None = None
) -> np.ndarray:
    """Multi-process decode of parsed *comp* using the zsize prefix sum.

    The payload section is published as one shared segment; every worker
    seeks to its own byte range with the Section 6.1 prefix-sum offsets
    and writes its reconstructed values into a shared output array, so
    neither direction pickles array payloads.
    """
    from .omp import resolve_worker_count

    n_procs = resolve_worker_count(n_procs, backend="process")
    header = comp.header
    if header.n_blocks == 0 or n_procs <= 1:
        return decompress_blocks(comp)

    layout = BlockLayout(header.n, header.block_size)
    offsets = payload_offsets(comp.zsizes)
    nonconst_cum = np.concatenate(([0], np.cumsum(comp.nonconst_mask)))
    const_cum = np.concatenate(([0], np.cumsum(~comp.nonconst_mask)))
    ranges = chunk_block_ranges(layout.n_blocks, n_procs)
    if pool is None:
        pool = default_pool(len(ranges))
    dtype = header.traits.dtype

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
        tasks, bytes_in = [], []
        for first, last in ranges:
            lo = first * header.block_size
            hi = min(last * header.block_size, header.n)
            nc_lo, nc_hi = int(nonconst_cum[first]), int(nonconst_cum[last])
            c_lo, c_hi = int(const_cum[first]), int(const_cum[last])
            bytes_in.append(int(offsets[nc_hi] - offsets[nc_lo]))
            tasks.append((
                payload_shm.name, out_shm.name, dtype.str, header.n,
                header.block_size, header.err_bound, lo, hi, last - first,
                comp.nonconst_mask[first:last].tobytes(),
                comp.const_mu[c_lo:c_hi].tobytes(),
                np.ascontiguousarray(
                    comp.zsizes[nc_lo:nc_hi], dtype=np.uint16
                ).tobytes(),
                int(offsets[nc_lo]), int(offsets[nc_hi]),
            ))

        with observe.span(
            "szx.procpool.decompress", bytes_in=len(comp.payload),
            workers=len(ranges),
        ) as root:
            ctx = _task_trace_ctx(root)
            results = pool.run(_decompress_task, [t + (ctx,) for t in tasks])
            _emit_worker_spans(root, results, bytes_in)

        out = np.ndarray((header.n,), dtype=dtype, buffer=out_shm.buf).copy()
    finally:
        _destroy_shm(payload_shm)
        _destroy_shm(out_shm)

    if header.shape:
        return out.reshape(header.shape)
    return out
