"""Multicore harnesses for SZx (Section 6.1 of the paper).

Blocks are independent, so compression parallelizes by splitting the
input at block boundaries; decompression uses the prefix sum of the
``zsize_array`` to hand each worker the byte range of its blocks.  The
merged parallel stream is byte-identical to the serial one — for both
execution backends:

* ``backend="thread"`` (:mod:`repro.parallel.omp`) — the OpenMP-style
  harness on a persistent thread team whose threads and kernel arenas
  live as long as the process;
* ``backend="process"`` (:mod:`repro.parallel.procpool`) — a
  :class:`ProcessPoolExecutor` + ``multiprocessing.shared_memory``
  harness that passes arrays as zero-copy shared-memory views, the
  "break the GIL" path for interpreter-bound workloads.

:func:`resolve_backend` validates backend names (typed
:class:`UnknownBackendError`) and degrades ``"process"`` to
``"thread"`` with a warning where shared memory is unavailable.
"""

from .backends import (
    BACKENDS,
    MAX_PROCESS_WORKERS,
    UnknownBackendError,
    resolve_backend,
    shared_memory_available,
)
from .chunking import chunk_block_ranges
from .omp import resolve_worker_count
from .procpool import (
    KILL_SITE,
    ProcPool,
    WorkerCrashError,
    default_pool,
    shutdown_default_pools,
)

__all__ = [
    "BACKENDS",
    "MAX_PROCESS_WORKERS",
    "UnknownBackendError",
    "resolve_backend",
    "shared_memory_available",
    "resolve_worker_count",
    "chunk_block_ranges",
    "KILL_SITE",
    "ProcPool",
    "WorkerCrashError",
    "default_pool",
    "shutdown_default_pools",
]
