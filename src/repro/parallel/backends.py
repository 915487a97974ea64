"""Execution-backend registry for the parallel codec paths.

Two backends execute the paper's Section 6.1 block decomposition:

* ``"thread"`` — the OpenMP-style harness on a persistent thread team
  (:mod:`repro.parallel.omp`).  numpy kernels release the GIL, but the
  Python-level glue between them still serializes, which is why
  threads do not scale on interpreter-bound workloads.
* ``"process"`` — the :class:`ProcessPoolExecutor` +
  ``multiprocessing.shared_memory`` harness
  (:mod:`repro.parallel.procpool`): one interpreter per worker, arrays
  passed as shared-memory views, so block compression scales with
  cores instead of with GIL release windows.

:func:`resolve_backend` is the single validation point: unknown names
raise the typed :class:`UnknownBackendError`, and ``"process"`` falls
back to ``"thread"`` with a :class:`RuntimeWarning` on platforms where
``multiprocessing.shared_memory`` is unusable (restricted sandboxes
with no ``/dev/shm``, missing ``_posixshmem``, ...).
"""

from __future__ import annotations

import warnings

#: Recognized execution backends, in documentation order.
BACKENDS = ("thread", "process")

#: Upper bound on process workers.  Unlike threads, process workers are
#: *not* clamped to ``os.cpu_count()``: forked workers schedule fairly
#: when oversubscribed, and correctness tests must be able to exercise
#: the multi-process merge on single-core CI runners.  The cap only
#: guards against pathological requests.
MAX_PROCESS_WORKERS = 64

_shm_probe_result: bool | None = None
_shm_probe_error: str | None = None


class UnknownBackendError(ValueError):
    """An execution backend name outside :data:`BACKENDS` was requested."""


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` actually works here.

    Importing the module is not enough — restricted sandboxes can expose
    the import but fail segment creation — so the first call creates and
    unlinks a 1-byte probe segment; the result is cached for the life of
    the process.
    """
    global _shm_probe_result, _shm_probe_error
    if _shm_probe_result is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _shm_probe_result = True
        except Exception as exc:  # any failure means "unavailable"
            _shm_probe_result = False
            _shm_probe_error = f"{type(exc).__name__}: {exc}"
    return _shm_probe_result


def resolve_backend(backend, *, warn: bool = True) -> str:
    """Validate *backend* and return the backend that will actually run.

    Raises :class:`UnknownBackendError` for anything outside
    :data:`BACKENDS` (including non-strings).  A ``"process"`` request
    degrades to ``"thread"`` — with a :class:`RuntimeWarning` unless
    ``warn=False`` — when shared memory is unavailable, so code written
    for the process backend still runs (slower) in restricted sandboxes.
    """
    if backend not in BACKENDS:
        raise UnknownBackendError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "process" and not shared_memory_available():
        if warn:
            detail = f" ({_shm_probe_error})" if _shm_probe_error else ""
            warnings.warn(
                "multiprocessing.shared_memory is unavailable on this "
                f"platform{detail}; falling back to backend='thread'",
                RuntimeWarning,
                stacklevel=2,
            )
        return "thread"
    return backend
