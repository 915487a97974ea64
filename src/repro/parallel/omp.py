"""Thread-parallel SZx compression/decompression.

Mirrors the paper's OpenMP design: Loop 1 (over blocks) is split across
workers.  numpy kernels release the GIL, so a thread pool yields real
speedup on multicore machines.  Cutting and merging the stream is
:func:`repro.core.stream.split_blocks` / :func:`~repro.core.stream.join_blocks`:
the compressor's joined output is byte-identical to the serial engine
(tested), and the decompressor hands each worker its blocks' sections
via the ``zsize_array`` prefix sum — the exact mechanism of Section 6.1.
The callers resolve the error bound; the backends take it absolute.

Every worker routes through the fused-kernel single entry
(:func:`repro.core.kernels.compress_blocks` /
:func:`~repro.core.kernels.decompress_blocks`), each on its own
thread-local :class:`~repro.core.kernels.KernelArena`, so the pool
inherits single-stream kernel speedups for free.  The pool logic lives
in :func:`compress_components_parallel` /
:func:`decompress_components_parallel`, with one tracing span per worker
(``worker[i]``) so ``szx compress --trace`` shows the per-thread split.
:class:`repro.codec.SZxCodec` reaches this pool for ``workers > 1`` on
the ``"thread"`` backend.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import observe
from ..core.constants import DEFAULT_BLOCK_SIZE, FLAG_CHECKSUM
from ..core.kernels import compress_blocks, decompress_blocks
from ..core.stream import StreamComponents, join_blocks
from .backends import MAX_PROCESS_WORKERS, resolve_backend
from .chunking import split_input, split_stream


def resolve_worker_count(workers, backend=None) -> int:
    """Validate *workers* (and optionally *backend*); return the count.

    Oversubscribing a GIL-releasing numpy pool past the core count only
    adds scheduling noise, so thread requests are capped at
    ``os.cpu_count()``; zero/negative/non-integer requests are
    programming errors and raise ``ValueError`` instead of silently
    falling back to one worker.

    When *backend* is given it is validated too: unknown names raise the
    typed :class:`~repro.parallel.backends.UnknownBackendError`, and
    ``"process"`` degrades to ``"thread"`` with a ``RuntimeWarning``
    where ``multiprocessing.shared_memory`` is unusable.  Process worker
    counts are *not* clamped to the core count (forked workers schedule
    fairly when oversubscribed, and single-core CI must still exercise
    the multi-process merge); they are capped at
    :data:`~repro.parallel.backends.MAX_PROCESS_WORKERS`.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend is not None:
        backend = resolve_backend(backend)
        if backend == "process":
            return min(workers, MAX_PROCESS_WORKERS)
    return min(workers, os.cpu_count() or 1)


def compress_components_parallel(
    data: np.ndarray,
    abs_bound: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int,
    checksum: bool = False,
) -> StreamComponents:
    """Parallel SZx compression of checked *data* under *abs_bound*.

    Each worker compresses one block run; :func:`join_blocks` merges the
    runs into components byte-identical to the serial engine.
    """
    workers = resolve_worker_count(workers)
    flat, block_size, ranges = split_input(data, block_size, workers)
    if ranges is None:
        return compress_blocks(data, abs_bound, block_size, checksum=checksum)

    with observe.span(
        "szx.omp.compress", bytes_in=int(flat.nbytes), workers=len(ranges)
    ) as root:
        def work(item):
            i, (lo, hi) = item
            with observe.span(
                f"worker[{i}]", bytes_in=(hi - lo) * flat.itemsize,
                parent=root if isinstance(root, observe.Span) else None,
            ) as sp:
                part = compress_blocks(flat[lo:hi], abs_bound, block_size)
                sp.set(bytes_out=len(part.payload))
            return part

        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(work, enumerate(ranges)))

    return join_blocks(
        parts, shape=np.shape(data), flags=FLAG_CHECKSUM if checksum else 0
    )


def decompress_components_parallel(
    comp: StreamComponents,
    *,
    workers: int,
) -> np.ndarray:
    """Parallel decode of parsed *comp*, one block run per worker."""
    workers = resolve_worker_count(workers)
    runs = split_stream(comp, workers)
    if runs is None:
        return decompress_blocks(comp)

    header = comp.header
    out = np.empty(header.n, dtype=header.traits.dtype)
    with observe.span(
        "szx.omp.decompress", bytes_in=len(comp.payload), workers=len(runs)
    ) as root:
        def work(item):
            i, (lo, part) = item
            with observe.span(
                f"worker[{i}]", bytes_in=len(part.payload),
                parent=root if isinstance(root, observe.Span) else None,
            ) as sp:
                out[lo : lo + part.header.n] = decompress_blocks(part)
                sp.set(bytes_out=part.header.n * header.traits.itemsize)

        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            list(pool.map(work, enumerate(runs)))

    if header.shape:
        return out.reshape(header.shape)
    return out
