"""Thread-parallel SZx compression/decompression.

Mirrors the paper's OpenMP design: Loop 1 (over blocks) is split across
workers.  numpy kernels release the GIL, so a thread pool yields real
speedup on multicore machines.  The compressor's merged output is
byte-identical to the serial engine (tested), and the decompressor seeks
each worker to its blocks with the ``zsize_array`` prefix sum — the exact
mechanism of Section 6.1.

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
from ..core.api import resolve_error_bound_info, _check_input
from ..core.blocks import BlockLayout, validate_block_size
from ..core.constants import DEFAULT_BLOCK_SIZE, FLAG_CHECKSUM, traits_for
from ..core.header import StreamHeader
from ..core.kernels import compress_blocks, decompress_blocks
from ..core.stream import StreamComponents, payload_offsets
from .backends import MAX_PROCESS_WORKERS, resolve_backend
from .chunking import chunk_block_ranges


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
    err_bound: float,
    *,
    mode: str = "abs",
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int,
    checksum: bool = False,
) -> StreamComponents:
    """Parallel SZx compression to merged (byte-identical) components."""
    workers = resolve_worker_count(workers)
    arr = _check_input(data)
    block_size = validate_block_size(block_size)
    resolution = resolve_error_bound_info(arr, err_bound, mode)
    abs_bound = resolution.abs_bound
    flat = np.ascontiguousarray(arr).reshape(-1)
    layout = BlockLayout(flat.size, block_size)

    if layout.n_blocks == 0 or workers <= 1:
        comp = compress_blocks(arr, abs_bound, block_size, checksum=checksum)
        comp.bound = resolution
        return comp

    ranges = chunk_block_ranges(layout.n_blocks, workers)

    with observe.span(
        "szx.omp.compress", bytes_in=int(flat.nbytes), workers=len(ranges)
    ) as root:
        def work(item):
            i, (first, last) = item
            lo = first * block_size
            hi = min(last * block_size, flat.size)
            with observe.span(
                f"worker[{i}]", bytes_in=(hi - lo) * flat.itemsize,
                parent=root if isinstance(root, observe.Span) else None,
            ) as sp:
                part = compress_blocks(flat[lo:hi], abs_bound, block_size)
                sp.set(bytes_out=len(part.payload))
            return part

        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(work, enumerate(ranges)))

    merged = StreamComponents(
        header=StreamHeader(
            traits=traits_for(arr.dtype),
            n=flat.size,
            block_size=block_size,
            err_bound=float(abs_bound),
            n_blocks=layout.n_blocks,
            n_const=sum(p.header.n_const for p in parts),
            shape=tuple(int(s) for s in np.shape(data)),
            flags=FLAG_CHECKSUM if checksum else 0,
        ),
        nonconst_mask=np.concatenate([p.nonconst_mask for p in parts]),
        const_mu=np.concatenate([p.const_mu for p in parts]),
        zsizes=np.concatenate([p.zsizes for p in parts]),
        payload=b"".join(p.payload for p in parts),
    )
    merged.bound = resolution
    return merged


def decompress_components_parallel(
    comp: StreamComponents,
    *,
    workers: int,
) -> np.ndarray:
    """Parallel decode of parsed *comp* using the zsize prefix sum."""
    workers = resolve_worker_count(workers)
    header = comp.header
    if header.n_blocks == 0 or workers <= 1:
        return decompress_blocks(comp)

    layout = BlockLayout(header.n, header.block_size)
    offsets = payload_offsets(comp.zsizes)
    nonconst_cum = np.concatenate(([0], np.cumsum(comp.nonconst_mask)))
    const_cum = np.concatenate(([0], np.cumsum(~comp.nonconst_mask)))
    ranges = chunk_block_ranges(layout.n_blocks, workers)
    out = np.empty(header.n, dtype=header.traits.dtype)

    with observe.span(
        "szx.omp.decompress", bytes_in=len(comp.payload), workers=len(ranges)
    ) as root:
        def work(item):
            i, (first, last) = item
            lo = first * header.block_size
            hi = min(last * header.block_size, header.n)
            nc_lo, nc_hi = int(nonconst_cum[first]), int(nonconst_cum[last])
            c_lo, c_hi = int(const_cum[first]), int(const_cum[last])
            sub = StreamComponents(
                header=StreamHeader(
                    traits=header.traits,
                    n=hi - lo,
                    block_size=header.block_size,
                    err_bound=header.err_bound,
                    n_blocks=last - first,
                    n_const=c_hi - c_lo,
                    shape=(),
                ),
                nonconst_mask=comp.nonconst_mask[first:last],
                const_mu=comp.const_mu[c_lo:c_hi],
                zsizes=comp.zsizes[nc_lo:nc_hi],
                payload=comp.payload[int(offsets[nc_lo]) : int(offsets[nc_hi])],
            )
            with observe.span(
                f"worker[{i}]", bytes_in=len(sub.payload),
                parent=root if isinstance(root, observe.Span) else None,
            ) as sp:
                out[lo:hi] = decompress_blocks(sub)
                sp.set(bytes_out=(hi - lo) * header.traits.itemsize)

        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            list(pool.map(work, enumerate(ranges)))

    if header.shape:
        return out.reshape(header.shape)
    return out
