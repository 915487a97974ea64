"""Block-aligned work partitioning shared by the parallel backends.

Both backends (:mod:`repro.parallel.omp`, :mod:`repro.parallel.procpool`)
open with the same prologue: cut the blocks into near-equal contiguous
runs, one per worker, or run single-stream when there is nothing to
split.  Cutting and gluing the stream sections themselves is
:func:`repro.core.stream.split_blocks` / :func:`~repro.core.stream.join_blocks`.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import BlockLayout, validate_block_size
from ..core.stream import StreamComponents, split_blocks


def chunk_block_ranges(n_blocks: int, n_chunks: int):
    """Split ``range(n_blocks)`` into at most *n_chunks* contiguous runs.

    Returns a list of ``(first_block, last_block_exclusive)`` tuples with
    near-equal sizes; never returns empty runs.
    """
    if n_chunks < 1:
        raise ValueError("need at least one chunk")
    n_chunks = min(n_chunks, n_blocks) or 1
    base = n_blocks // n_chunks
    extra = n_blocks % n_chunks
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        ranges.append((start, start + size))
        start += size
    return ranges


def _worker_edges(n_blocks: int, workers: int) -> list[int] | None:
    """Block edges of the per-worker runs; ``None`` means single-stream."""
    if n_blocks == 0 or workers <= 1:
        return None
    return [first for first, _ in chunk_block_ranges(n_blocks, workers)] + [n_blocks]


def split_input(data: np.ndarray, block_size: int, workers: int):
    """Prologue of the parallel compressors.

    Validates *block_size*, flattens *data* (a checked array) C-order
    and cuts its blocks into at most *workers* runs.  Returns
    ``(flat, block_size, ranges)`` where *ranges* lists each run's
    ``(lo, hi)`` value span, or is ``None`` when the call should run
    single-stream (no blocks, or one worker).
    """
    block_size = validate_block_size(block_size)
    flat = np.ascontiguousarray(data).reshape(-1)
    edges = _worker_edges(BlockLayout(flat.size, block_size).n_blocks, workers)
    if edges is None:
        return flat, block_size, None
    spans = [min(e * block_size, flat.size) for e in edges]
    return flat, block_size, list(zip(spans, spans[1:]))


def split_stream(
    comp: StreamComponents, workers: int
) -> list[tuple[int, StreamComponents]] | None:
    """Prologue of the parallel decompressors.

    Cuts *comp* into at most *workers* block runs and returns
    ``(lo, part)`` pairs, *lo* being the run's first value index, or
    ``None`` when the call should run single-stream.
    """
    header = comp.header
    edges = _worker_edges(header.n_blocks, workers)
    if edges is None:
        return None
    parts = split_blocks(comp, edges)
    return [(e * header.block_size, p) for e, p in zip(edges, parts)]
