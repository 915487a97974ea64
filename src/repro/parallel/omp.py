"""Thread-parallel SZx compression/decompression.

Mirrors the paper's OpenMP design: Loop 1 (over blocks) is split across
a thread team.  numpy kernels release the GIL, so threads yield real
speedup on multicore machines.  Cutting and merging the stream is
:func:`repro.core.stream.split_blocks` / :func:`~repro.core.stream.join_blocks`:
the compressor's joined output is byte-identical to the serial engine
(tested), and the decompressor hands each worker its blocks' sections
via the ``zsize_array`` prefix sum — the exact mechanism of Section 6.1.
The callers resolve the error bound; the backends take it absolute.

Like an OpenMP team, the team lives as long as the process: its
threads start lazily, on the first call that needs them, and are never
torn down, so each keeps its thread-local
:class:`~repro.core.kernels.KernelArena` warm from one call to the next.
The calling thread runs a call's first block run itself, on its own
arena; team thread ``k`` always runs block run ``k + 1``, so a repeated
call of one shape grows no arena.  A call waits for every one of its
runs before it returns or re-raises.  Team tasks never submit to the
team, so concurrent callers only queue behind each other.  A forked
child starts with an empty team (the parent's threads do not exist
there).

Every run routes through the fused-kernel single entry
(:func:`repro.core.kernels.compress_blocks` /
:func:`~repro.core.kernels.decompress_blocks`, which decodes straight
into the run's slice of the output), with one tracing span per run
(``worker[i]``) so ``szx compress --trace`` shows the per-thread split.
:class:`repro.codec.SZxCodec` reaches the team for ``workers > 1`` on
the ``"thread"`` backend.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

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


# -- the team: persistent threads -----------------------------------------

_team_lock = threading.Lock()
#: One single-thread executor per team member: member ``k`` runs block
#: run ``k + 1`` of every call.  Grows to ``os.cpu_count() - 1`` members
#: at most (the caller runs run 0 and thread requests are capped at the
#: core count); an executor starts its thread on its first task.
_team: list = []


def _submit(k: int, fn, arg) -> Future:
    """Queue ``fn(arg)`` on team member *k*, adding members up to *k*."""
    with _team_lock:
        while len(_team) <= k:
            _team.append(ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"szx-team-{len(_team)}"
            ))
        return _team[k].submit(fn, arg)


def _reset_team_in_child() -> None:
    """A forked child has none of its parent's team threads: start empty.

    The lock is replaced too, since a parent thread may have held it.
    """
    global _team_lock
    _team_lock = threading.Lock()
    with _team_lock:
        _team.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_team_in_child)


def _run_team(fn, items: list) -> list:
    """``[fn(item) for item in items]``, run 0 here and the rest on the team.

    Every run has finished before this returns or re-raises, so no run
    outlives the call (decode runs write into the caller's output).
    """
    futures = []
    try:
        for k, item in enumerate(items[1:]):
            futures.append(_submit(k, fn, item))
        first = fn(items[0])
    finally:
        wait(futures)
    return [first, *(f.result() for f in futures)]


def compress_components_parallel(
    data: np.ndarray,
    abs_bound: float,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    workers: int,
    checksum: bool = False,
) -> StreamComponents:
    """Parallel SZx compression of checked *data* under *abs_bound*.

    Each block run is compressed by one team member; :func:`join_blocks`
    merges the runs into components byte-identical to the serial engine.
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

        parts = _run_team(work, list(enumerate(ranges)))

    return join_blocks(
        parts, shape=np.shape(data), flags=FLAG_CHECKSUM if checksum else 0
    )


def decompress_components_parallel(
    comp: StreamComponents,
    *,
    workers: int,
) -> np.ndarray:
    """Parallel decode of parsed *comp*, one block run per team member."""
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
                decompress_blocks(part, out=out[lo : lo + part.header.n])
                sp.set(bytes_out=part.header.n * header.traits.itemsize)

        _run_team(work, list(enumerate(runs)))

    if header.shape:
        return out.reshape(header.shape)
    return out
