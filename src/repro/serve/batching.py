"""Micro-batching: coalesce small compress jobs into one kernel call.

Python-side per-call overhead (bound resolution, header assembly,
section packing) dominates for small arrays, so the service groups
compatible jobs that arrive within a short window and compresses their
*concatenation* with a single :func:`~repro.core.kernels.compress_blocks`
call.  Because SZx blocks are encoded independently under a fixed
absolute bound, :func:`repro.core.stream.split_blocks` cuts the batch's
components at the job edges into per-job streams that are
**byte-identical** to compressing each job alone — the same property
the parallel backends' :func:`~repro.core.stream.join_blocks` merge
exploits in the other direction.

Compatibility (the *batch key*): same resolved absolute bound, block
size, and dtype.  REL bounds are resolved per job at submit time, so
two REL jobs batch only when their resolved absolute bounds coincide.
A job whose length is not a multiple of the block size would fuse its
partial tail block with the next job's first values, so such a job is
admitted only as the *last* member — it seals its batch.  Checksums are
per-job footers over the assembled stream and therefore do not
fragment batches.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate

import numpy as np

from ..core.constants import FLAG_CHECKSUM
from ..core.stream import split_blocks
from ..core.kernels import compress_blocks

#: Coalescing window: how long the first job of a batch may wait for
#: companions before the batch is dispatched anyway.
DEFAULT_BATCH_WINDOW_S = 0.002
DEFAULT_BATCH_MAX_JOBS = 64
DEFAULT_BATCH_MAX_VALUES = 1 << 20


def batch_key(job):
    """Grouping key: jobs sharing it may be compressed in one call."""
    return (float(job.abs_bound), int(job.block_size), str(job.array.dtype))


def is_batchable(job) -> bool:
    """Only non-empty compress jobs coalesce."""
    return job.kind == "compress" and job.array.size > 0


def compress_batch(jobs) -> list[bytes]:
    """One kernel call for all *jobs*; per-job byte-identical streams.

    Every job except possibly the last must be block-aligned (enforced
    by :class:`MicroBatcher`); all must share the same batch key.
    """
    block_size = jobs[0].block_size
    flat = np.concatenate(
        [np.ascontiguousarray(j.array).reshape(-1) for j in jobs]
    )
    comp = compress_blocks(flat, jobs[0].abs_bound, block_size)
    edges = [0, *accumulate(-(-j.array.size // block_size) for j in jobs)]
    streams = []
    for job, part in zip(jobs, split_blocks(comp, edges)):
        part.header = dataclasses.replace(
            part.header,
            shape=job.array.shape,
            flags=FLAG_CHECKSUM if job.checksum else 0,
        )
        streams.append(part.to_bytes())
    return streams


class _Group:
    __slots__ = ("jobs", "values", "opened_at")

    def __init__(self, opened_at: float):
        self.jobs: list = []
        self.values = 0
        self.opened_at = opened_at


class MicroBatcher:
    """Accumulates batchable jobs per key until a window/size trigger.

    Driven by the dispatcher thread, which supplies the clock: ``add``
    returns any batches sealed by the new job (size cap hit, or the job
    is unaligned and must close its batch); ``pop_expired`` returns the
    groups whose window has elapsed; ``next_deadline`` tells the
    dispatcher how long it may sleep waiting for more jobs.
    """

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_BATCH_WINDOW_S,
        max_jobs: int = DEFAULT_BATCH_MAX_JOBS,
        max_values: int = DEFAULT_BATCH_MAX_VALUES,
    ):
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        if max_jobs < 1 or max_values < 1:
            raise ValueError("batch size caps must be >= 1")
        self.window_s = float(window_s)
        self.max_jobs = int(max_jobs)
        self.max_values = int(max_values)
        self._groups: dict = {}

    @property
    def pending(self) -> int:
        return sum(len(g.jobs) for g in self._groups.values())

    def add(self, job, now: float) -> list[list]:
        """File *job* under its key; return batches sealed by it."""
        key = batch_key(job)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(now)
        group.jobs.append(job)
        group.values += int(job.array.size)
        sealed = (
            len(group.jobs) >= self.max_jobs
            or group.values >= self.max_values
            or job.array.size % job.block_size != 0
        )
        if sealed:
            del self._groups[key]
            return [group.jobs]
        return []

    def next_deadline(self) -> float | None:
        """Earliest instant any open group's window expires."""
        if not self._groups:
            return None
        return min(g.opened_at for g in self._groups.values()) + self.window_s

    def pop_expired(self, now: float) -> list[list]:
        """Close and return every group whose window has elapsed."""
        out = []
        for key in [
            k for k, g in self._groups.items()
            if now - g.opened_at >= self.window_s
        ]:
            out.append(self._groups.pop(key).jobs)
        return out

    def pop_all(self) -> list[list]:
        """Close and return every open group (drain/shutdown path)."""
        out = [g.jobs for g in self._groups.values()]
        self._groups.clear()
        return out
