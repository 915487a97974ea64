"""Micro-batching: coalesce small compress jobs into one kernel call.

Python-side per-call overhead (bound resolution, header assembly,
section packing) dominates for small arrays, so the service groups
compatible jobs that arrive within a short window and compresses their
*concatenation* with a single :func:`~repro.core.kernels.compress_blocks`
call.  Because SZx blocks are encoded independently under a fixed
absolute bound, the concatenated components split back into per-job
streams that are **byte-identical** to compressing each job alone — the
same property the OpenMP merge in :mod:`repro.parallel.omp` exploits in
the other direction.

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

import numpy as np

from ..core.constants import FLAG_CHECKSUM
from ..core.header import StreamHeader
from ..core.stream import StreamComponents, payload_offsets
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
    if len(jobs) == 1:
        job = jobs[0]
        comp = compress_blocks(job.array, job.abs_bound, job.block_size)
        return [_reheaded(comp, job, 0, comp.header.n_blocks,
                          nc_lo=0, nc_hi=int(comp.zsizes.size),
                          c_lo=0, c_hi=int(comp.const_mu.size),
                          offsets=payload_offsets(comp.zsizes))]

    block_size = jobs[0].block_size
    flat = np.concatenate(
        [np.ascontiguousarray(j.array).reshape(-1) for j in jobs]
    )
    comp = compress_blocks(flat, jobs[0].abs_bound, block_size)

    nonconst_cum = np.concatenate(([0], np.cumsum(comp.nonconst_mask)))
    const_cum = np.concatenate(([0], np.cumsum(~comp.nonconst_mask)))
    offsets = payload_offsets(comp.zsizes)

    streams = []
    first = 0
    for job in jobs:
        n_blocks = (job.array.size + block_size - 1) // block_size
        last = first + n_blocks
        streams.append(
            _reheaded(
                comp, job, first, last,
                nc_lo=int(nonconst_cum[first]), nc_hi=int(nonconst_cum[last]),
                c_lo=int(const_cum[first]), c_hi=int(const_cum[last]),
                offsets=offsets,
            )
        )
        first = last
    return streams


def _reheaded(comp, job, first, last, *, nc_lo, nc_hi, c_lo, c_hi, offsets) -> bytes:
    """Assemble the stream for *job*'s block range of batch *comp*."""
    sub = StreamComponents(
        header=StreamHeader(
            traits=comp.header.traits,
            n=int(job.array.size),
            block_size=comp.header.block_size,
            err_bound=comp.header.err_bound,
            n_blocks=last - first,
            n_const=(last - first) - (nc_hi - nc_lo),
            shape=tuple(int(s) for s in job.array.shape),
            flags=FLAG_CHECKSUM if job.checksum else 0,
        ),
        nonconst_mask=comp.nonconst_mask[first:last],
        const_mu=comp.const_mu[c_lo:c_hi],
        zsizes=comp.zsizes[nc_lo:nc_hi],
        payload=comp.payload[int(offsets[nc_lo]) : int(offsets[nc_hi])],
    )
    return sub.to_bytes()


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
