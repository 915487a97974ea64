"""Micro-batching: coalesce small compress jobs into one kernel call.

Python-side per-call overhead (header assembly, section packing)
dominates for small arrays, so when jobs queue up behind busy workers
the service groups the compatible ones (:func:`coalesce`) and
compresses their *concatenation* with a single
:func:`~repro.core.kernels.compress_blocks` call.  Because SZx blocks
are encoded independently under a fixed absolute bound,
:func:`repro.core.stream.split_blocks` cuts the batch's components at
the job edges into per-job streams that are **byte-identical** to
compressing each job alone — the same property the parallel backends'
:func:`~repro.core.stream.join_blocks` merge exploits in the other
direction.

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

DEFAULT_BATCH_MAX_JOBS = 64
#: Values cap per batch: bounds one kernel call's concatenated input.
MAX_BATCH_VALUES = 1 << 20


def batch_key(job):
    """Grouping key: jobs sharing it may be compressed in one call."""
    return (float(job.abs_bound), int(job.block_size), str(job.array.dtype))


def is_batchable(job) -> bool:
    """Only non-empty compress jobs coalesce."""
    return job.kind == "compress" and job.array.size > 0


def compress_batch(jobs) -> list[bytes]:
    """One kernel call for all *jobs*; per-job byte-identical streams.

    Every job except possibly the last must be block-aligned (enforced
    by :func:`coalesce`); all must share the same batch key.
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


def coalesce(jobs, *, max_jobs: int,
             max_values: int = MAX_BATCH_VALUES) -> list[list]:
    """Cut a drained backlog into dispatch units, one per worker call.

    Batchable jobs are filed under their :func:`batch_key`; a group is
    sealed once it holds *max_jobs* jobs or *max_values* values, or when
    an unaligned job joins it (that job must be its last member), and
    the next compatible job opens a fresh group.  Every other job is a
    unit of its own.  Units come back in the FIFO order of their first
    member, so decompress and non-batchable jobs keep their queue order.
    """
    if max_jobs < 1 or max_values < 1:
        raise ValueError("batch size caps must be >= 1")
    units: list[list] = []
    open_groups: dict = {}
    values: dict = {}
    for job in jobs:
        if not is_batchable(job):
            units.append([job])
            continue
        key = batch_key(job)
        group = open_groups.get(key)
        if group is None:
            group = open_groups[key] = []
            units.append(group)
            values[key] = 0
        group.append(job)
        values[key] += int(job.array.size)
        if (
            len(group) >= max_jobs
            or values[key] >= max_values
            or job.array.size % job.block_size != 0
        ):
            del open_groups[key]
    return units
