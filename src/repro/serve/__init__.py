"""repro.serve — concurrent compression service.

The serving layer on top of the unified codec: a
:class:`CompressionService` owning a bounded submission queue and a
worker pool, with micro-batching of small jobs
(:mod:`repro.serve.batching`), explicit backpressure and per-job
deadlines (:mod:`repro.serve.queueing`, :mod:`repro.serve.errors`),
bounded retries for transient faults, and an ordered pipelined-map
primitive for streaming file work (:mod:`repro.serve.streaming`).

Quick use::

    from repro import CodecConfig
    from repro.serve import CompressionService

    with CompressionService(workers=4) as svc:
        fut = svc.submit_compress(field, CodecConfig(err_bound=1e-3))
        stream = fut.result()          # byte-identical to SZxCodec

Drive a synthetic load from the CLI with ``szx serve-bench``.
"""

from .batching import coalesce, compress_batch
from .errors import (
    JobTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransientError,
)
from .queueing import BoundedQueue
from .service import CompressionService
from .streaming import map_pipelined

__all__ = [
    "CompressionService",
    "BoundedQueue",
    "coalesce",
    "compress_batch",
    "map_pipelined",
    "ServeError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "JobTimeoutError",
    "TransientError",
]
