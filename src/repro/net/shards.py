"""Shard layer: N independent CompressionService instances + a hash ring.

Each shard owns its own bounded queue, worker pool, and (for the
process backend) its own forked worker fleet — one slow or crashed
shard therefore cannot head-of-line-block the others.  Requests are
routed by the content digest of their chunk through a
:class:`~repro.net.hashring.HashRing`, so identical chunks always hit
the same shard and resizing the fleet only remaps ``1/N`` of keys.

The shard set is the server's drain boundary: ``close(drain=True)``
drains every shard's accepted work before the process exits.
"""

from __future__ import annotations

from .. import observe
from ..codec import CodecConfig
from ..serve import CompressionService
from .hashring import HashRing


class ShardSet:
    """Consistent-hash router over ``n_shards`` compression services."""

    def __init__(  # analyze: blocking — forks a worker-pool fleet
        self,
        n_shards: int = 1,
        *,
        workers_per_shard: int = 2,
        backend: str = "thread",
        queue_capacity: int = 128,
        batching: bool = True,
        service_kwargs: dict | None = None,
    ):
        if not isinstance(n_shards, int) or isinstance(n_shards, bool) \
                or n_shards < 1:
            raise ValueError(f"n_shards must be a positive int, got {n_shards!r}")
        kwargs = dict(service_kwargs or {})
        kwargs.setdefault("workers", workers_per_shard)
        kwargs.setdefault("backend", backend)
        kwargs.setdefault("queue_capacity", queue_capacity)
        kwargs.setdefault("batching", batching)
        self._names = [f"shard-{i}" for i in range(n_shards)]
        self._shards = {
            name: CompressionService(**kwargs) for name in self._names
        }
        self._ring = HashRing(self._names)
        self.backend = next(iter(self._shards.values())).backend
        self.workers_per_shard = next(iter(self._shards.values())).workers

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def total_workers(self) -> int:
        return sum(s.workers for s in self._shards.values())

    def shard_for(self, digest: str) -> str:
        """Name of the shard owning the chunk with this content digest."""
        return self._ring.node_for(digest)

    def service(self, name: str) -> CompressionService:
        return self._shards[name]

    def submit_compress(self, digest: str, arr, config: CodecConfig,
                        *, timeline=None):
        """Route a compress job; returns ``(shard_name, Future[bytes])``."""
        name = self.shard_for(digest)
        if observe.enabled():
            observe.counter(f"net.shard.jobs.{name}").inc()
        return name, self._shards[name].submit_compress(
            arr, config, timeline=timeline
        )

    def submit_decompress(self, digest: str, stream, *, timeline=None):
        """Route a decompress job; returns ``(shard_name, Future[ndarray])``."""
        name = self.shard_for(digest)
        if observe.enabled():
            observe.counter(f"net.shard.jobs.{name}").inc()
        return name, self._shards[name].submit_decompress(
            stream, timeline=timeline
        )

    def stats(self) -> dict:
        """Per-shard service counters plus fleet totals."""
        per_shard = {name: svc.stats() for name, svc in self._shards.items()}
        totals: dict[str, int] = {}
        for st in per_shard.values():
            for key, value in st.items():
                if isinstance(value, int):
                    totals[key] = totals.get(key, 0) + value
        return {
            "shards": per_shard,
            "totals": totals,
            "n_shards": len(self._shards),
            "backend": self.backend,
        }

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Close every shard (drain semantics per shard)."""
        for svc in self._shards.values():
            svc.close(drain=drain, timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
