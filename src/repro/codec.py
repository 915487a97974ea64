"""Unified codec configuration API: ``CodecConfig`` + ``SZxCodec``.

All tuning state that used to travel as ad-hoc kwargs (`mode`,
`block_size`, `checksum`, worker count, backend) lives in one frozen
:class:`CodecConfig`; :class:`SZxCodec` binds a config to the
``compress(arr) -> bytes`` / ``decompress(stream) -> ndarray`` pair.
``repro.core.api.compress``/``decompress`` are thin wrappers over this
class, so every entry point produces byte-identical streams by
construction.

:class:`Codec` is the minimal protocol the baselines also implement
(see :mod:`repro.baselines`), letting benchmarks iterate compressors
uniformly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from . import observe
from .core.api import _MODES, _check_input, resolve_error_bound_info
from .core.constants import DEFAULT_BLOCK_SIZE
from .core.kernels import compress_blocks, decompress_blocks
from .core.stream import parse_stream
from .parallel.backends import BACKENDS, UnknownBackendError, resolve_backend


@runtime_checkable
class Codec(Protocol):
    """Minimal interface every compressor in this repo exposes."""

    name: str

    def compress(self, data) -> bytes: ...

    def decompress(self, stream) -> np.ndarray: ...


@dataclass(frozen=True)
class CodecConfig:
    """Immutable SZx tuning state.

    ``err_bound`` may stay ``None`` for decompress-only codecs; every
    other field has the library-wide default.  ``workers > 1`` routes
    both directions through the worker pool selected by ``backend`` —
    ``"thread"`` (the OpenMP-style pool, :mod:`repro.parallel.omp`) or
    ``"process"`` (the shared-memory multi-process pool,
    :mod:`repro.parallel.procpool`) — still byte-identical to serial.
    Unknown backends raise the typed
    :class:`~repro.parallel.backends.UnknownBackendError`; a
    ``"process"`` config degrades to the thread pool (with a
    ``RuntimeWarning``) at run time where shared memory is unavailable.
    """

    err_bound: float | None = None
    mode: str = "abs"
    block_size: int = DEFAULT_BLOCK_SIZE
    checksum: bool = False
    workers: int = 1
    backend: str = "thread"

    def __post_init__(self):
        if self.err_bound is not None and (
            not (float(self.err_bound) > 0.0) or not math.isfinite(self.err_bound)
        ):
            raise ValueError(
                f"err_bound must be positive and finite, got {self.err_bound}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not isinstance(self.block_size, int) or isinstance(self.block_size, bool):
            raise ValueError(f"block_size must be an int, got {self.block_size!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 1:
            raise ValueError(
                f"workers must be a positive int, got {self.workers!r}"
            )
        if self.backend not in BACKENDS:
            raise UnknownBackendError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )

    def replace(self, **changes) -> "CodecConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)


class SZxCodec:
    """The SZx compressor bound to one :class:`CodecConfig`."""

    name = "szx"

    def __init__(self, config: CodecConfig | None = None):
        if config is None:
            config = CodecConfig()
        if not isinstance(config, CodecConfig):
            raise TypeError(f"expected CodecConfig, got {type(config).__name__}")
        self.config = config

    def __repr__(self):
        return f"SZxCodec({self.config!r})"

    def compress(self, data) -> bytes:
        """Compress *data* into an SZx byte stream under ``self.config``."""
        cfg = self.config
        if cfg.err_bound is None:
            raise ValueError(
                "this SZxCodec has no err_bound configured; "
                "use CodecConfig(err_bound=...) to compress"
            )
        arr = np.asarray(data)
        with observe.span(
            "szx.compress", bytes_in=int(arr.nbytes),
            workers=cfg.workers, backend=cfg.backend,
        ) as sp:
            arr = _check_input(arr)
            with observe.span("resolve_bound"):
                abs_bound = resolve_error_bound_info(
                    arr, cfg.err_bound, cfg.mode
                ).abs_bound
            kw = dict(block_size=cfg.block_size, checksum=cfg.checksum)
            if cfg.workers > 1 and resolve_backend(cfg.backend) == "process":
                from .parallel.procpool import compress_components_procpool

                components = compress_components_procpool(
                    arr, abs_bound, n_procs=cfg.workers, **kw
                )
            elif cfg.workers > 1:
                from .parallel.omp import compress_components_parallel

                components = compress_components_parallel(
                    arr, abs_bound, workers=cfg.workers, **kw
                )
            else:
                components = compress_blocks(arr, abs_bound, **kw)
            out = components.to_bytes()
            sp.set(bytes_out=len(out))
        return out

    def decompress(self, stream) -> np.ndarray:
        """Reconstruct the array from an SZx byte *stream*."""
        cfg = self.config
        stream = bytes(stream)
        with observe.span(
            "szx.decompress", bytes_in=len(stream),
            workers=cfg.workers, backend=cfg.backend,
        ) as sp:
            if cfg.workers > 1 and resolve_backend(cfg.backend) == "process":
                from .parallel.procpool import decompress_components_procpool

                out = decompress_components_procpool(
                    parse_stream(stream), n_procs=cfg.workers
                )
            elif cfg.workers > 1:
                from .parallel.omp import decompress_components_parallel

                out = decompress_components_parallel(
                    parse_stream(stream), workers=cfg.workers
                )
            else:
                out = decompress_blocks(parse_stream(stream))
            sp.set(bytes_out=int(out.nbytes))
        return out
