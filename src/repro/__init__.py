"""repro — full reproduction of *Ultrafast Error-Bounded Lossy
Compression for Scientific Datasets* (SZx, HPDC '22).

Public API surface
------------------

The names exported here (see ``__all__``) are the supported surface;
everything else is internal and may change between versions.

* :class:`repro.SZxCodec` + :class:`repro.CodecConfig` — the unified
  codec API; all tuning state (bound, mode, block size, checksum,
  ``workers``, ``backend``) lives in one frozen config;
* :func:`repro.compress` / :func:`repro.decompress` — functional
  wrappers over the codec, byte-identical by construction;
* :func:`repro.compress_blocks` / :func:`repro.decompress_blocks` —
  the fused-kernel single entry (:mod:`repro.core.kernels`) the serial
  path and both pool backends route through; :class:`repro.KernelArena`
  is its reusable scratch allocator;
* :class:`repro.StreamFormatError` — root of the typed stream-format
  error hierarchy raised on malformed input;
* :mod:`repro.observe` — tracing spans, metrics registry, perf ledger;
* :class:`repro.CompressionService` (lazy, from :mod:`repro.serve`) —
  the concurrent in-process front end;
* :mod:`repro.baselines`, :mod:`repro.lossless` — SZ/ZFP/lossless
  comparators behind the same :class:`repro.Codec` protocol;
* :mod:`repro.parallel` — thread/process execution backends;
* :mod:`repro.datasets`, :mod:`repro.metrics`, :mod:`repro.iosim`,
  :mod:`repro.gpusim` — datasets, quality metrics, and simulators.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (
    DEFAULT_BLOCK_SIZE,
    KernelArena,
    StreamFormatError,
    compress,
    compress_blocks,
    compress_components,
    compression_ratio,
    decompress,
    decompress_blocks,
    resolve_error_bound,
)
from .codec import Codec, CodecConfig, SZxCodec
from . import observe

__version__ = "2.0.0"

__all__ = [
    # codec surface
    "Codec",
    "CodecConfig",
    "SZxCodec",
    "compress",
    "decompress",
    "compress_components",
    "compression_ratio",
    "resolve_error_bound",
    # fused-kernel entry points
    "compress_blocks",
    "decompress_blocks",
    "KernelArena",
    # constants + errors
    "DEFAULT_BLOCK_SIZE",
    "StreamFormatError",
    # subsystem entry points
    "observe",
    "serve",
    "CompressionService",
    "__version__",
]

#: Lazily-resolved exports (PEP 562): ``repro.serve`` pulls in the
#: concurrent service machinery, which most library users never touch —
#: importing :mod:`repro` stays light until they do.
_LAZY_EXPORTS = {
    "serve": ("repro.serve", None),
    "CompressionService": ("repro.serve", "CompressionService"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
