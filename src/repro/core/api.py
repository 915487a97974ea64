"""Public compress/decompress API for SZx.

Two error-bound modes (Section 3 / footnote 1 of the paper):

* ``mode="abs"`` — *err_bound* is the absolute bound ``e``;
* ``mode="rel"`` — *err_bound* is a value-range-based relative bound and
  the absolute bound applied is ``err_bound * (max(D) - min(D))``.

Compression runs through the fused-kernel chain of
:mod:`repro.core.kernels`; :mod:`repro.core.scalar` is its test oracle,
not a runtime option.

:func:`compress`/:func:`decompress` are thin wrappers over
:class:`repro.codec.SZxCodec` — the class API and these functions emit
byte-identical streams by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import observe
from .constants import DEFAULT_BLOCK_SIZE, traits_for
from .kernels import compress_blocks
from .stream import StreamComponents, parse_stream

_MODES = ("abs", "rel")


@dataclass(frozen=True)
class BoundResolution:
    """How a user-specified error bound became the applied ABS bound.

    ``degraded`` is true when a REL bound could not be scaled by the
    value range (empty or constant input) and fell back to the raw
    *err_bound* value — the case a user would otherwise never see.
    """

    raw_bound: float
    mode: str
    abs_bound: float
    value_range: float | None = None
    degraded: bool = False

    @property
    def note(self) -> str | None:
        """One-line human explanation of a degraded resolution."""
        if not self.degraded:
            return None
        kind = "empty" if self.value_range is None else "constant (zero-range)"
        return (
            f"REL bound {self.raw_bound:g} could not be scaled on {kind} "
            f"input; raw value {self.abs_bound:g} was applied as the "
            f"absolute bound"
        )


def resolve_error_bound_info(
    data: np.ndarray, err_bound: float, mode: str
) -> BoundResolution:
    """Resolve *err_bound* under *mode*, recording how it was resolved."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not (err_bound > 0.0) or not np.isfinite(err_bound):
        raise ValueError(f"error bound must be positive and finite, got {err_bound}")
    raw = float(err_bound)
    if mode == "abs":
        return BoundResolution(raw_bound=raw, mode=mode, abs_bound=raw)
    if data.size == 0:
        return BoundResolution(
            raw_bound=raw, mode=mode, abs_bound=raw, value_range=None, degraded=True
        )
    value_range = float(data.max()) - float(data.min())
    if value_range == 0.0:
        # A constant field compresses to constant blocks under any bound,
        # so the reconstruction is exact — but the header still records
        # the raw value; the degraded flag makes that visible.
        return BoundResolution(
            raw_bound=raw, mode=mode, abs_bound=raw, value_range=0.0, degraded=True
        )
    return BoundResolution(
        raw_bound=raw, mode=mode, abs_bound=raw * value_range,
        value_range=value_range,
    )


def resolve_error_bound(data: np.ndarray, err_bound: float, mode: str) -> float:
    """Translate a REL bound into the ABS bound actually applied."""
    return resolve_error_bound_info(data, err_bound, mode).abs_bound


def _check_input(data: np.ndarray) -> np.ndarray:
    arr = np.asarray(data)
    traits_for(arr.dtype)  # raises TypeError for unsupported dtypes
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("SZx input must be finite (no NaN/Inf)")
    return arr


def compress_components(
    data: np.ndarray,
    err_bound: float,
    *,
    mode: str = "abs",
    block_size: int = DEFAULT_BLOCK_SIZE,
    checksum: bool = False,
) -> StreamComponents:
    """Compress *data* and return unserialized stream components.

    The returned components carry the :class:`BoundResolution` in their
    ``bound`` field, so callers can see the absolute bound actually
    applied (and whether a REL bound degraded on empty/constant input).
    """
    arr = _check_input(data)
    with observe.span("resolve_bound"):
        resolution = resolve_error_bound_info(arr, err_bound, mode)
    components = compress_blocks(
        arr, resolution.abs_bound, block_size, checksum=checksum
    )
    components.bound = resolution
    return components


def compress(
    data: np.ndarray,
    err_bound: float,
    *,
    mode: str = "abs",
    block_size: int = DEFAULT_BLOCK_SIZE,
    checksum: bool = False,
) -> bytes:
    """Compress *data* into an SZx byte stream.

    Parameters
    ----------
    data:
        float32 or float64 array of any shape (compressed in C-order).
    err_bound:
        Error bound; interpretation depends on *mode*.
    mode:
        ``"abs"`` (absolute) or ``"rel"`` (value-range-based relative).
    block_size:
        Values per block; the paper's default/best setting is 128.
    checksum:
        When true, append a CRC32 integrity footer (flagged in the
        header) so any later corruption of the stream — including of
        payload bytes no structural check can see — is detected at
        decode time.
    """
    from ..codec import CodecConfig, SZxCodec

    return SZxCodec(
        CodecConfig(
            err_bound=err_bound,
            mode=mode,
            block_size=block_size,
            checksum=checksum,
        )
    ).compress(data)


def decompress(stream: bytes) -> np.ndarray:
    """Reconstruct the array from an SZx byte *stream*.

    The returned array has the dtype and shape recorded in the header
    (flat if the shape was not recorded).  Malformed input raises
    :class:`~repro.core.errors.StreamFormatError` (a ``ValueError``
    subclass) naming the offending section — never a raw struct or
    numpy error.
    """
    from ..codec import CodecConfig, SZxCodec

    return SZxCodec().decompress(stream)


def compression_ratio(data: np.ndarray, stream: bytes) -> float:
    """Original bytes divided by compressed bytes."""
    arr = np.asarray(data)
    if arr.size == 0:
        raise ValueError(
            "compression_ratio is undefined for a zero-size input array"
        )
    if len(stream) == 0:
        raise ValueError("empty stream")
    return (arr.size * arr.dtype.itemsize) / len(stream)
