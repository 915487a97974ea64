"""ZFP stage 1: 4^d blocking and block-floating-point conversion.

Each 4^d block is aligned to a common exponent ``emax`` (the exponent of
its largest magnitude) and converted to fixed point with the scaling ZFP
uses: ``q = x * 2^(intprec - 2 - emax)``, which maps the block into
``(-2^(intprec-1), 2^(intprec-1))``.
"""

from __future__ import annotations

import numpy as np

from ...core.constants import DtypeTraits

#: Fixed-point precision per float type (ZFP's Int width).
INTPREC = {32: 32, 64: 64}

#: Extra scale guard bits: intermediates inside one lifting step can
#: transiently reach 4x the input magnitude.  float32 blocks live in
#: int64 containers so no scale guard is needed; float64 blocks sacrifice
#: three low bits so transients provably stay inside int64.
GUARD = {32: 0, 64: 3}


def pad_to_blocks(data: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Edge-replicate *data* so every dimension is a multiple of 4."""
    arr = np.asarray(data)
    pad = [(0, (-s) % 4) for s in arr.shape]
    if any(p[1] for p in pad):
        arr = np.pad(arr, pad, mode="edge")
    return arr, arr.shape


def split_blocks(padded: np.ndarray) -> np.ndarray:
    """Reshape a padded d-dim array into an ``(m, 4, ..., 4)`` block tensor."""
    d = padded.ndim
    shape = []
    for s in padded.shape:
        shape.extend([s // 4, 4])
    view = padded.reshape(shape)
    # interleave: (b0, 4, b1, 4, ...) -> (b0, b1, ..., 4, 4, ...)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    blocks = view.transpose(order)
    return blocks.reshape(-1, *([4] * d))


def merge_blocks(blocks: np.ndarray, padded_shape: tuple) -> np.ndarray:
    """Inverse of :func:`split_blocks`."""
    d = len(padded_shape)
    counts = [s // 4 for s in padded_shape]
    view = blocks.reshape(*counts, *([4] * d))
    order = []
    for i in range(d):
        order.extend([i, d + i])
    interleaved = view.transpose(order)
    return interleaved.reshape(padded_shape)


def block_emax(blocks: np.ndarray, traits: DtypeTraits) -> np.ndarray:
    """Common (largest) exponent per block; zero blocks get a sentinel."""
    d = blocks.ndim - 1
    absmax = np.abs(blocks).reshape(blocks.shape[0], -1).max(axis=1)
    from ...core.bits import exponent

    emax = exponent(absmax.astype(traits.dtype), traits)
    return np.where(absmax == 0, np.int64(-(1 << 20)), emax)


def to_fixed(blocks: np.ndarray, emax: np.ndarray, traits: DtypeTraits) -> np.ndarray:
    """Convert float blocks to int64 fixed point at the block exponent.

    ``ldexp`` scales the values themselves: a separate ``2^k`` factor
    overflows for float64 blocks whose largest value is subnormal
    (``k > 1023``) even though the scaled values fit.
    """
    shift = INTPREC[traits.fullbits] - 2 - GUARD[traits.fullbits]
    expand = (slice(None),) + (None,) * (blocks.ndim - 1)
    k = (shift - emax).astype(np.int32)
    return np.ldexp(blocks.astype(np.float64), k[expand]).astype(np.int64)


def from_fixed(q: np.ndarray, emax: np.ndarray, traits: DtypeTraits) -> np.ndarray:
    """Inverse of :func:`to_fixed` (returns the traits dtype)."""
    shift = INTPREC[traits.fullbits] - 2 - GUARD[traits.fullbits]
    expand = (slice(None),) + (None,) * (q.ndim - 1)
    k = (emax - shift).astype(np.int32)
    return np.ldexp(q.astype(np.float64), k[expand]).astype(traits.dtype)
