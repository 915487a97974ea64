"""Random-access decompression: reconstruct a sub-range without full decode.

The ``zsize_array`` exists so parallel decompressors can seek to any
block (Section 6.1); the same mechanism gives *random access*: to read
values ``[start, stop)`` only the overlapping blocks are decoded, cut
out of the stream by :func:`repro.core.stream.split_blocks`.  This
is the property the paper's in-memory use cases (quantum-circuit
simulation, Section 1) rely on — decompress the slice you need, not the
whole state.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockLayout
from .stream import parse_stream, split_blocks
from .kernels import decompress_blocks


def decompress_range(stream: bytes, start: int, stop: int) -> np.ndarray:
    """Reconstruct values ``[start, stop)`` of the original flat array.

    Decodes only the blocks overlapping the range — cost proportional to
    the requested span, not the dataset.  Returns a 1D array of length
    ``stop - start`` in the stream's dtype.
    """
    comp = parse_stream(bytes(stream))
    header = comp.header
    if not 0 <= start <= stop <= header.n:
        raise ValueError(
            f"range [{start}, {stop}) outside dataset of {header.n} values"
        )
    if start == stop:
        return np.empty(0, dtype=header.traits.dtype)

    bs = header.block_size
    first = start // bs
    last = (stop - 1) // bs + 1  # exclusive block index

    decoded = decompress_blocks(split_blocks(comp, [first, last])[0])
    lo = start - first * bs
    return decoded[lo : lo + (stop - start)]


def decompress_block(stream: bytes, block_index: int) -> np.ndarray:
    """Reconstruct exactly one block by index."""
    comp = parse_stream(bytes(stream))
    layout = BlockLayout(comp.header.n, comp.header.block_size)
    if not 0 <= block_index < layout.n_blocks:
        raise ValueError(
            f"block {block_index} outside stream of {layout.n_blocks} blocks"
        )
    sl = layout.block_slice(block_index)
    return decompress_range(stream, sl.start, sl.stop)
