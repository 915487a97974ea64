"""Property tests for the block-range split/join pair of ``core.stream``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constants import FLAG_CHECKSUM
from repro.core.kernels import compress_blocks, decompress_blocks
from repro.core.stream import join_blocks, parse_stream, split_blocks


@st.composite
def streams(draw):
    """Components of a field mixing constant and non-constant blocks."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    bs = draw(st.sampled_from([1, 4, 16, 64]))
    n_blocks = draw(st.integers(1, 24))
    tail = draw(st.integers(0, bs - 1)) if bs > 1 else 0
    n = (n_blocks - 1) * bs + (tail or bs)
    seed = draw(st.integers(0, 2**32 - 1))
    const = draw(st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks))
    rng = np.random.default_rng(seed)
    data = np.cumsum(rng.normal(size=n)).astype(dtype)
    for k in np.flatnonzero(const):
        data[k * bs : (k + 1) * bs] = data[k * bs]
    checksum = draw(st.booleans())
    stream = compress_blocks(data, 1e-3, bs, checksum=checksum).to_bytes()
    return parse_stream(stream), stream


@st.composite
def streams_and_edges(draw):
    comp, stream = draw(streams())
    n_blocks = comp.header.n_blocks
    # Interior edges: random ones (repeats give empty parts) plus some of
    # the constant/non-constant class boundaries.
    changes = np.flatnonzero(np.diff(comp.nonconst_mask.astype(np.int8))) + 1
    inner = draw(st.lists(st.integers(0, n_blocks), max_size=6))
    if changes.size:
        inner += draw(st.lists(st.sampled_from(changes.tolist()), max_size=4))
    return comp, stream, [0, *sorted(inner), n_blocks]


@settings(max_examples=200, deadline=None)
@given(streams_and_edges())
def test_join_of_split_is_byte_identical(case):
    comp, stream, edges = case
    parts = split_blocks(comp, edges)
    assert len(parts) == len(edges) - 1
    joined = join_blocks(parts, shape=comp.header.shape, flags=comp.header.flags)
    assert joined.to_bytes() == stream


@settings(max_examples=200, deadline=None)
@given(streams_and_edges())
def test_each_part_decodes_to_its_slice(case):
    comp, _, edges = case
    full = decompress_blocks(comp).reshape(-1)
    header = comp.header
    for first, last, part in zip(edges, edges[1:], split_blocks(comp, edges)):
        lo = min(first * header.block_size, header.n)
        hi = min(last * header.block_size, header.n)
        assert part.header.n == hi - lo
        assert part.header.n_blocks == last - first
        assert part.header.n_const == int((~comp.nonconst_mask[first:last]).sum())
        assert (part.header.shape, part.header.flags) == ((), 0)
        assert np.array_equal(decompress_blocks(part), full[lo:hi])


def test_parts_stand_alone_as_streams():
    data = np.cumsum(np.random.default_rng(3).normal(size=1000)).astype(np.float32)
    comp = compress_blocks(data, 1e-3, 128)
    (part,) = split_blocks(comp, [2, 5])
    stream = part.to_bytes()
    assert np.array_equal(
        decompress_blocks(parse_stream(stream)),
        decompress_blocks(comp)[256:640],
    )


class TestRejections:
    @pytest.fixture
    def comp(self):
        data = np.linspace(0, 1, 1000, dtype=np.float32)
        return compress_blocks(data, 1e-4, 128)

    @pytest.mark.parametrize("edges", [[], [3, 2], [-1, 2], [0, 9]])
    def test_bad_edges(self, comp, edges):
        with pytest.raises(ValueError):
            split_blocks(comp, edges)

    def test_empty_join(self):
        with pytest.raises(ValueError, match="at least one part"):
            join_blocks([], shape=(), flags=0)

    def test_part_ending_inside_a_block(self, comp):
        tail = split_blocks(comp, [7, 8])[0]  # 1000 = 7 * 128 + 104
        head = split_blocks(comp, [0, 1])[0]
        with pytest.raises(ValueError, match="inside a block"):
            join_blocks([tail, head], shape=(), flags=0)

    def test_mismatched_bounds(self, comp):
        other = compress_blocks(np.linspace(0, 1, 256, dtype=np.float32), 1e-2, 128)
        with pytest.raises(ValueError, match="differs"):
            join_blocks(
                [split_blocks(comp, [0, 1])[0], other], shape=(), flags=FLAG_CHECKSUM
            )
