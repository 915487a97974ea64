"""The fused-kernel codec must be byte-identical to the scalar reference.

:mod:`repro.core.scalar` is the test oracle, called directly; every
bound here is absolute, so it takes the bound as given.
"""

import numpy as np
import pytest

from repro.core.api import compress, decompress
from repro.core.constants import DEFAULT_BLOCK_SIZE
from repro.core.scalar import compress_scalar, decompress_scalar
from repro.core.stream import parse_stream

RNG = np.random.default_rng(11)


def scalar_stream(d, err, block_size=DEFAULT_BLOCK_SIZE):
    return compress_scalar(d, err, block_size).to_bytes()


def scalar_recon(stream):
    return decompress_scalar(parse_stream(stream))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("block_size", [1, 7, 8, 64, 128])
@pytest.mark.parametrize("err", [1e-1, 1e-3, 1e-6])
def test_streams_identical(dtype, block_size, err):
    n = 777  # deliberately not a block-size multiple
    d = (np.cumsum(RNG.normal(size=n)) / 5).astype(dtype)
    d[100:250] = d[100]  # constant stretch
    s_scalar = scalar_stream(d, err, block_size)
    s_vec = compress(d, err, block_size=block_size)
    assert s_scalar == s_vec


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_cross_engine_decode(dtype):
    d = (np.sin(np.linspace(0, 50, 5000)) * 3).astype(dtype)
    stream = scalar_stream(d, 1e-4)
    r_vec = decompress(stream)
    r_scalar = scalar_recon(stream)
    assert np.array_equal(r_vec, r_scalar)


def test_all_constant_blocks():
    d = np.zeros(1000, dtype=np.float32)
    assert scalar_stream(d, 1e-3) == compress(d, 1e-3)


def test_all_nonconstant_blocks():
    d = RNG.normal(0, 100, 1000).astype(np.float32)
    assert scalar_stream(d, 1e-6) == compress(d, 1e-6)


def test_nonconstant_ragged_tail():
    d = RNG.normal(0, 100, 1000 + 13).astype(np.float32)
    s1 = scalar_stream(d, 1e-6, block_size=100)
    s2 = compress(d, 1e-6, block_size=100)
    assert s1 == s2
    assert np.array_equal(decompress(s1), scalar_recon(s2))


def test_constant_ragged_tail():
    d = RNG.normal(0, 100, 1000).astype(np.float32)
    d = np.concatenate([d, np.full(13, 5.0, np.float32)])
    s1 = scalar_stream(d, 1e-3, block_size=100)
    s2 = compress(d, 1e-3, block_size=100)
    assert s1 == s2
