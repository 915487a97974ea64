"""Roundtrip and error-bound tests for the codec and the scalar oracle."""

import numpy as np
import pytest

from repro.core.api import compress, compression_ratio, decompress
from repro.core.constants import DEFAULT_BLOCK_SIZE
from repro.core.scalar import compress_scalar, decompress_scalar
from repro.core.stream import parse_stream

RNG = np.random.default_rng(10)


def fields():
    """A small zoo of characteristic inputs."""
    n = 3000
    t = np.linspace(0, 30, n)
    yield "smooth", np.sin(t) * 10
    yield "noisy", RNG.normal(0, 1, n)
    yield "walk", np.cumsum(RNG.normal(0, 1, n))
    yield "constant", np.full(n, 3.25)
    yield "mostly-zero", np.where(RNG.random(n) > 0.98, RNG.normal(0, 5, n), 0.0)
    yield "large-magnitude", np.sin(t) * 1e30
    yield "tiny-magnitude", np.sin(t) * 1e-30
    yield "mixed-sign-steps", np.repeat(RNG.normal(0, 100, n // 10), 10)


def _scalar_compress(d, err, block_size=DEFAULT_BLOCK_SIZE):
    return compress_scalar(d, err, block_size).to_bytes()


def _scalar_decompress(stream):
    return decompress_scalar(parse_stream(stream))


#: (compress, decompress) per path; every bound below is absolute.
PATHS = {
    "scalar": (_scalar_compress, _scalar_decompress),
    "vectorized": (compress, decompress),
}


@pytest.mark.parametrize("path", ["scalar", "vectorized"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestErrorBound:
    @pytest.mark.parametrize("name,data", list(fields()))
    @pytest.mark.parametrize("err", [1e-1, 1e-3])
    def test_bound_respected(self, path, dtype, name, data, err):
        comp, deco = PATHS[path]
        d = data.astype(dtype)
        r = deco(comp(d, err, block_size=32))
        assert np.abs(d.astype(np.float64) - r.astype(np.float64)).max() <= err

    def test_shape_restored(self, path, dtype):
        comp, deco = PATHS[path]
        d = RNG.normal(size=(7, 9, 11)).astype(dtype)
        r = deco(comp(d, 1e-2))
        assert r.shape == d.shape
        assert r.dtype == d.dtype

    def test_empty_array(self, path, dtype):
        comp, deco = PATHS[path]
        d = np.empty(0, dtype=dtype)
        r = deco(comp(d, 1e-2))
        assert r.size == 0

    def test_single_value(self, path, dtype):
        comp, deco = PATHS[path]
        d = np.array([123.456], dtype=dtype)
        r = deco(comp(d, 1e-3))
        assert abs(float(d[0]) - float(r[0])) <= 1e-3

    def test_block_size_one(self, path, dtype):
        comp, deco = PATHS[path]
        d = RNG.normal(size=50).astype(dtype)
        r = deco(comp(d, 1e-2, block_size=1))
        assert np.abs(d - r).max() <= 1e-2


class TestRelMode:
    def test_rel_bound_scales_with_range(self):
        d = (np.sin(np.linspace(0, 20, 5000)) * 500).astype(np.float32)
        stream = compress(d, 1e-3, mode="rel")
        r = decompress(stream)
        value_range = float(d.max() - d.min())
        assert np.abs(d - r).max() <= 1e-3 * value_range

    def test_rel_tighter_than_equivalent_abs(self):
        from repro.core.api import resolve_error_bound

        d = (np.cumsum(RNG.normal(size=4000)) / 10).astype(np.float32)
        rel_stream = compress(d, 1e-3, mode="rel")
        abs_bound = resolve_error_bound(d, 1e-3, "rel")
        abs_stream = compress(d, abs_bound, mode="abs")
        assert rel_stream == abs_stream

    def test_constant_field_rel(self):
        d = np.full(1000, 2.5, dtype=np.float32)
        r = decompress(compress(d, 1e-3, mode="rel"))
        assert np.array_equal(r, d)


class TestApiValidation:
    def test_rejects_nan(self):
        d = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            compress(d, 1e-3)

    def test_rejects_inf(self):
        d = np.array([1.0, np.inf], dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            compress(d, 1e-3)

    def test_rejects_int_dtype(self):
        with pytest.raises(TypeError):
            compress(np.arange(10), 1e-3)

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_rejects_nonpositive_bound(self, bad):
        with pytest.raises(ValueError):
            compress(np.ones(10, np.float32), bad)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            compress(np.ones(10, np.float32), 1e-3, mode="pointwise")

    def test_rejects_unknown_engine(self):
        # There is no engine option: the fused kernels are the only engine.
        with pytest.raises(TypeError, match="engine"):
            compress(np.ones(10, np.float32), 1e-3, engine="gpu")
        with pytest.raises(TypeError, match="engine"):
            decompress(compress(np.ones(10, np.float32), 1e-3), engine="gpu")

    def test_compression_ratio_helper(self):
        d = np.full(10000, 1.0, dtype=np.float32)
        stream = compress(d, 1e-3)
        assert compression_ratio(d, stream) > 20


class TestDeterminismAndIdempotence:
    def test_deterministic(self):
        d = RNG.normal(size=5000).astype(np.float32)
        assert compress(d, 1e-3) == compress(d, 1e-3)

    def test_idempotent_reconstruction(self):
        # Compressing the reconstruction reproduces it exactly: the
        # reconstruction is already expressible by the codec.
        d = np.cumsum(RNG.normal(size=5000)).astype(np.float32)
        r1 = decompress(compress(d, 1e-3))
        r2 = decompress(compress(r1, 1e-3))
        assert np.abs(r1 - r2).max() <= 1e-3  # and usually exactly equal

    def test_constant_blocks_exact(self):
        d = np.full(4096, -17.5, dtype=np.float32)
        r = decompress(compress(d, 1e-6))
        assert np.array_equal(r, d)
