"""Tests for the ZFP baseline (transform + bit-plane coding)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import zfp_compress, zfp_decompress
from repro.baselines.zfp.fixedpoint import merge_blocks, pad_to_blocks, split_blocks
from repro.baselines.zfp.negabinary import int_to_negabinary, negabinary_to_int
from repro.baselines.zfp.transform import (
    from_sequency,
    fwd_transform,
    inv_transform,
    sequency_order,
    to_sequency,
)

RNG = np.random.default_rng(30)


class TestBlocking:
    @pytest.mark.parametrize("shape", [(8,), (12, 8), (4, 8, 12)])
    def test_split_merge_roundtrip(self, shape):
        arr = RNG.normal(size=shape).astype(np.float32)
        padded, pshape = pad_to_blocks(arr)
        blocks = split_blocks(padded)
        assert blocks.shape[1:] == (4,) * len(shape)
        assert np.array_equal(merge_blocks(blocks, pshape), padded)

    def test_padding_replicates_edges(self):
        arr = np.arange(5, dtype=np.float32)
        padded, pshape = pad_to_blocks(arr)
        assert pshape == (8,)
        assert (padded[5:] == arr[-1]).all()


class TestTransform:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_invertible(self, d):
        """ZFP's lifting pair is *approximately* inverse: the forward
        shifts discard low bits, bounded by a small constant per value
        (this is why the precision rule carries guard planes)."""
        blocks = RNG.integers(-(2**30), 2**30, size=(50, *([4] * d))).astype(np.int64)
        original = blocks.copy()
        fwd_transform(blocks)
        inv_transform(blocks)
        err = np.abs(blocks - original).max()
        assert err <= 64  # absolute integer units, independent of magnitude

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_on_even_multiples(self, d):
        """With enough trailing zero bits the lifting shifts are exact."""
        blocks = (
            RNG.integers(-(2**20), 2**20, size=(50, *([4] * d))).astype(np.int64)
            << 16
        )
        original = blocks.copy()
        fwd_transform(blocks)
        inv_transform(blocks)
        assert np.array_equal(blocks, original)

    def test_constant_block_energy_compaction(self):
        blocks = np.full((1, 4, 4, 4), 12345, dtype=np.int64)
        fwd_transform(blocks)
        flat = to_sequency(blocks)
        assert flat[0, 0] != 0          # DC coefficient carries the value
        assert not flat[0, 1:].any()    # all AC coefficients vanish

    def test_smooth_block_compaction(self):
        ramp = np.arange(64, dtype=np.int64).reshape(1, 4, 4, 4) * 1000
        fwd_transform(ramp)
        flat = np.abs(to_sequency(ramp))[0]
        # low-sequency coefficients dominate high-sequency ones
        assert flat[:8].sum() > 10 * flat[32:].sum()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sequency_roundtrip(self, d):
        blocks = RNG.integers(-100, 100, size=(7, *([4] * d))).astype(np.int64)
        assert np.array_equal(from_sequency(to_sequency(blocks), d), blocks)

    def test_sequency_order_starts_at_dc(self):
        for d in (1, 2, 3):
            assert sequency_order(d)[0] == 0


class TestNegabinary:
    def test_roundtrip(self):
        x = RNG.integers(-(2**60), 2**60, size=1000).astype(np.int64)
        assert np.array_equal(negabinary_to_int(int_to_negabinary(x)), x)

    def test_small_magnitudes_get_small_codes(self):
        x = np.array([0, 1, -1, 2, -2], dtype=np.int64)
        u = int_to_negabinary(x)
        assert (u < 8).all()

    def test_truncation_rounds_toward_zero_magnitude(self):
        x = np.arange(-100, 100, dtype=np.int64)
        u = int_to_negabinary(x)
        truncated = negabinary_to_int((u >> np.uint64(3)) << np.uint64(3))
        assert np.abs(truncated - x).max() <= 8


@pytest.mark.parametrize("mode", ["fast", "embedded"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestZFPCodec:
    @pytest.mark.parametrize("shape", [(100,), (33, 17), (10, 20, 30)])
    def test_roundtrip_bound(self, mode, dtype, shape):
        d = np.cumsum(RNG.normal(size=int(np.prod(shape)))).reshape(shape).astype(dtype)
        for tol in (1e-1, 1e-4):
            r = zfp_decompress(zfp_compress(d, tol, mode=mode))
            assert r.shape == d.shape and r.dtype == d.dtype
            assert np.abs(d.astype(np.float64) - r.astype(np.float64)).max() <= tol

    def test_4d_folded(self, mode, dtype):
        d = RNG.normal(size=(3, 5, 8, 9)).astype(dtype)
        r = zfp_decompress(zfp_compress(d, 1e-3, mode=mode))
        assert r.shape == d.shape
        assert np.abs(d.astype(np.float64) - r.astype(np.float64)).max() <= 1e-3

    def test_all_zero(self, mode, dtype):
        d = np.zeros((16, 16), dtype=dtype)
        c = zfp_compress(d, 1e-3, mode=mode)
        assert np.array_equal(zfp_decompress(c), d)
        assert len(c) < 200  # zero blocks cost a bitmap bit each

    def test_empty(self, mode, dtype):
        d = np.empty(0, dtype=dtype)
        assert zfp_decompress(zfp_compress(d, 1e-2, mode=mode)).size == 0


class TestZFPBehaviour:
    def test_embedded_beats_fast_ratio(self):
        from repro.datasets import get_application

        d = get_application("Miranda", "tiny").field("pressure")
        fast = len(zfp_compress(d, 1e-2, mode="fast", bound_mode="rel"))
        emb = len(zfp_compress(d, 1e-2, mode="embedded", bound_mode="rel"))
        assert emb < fast

    def test_beats_szx_ratio_on_smooth_data(self):
        """Table 3: ZFP CR is 0.5~3x above SZx's."""
        from repro.core.api import compress as szx_compress
        from repro.datasets import get_application

        d = get_application("Miranda", "tiny").field("pressure")
        zfp_len = len(zfp_compress(d, 1e-2, bound_mode="rel"))
        szx_len = len(szx_compress(d, 1e-2, mode="rel"))
        assert zfp_len < szx_len

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            zfp_compress(np.ones(4, np.float32), 1e-3, mode="turbo")

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            zfp_decompress(b"XXXX" + b"\x00" * 60)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            zfp_compress(np.array([np.nan], dtype=np.float32), 1e-3)

    def test_alternating_extremes(self):
        d = np.tile(np.array([1e30, -1e30], dtype=np.float32), 64)
        for mode in ("fast", "embedded"):
            r = zfp_decompress(zfp_compress(d, 1e20, mode=mode))
            assert np.abs(d.astype(np.float64) - r.astype(np.float64)).max() <= 1e20

    @pytest.mark.parametrize("mode", ["fast", "embedded"])
    def test_float64_subnormal_blocks_fixed_accuracy(self, mode):
        # Block maxima below 2^-1022 need a fixed-point scale above
        # 2^1023; scaling the values directly keeps it finite.
        scales = np.array([1e-310, 1e-320, 1.0, 1e-300])
        d = (RNG.normal(size=(4, 16)) * scales[:, None]).reshape(-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = zfp_decompress(zfp_compress(d, 1e-312, mode=mode))
        assert np.abs(d - r).max() <= 1e-312

    def test_float64_subnormal_blocks_fixed_rate(self):
        d = RNG.normal(size=64) * 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = zfp_decompress(zfp_compress(d, 1.0, mode="fixed-rate", rate=32))
        assert np.isfinite(r).all()
        assert np.abs(d - r).max() <= 1e-3 * np.abs(d).max()


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(
        np.float32,
        st.integers(1, 200),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
    ),
    tol=st.floats(min_value=1e-7, max_value=1e3),
    mode=st.sampled_from(["fast", "embedded"]),
)
def test_zfp_error_bound_property(data, tol, mode):
    r = zfp_decompress(zfp_compress(data, tol, mode=mode))
    assert np.abs(data.astype(np.float64) - r.astype(np.float64)).max() <= tol
