"""CodecConfig / SZxCodec: validation, equivalence with the functional API."""

import dataclasses

import numpy as np
import pytest

from repro import CodecConfig, SZxCodec, compress, decompress
from repro.core import (
    DEFAULT_BLOCK_SIZE,
    BoundResolution,
    compress_components,
    parse_stream,
    resolve_error_bound,
    resolve_error_bound_info,
)
from repro.core.scalar import compress_scalar, decompress_scalar
from repro.parallel.omp import (
    compress_components_parallel,
    decompress_components_parallel,
)


def field(n=4096, seed=7, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n)).astype(dtype)


# ---------------------------------------------------------------------------
# CodecConfig validation
# ---------------------------------------------------------------------------


class TestCodecConfig:
    def test_defaults(self):
        cfg = CodecConfig()
        assert cfg.err_bound is None
        assert cfg.mode == "abs"
        assert cfg.block_size == DEFAULT_BLOCK_SIZE
        assert cfg.checksum is False
        assert cfg.workers == 1
        assert cfg.backend == "thread"

    def test_frozen(self):
        cfg = CodecConfig(err_bound=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.err_bound = 1.0

    def test_replace_revalidates(self):
        cfg = CodecConfig(err_bound=1e-3)
        cfg2 = cfg.replace(workers=2, checksum=True)
        assert cfg2.workers == 2 and cfg2.checksum is True
        assert cfg.workers == 1 and cfg.checksum is False  # original untouched
        with pytest.raises(ValueError):
            cfg.replace(mode="weird")

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("inf"), float("nan")])
    def test_rejects_bad_bound(self, bad):
        with pytest.raises(ValueError):
            CodecConfig(err_bound=bad)

    def test_rejects_bad_mode_engine_threads_block_size(self):
        with pytest.raises(ValueError):
            CodecConfig(mode="pointwise")
        with pytest.raises(ValueError):
            CodecConfig(workers=0)
        with pytest.raises(ValueError):
            CodecConfig(block_size=128.0)

    def test_codec_requires_config_type(self):
        with pytest.raises(TypeError):
            SZxCodec({"err_bound": 1e-3})

    def test_compress_without_bound_raises(self):
        with pytest.raises(ValueError, match="err_bound"):
            SZxCodec(CodecConfig()).compress(field(64))

    def test_decompress_only_codec_works_without_bound(self):
        data = field()
        stream = compress(data, 1e-2)
        out = SZxCodec().decompress(stream)
        assert np.abs(out - data).max() <= 1e-2


# ---------------------------------------------------------------------------
# kwargs-vs-SZxCodec byte-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reference", ["vectorized", "scalar"])
@pytest.mark.parametrize("mode", ["abs", "rel"])
@pytest.mark.parametrize("checksum", [False, True])
class TestEquivalence:
    """The codec matches the functional API and, on the ``scalar`` leg,
    the :mod:`repro.core.scalar` oracle called directly."""

    def test_streams_byte_identical(self, reference, mode, checksum):
        data = field(2048)
        functional = compress(data, 1e-3, mode=mode, checksum=checksum)
        codec = SZxCodec(
            CodecConfig(err_bound=1e-3, mode=mode, checksum=checksum)
        )
        stream = codec.compress(data)
        assert stream == functional
        if reference == "scalar":
            abs_bound = resolve_error_bound(data, 1e-3, mode)
            want = compress_scalar(
                data, abs_bound, DEFAULT_BLOCK_SIZE, checksum=checksum
            ).to_bytes()
            recon = decompress_scalar(parse_stream(stream))
        else:
            want, recon = functional, decompress(stream)
        assert stream == want
        np.testing.assert_array_equal(codec.decompress(stream), recon)


class TestThreadedEquivalence:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_parallel_stream_byte_identical_to_serial(self, threads):
        data = field(10_000)
        serial = compress(data, 1e-3)
        codec = SZxCodec(CodecConfig(err_bound=1e-3, workers=threads))
        stream = codec.compress(data)
        assert stream == serial
        np.testing.assert_array_equal(codec.decompress(stream), decompress(stream))

    def test_omp_wrappers_match_codec(self):
        data = field(8192)
        via_omp = compress_components_parallel(data, 1e-3, workers=2).to_bytes()
        via_codec = SZxCodec(CodecConfig(err_bound=1e-3, workers=2)).compress(data)
        assert via_omp == via_codec
        np.testing.assert_array_equal(
            decompress_components_parallel(parse_stream(via_omp), workers=2),
            decompress(via_omp),
        )


# ---------------------------------------------------------------------------
# BoundResolution (REL-degradation bugfix)
# ---------------------------------------------------------------------------


class TestBoundResolution:
    def test_abs_mode_passthrough(self):
        res = resolve_error_bound_info(field(128), 1e-2, "abs")
        assert res == BoundResolution(raw_bound=1e-2, mode="abs", abs_bound=1e-2)
        assert res.note is None

    def test_rel_mode_scales_by_range(self):
        data = np.array([0.0, 2.0, 4.0], dtype=np.float32)
        res = resolve_error_bound_info(data, 1e-3, "rel")
        assert res.abs_bound == pytest.approx(4e-3)
        assert res.value_range == pytest.approx(4.0)
        assert not res.degraded and res.note is None

    def test_rel_mode_empty_input_degrades(self):
        res = resolve_error_bound_info(np.empty(0, dtype=np.float32), 1e-3, "rel")
        assert res.degraded
        assert res.abs_bound == 1e-3
        assert res.value_range is None
        assert "empty" in res.note

    def test_rel_mode_constant_input_degrades(self):
        res = resolve_error_bound_info(
            np.full(256, 5.0, dtype=np.float32), 1e-3, "rel"
        )
        assert res.degraded
        assert res.abs_bound == 1e-3
        assert res.value_range == 0.0
        assert "constant" in res.note

    def test_resolve_error_bound_matches_info(self):
        data = field(512)
        assert resolve_error_bound(data, 1e-3, "rel") == (
            resolve_error_bound_info(data, 1e-3, "rel").abs_bound
        )

    def test_components_carry_resolution(self):
        data = np.full(300, 1.5, dtype=np.float32)
        comp = compress_components(data, 1e-3, mode="rel")
        assert isinstance(comp.bound, BoundResolution)
        assert comp.bound.degraded
        # the resolution does not change the serialized stream
        assert comp.to_bytes() == compress(data, 1e-3, mode="rel")
