"""Hypothesis property tests for the SZx codec invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.api import compress, decompress, resolve_error_bound
from repro.core.scalar import compress_scalar, decompress_scalar
from repro.core.stream import parse_stream

finite_f32 = st.floats(
    min_value=-9.999999933815813e36,
    max_value=9.999999933815813e36,
    allow_nan=False,
    allow_infinity=False,
    width=32,
)
finite_f64 = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)

arrays_f32 = hnp.arrays(np.float32, st.integers(0, 600), elements=finite_f32)
arrays_f64 = hnp.arrays(np.float64, st.integers(0, 400), elements=finite_f64)

bounds = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
block_sizes = st.integers(1, 200)


@settings(max_examples=150, deadline=None)
@given(data=arrays_f32, err=bounds, bs=block_sizes)
def test_error_bound_f32(data, err, bs):
    stream = compress(data, err, block_size=bs)
    recon = decompress(stream)
    if data.size:
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= err


@settings(max_examples=80, deadline=None)
@given(data=arrays_f64, err=bounds, bs=block_sizes)
def test_error_bound_f64(data, err, bs):
    stream = compress(data, err, block_size=bs)
    recon = decompress(stream)
    if data.size:
        assert np.abs(data - recon).max() <= err


@settings(max_examples=60, deadline=None)
@given(data=arrays_f32, err=bounds, bs=block_sizes)
def test_engines_byte_identical(data, err, bs):
    oracle = compress_scalar(data, err, bs).to_bytes()
    assert oracle == compress(data, err, block_size=bs)


@settings(max_examples=60, deadline=None)
@given(data=arrays_f32, err=bounds, bs=block_sizes)
def test_decoders_agree(data, err, bs):
    stream = compress(data, err, block_size=bs)
    assert np.array_equal(
        decompress_scalar(parse_stream(stream)), decompress(stream)
    )


@settings(max_examples=60, deadline=None)
@given(data=arrays_f32, err=bounds, bs=block_sizes)
def test_reconstruction_is_fixed_point(data, err, bs):
    """Re-compressing a reconstruction reproduces it bit-exactly.

    Every reconstructed value is either a block mu or a truncated word +
    mu; compressing again finds radius <= the same bound and truncation is
    idempotent on already-truncated words.
    """
    r1 = decompress(compress(data, err, block_size=bs))
    r2 = decompress(compress(r1, err, block_size=bs))
    if data.size:
        assert np.abs(r1.astype(np.float64) - r2.astype(np.float64)).max() <= err


@settings(max_examples=40, deadline=None)
@given(
    data=hnp.arrays(
        np.float32,
        st.integers(1, 300),
        elements=st.floats(min_value=-100, max_value=100, width=32, allow_nan=False),
    ),
    rel=st.floats(min_value=1e-6, max_value=0.5),
)
def test_rel_mode_bound(data, rel):
    stream = compress(data, rel, mode="rel")
    recon = decompress(stream)
    value_range = float(data.max()) - float(data.min())
    bound = rel * value_range if value_range else rel
    assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= bound


@settings(max_examples=50, deadline=None)
@given(data=arrays_f32, err=bounds)
def test_stream_parse_roundtrip(data, err):
    from repro.core.stream import parse_stream

    stream = compress(data, err)
    assert parse_stream(stream).to_bytes() == stream


# ---------------------------------------------------------------------------
# Deterministic round-trip sweep: dtype x block size x mode x boundary sizes.
# Complements the hypothesis tests above with exact, named boundary cases
# (empty input, single value, one-off-block-edge sizes) on both dtypes.
# ---------------------------------------------------------------------------

_SWEEP_RNG = np.random.default_rng(0xC0FFEE)
_SWEEP_FIELDS = {}


def _sweep_field(dtype, n):
    key = (np.dtype(dtype).name, n)
    if key not in _SWEEP_FIELDS:
        _SWEEP_FIELDS[key] = np.cumsum(
            _SWEEP_RNG.standard_normal(n)
        ).astype(dtype)
    return _SWEEP_FIELDS[key]


def _sweep_sizes(bs):
    return sorted({0, 1, max(bs - 1, 0), bs, bs + 1, 3 * bs + 5})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bs", [1, 7, 128, 1000])
@pytest.mark.parametrize(
    "mode,err", [("abs", 1e-3), ("abs", 1e-6), ("rel", 1e-3)]
)
def test_round_trip_sweep(dtype, bs, mode, err):
    for n in _sweep_sizes(bs):
        data = _sweep_field(dtype, n)
        abs_bound = resolve_error_bound(data, err, mode)
        vec = compress(data, err, mode=mode, block_size=bs)
        sca = compress_scalar(data, abs_bound, bs).to_bytes()
        assert sca == vec, f"scalar oracle diverges at n={n}"
        recon = decompress(vec)
        assert recon.dtype == np.dtype(dtype) and recon.size == n
        if n:
            worst = np.abs(
                data.astype(np.float64) - recon.astype(np.float64)
            ).max()
            assert worst <= abs_bound, f"bound violated at n={n}"
        assert np.array_equal(decompress_scalar(parse_stream(vec)), recon)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bs", [1, 7, 128, 1000])
def test_checksum_sweep_round_trips(dtype, bs):
    """The CRC32 footer never perturbs the decoded data."""
    for n in _sweep_sizes(bs):
        data = _sweep_field(dtype, n)
        plain = compress(data, 1e-3, block_size=bs)
        footed = compress(data, 1e-3, block_size=bs, checksum=True)
        assert footed != plain  # flags bit + 4-byte footer
        assert len(footed) == len(plain) + 4
        assert np.array_equal(decompress(footed), decompress(plain))
