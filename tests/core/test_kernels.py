"""Property sweep for the fused-kernel stage chain (repro.core.kernels).

The scalar reference engine is the oracle: across dtype x mode x
block_size and the awkward input shapes (strided, Fortran-order, empty,
constant, tiny), the fused path must emit *byte-identical* streams and
reconstruct within the pointwise error bound.  Arena reuse across
heterogeneous calls must never leak state between batches, batch
boundaries must not show in the stream, and the arena must stay
bounded by the batch size whatever the input size.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import CodecConfig, SZxCodec
from repro.core import kernels
from repro.core.api import resolve_error_bound
from repro.core.constants import FLOAT32, FLOAT64
from repro.core.errors import PayloadFormatError
from repro.core.kernels import (
    DECODE_CHAIN,
    ENCODE_CHAIN,
    KernelArena,
    compress_blocks,
    decompress_blocks,
    _unpack_lead_rows,
    decode_batch,
    default_arena,
    encode_batch,
)
from repro.core.reqbits import required_bytes
from repro.core.scalar import (
    _decode_nonconstant_block,
    _encode_nonconstant_block,
    compress_scalar,
    decompress_scalar,
)
from repro.core.stream import lead_section_size, parse_stream, payload_bound

RNG = np.random.default_rng(1234)

DTYPES = (np.float32, np.float64)
MODES = ("abs", "rel")
BLOCK_SIZES = (1, 5, 32, 128, 1024)


def _field(dtype, n=6000):
    smooth = np.cumsum(RNG.normal(size=n) * 0.01)
    return (smooth + RNG.normal(size=n) * 1e-4).astype(dtype)


def _roundtrip_and_check(data, err_bound, mode, block_size):
    """Byte-identity vs scalar + pointwise bound; returns the stream."""
    arr = np.asarray(data)
    abs_bound = resolve_error_bound(arr, err_bound, mode)

    fused = compress_blocks(arr, abs_bound, block_size).to_bytes()
    oracle = compress_scalar(arr, abs_bound, block_size).to_bytes()
    assert fused == oracle, (
        f"stream mismatch dtype={arr.dtype} mode={mode} bs={block_size}"
    )

    recon = decompress_blocks(parse_stream(fused))
    ref = decompress_scalar(parse_stream(oracle))
    assert np.array_equal(
        recon.ravel().view(np.uint8), ref.ravel().view(np.uint8)
    )
    if arr.size:
        err = np.abs(
            recon.ravel().astype(np.float64)
            - np.ascontiguousarray(arr).reshape(-1).astype(np.float64)
        )
        slack = float(np.finfo(arr.dtype).eps) * max(1.0, float(err.max()))
        assert float(err.max()) <= abs_bound + slack
    return fused


class TestFusedSweep:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_byte_identity_and_bound(self, dtype, mode, block_size):
        _roundtrip_and_check(_field(dtype), 1e-3, mode, block_size)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rel", [1e-2, 1e-4, 1e-6])
    def test_bound_sweep_hits_varied_required_bytes(self, dtype, rel):
        # Tight bounds force large (even lossless) required lengths; the
        # mixed-magnitude field exercises the non-uniform nbytes path.
        varied = (_field(dtype) * np.logspace(-6, 6, 6000)).astype(dtype)
        _roundtrip_and_check(varied, rel, "rel", 128)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_strided_input(self, dtype):
        base = _field(dtype, 12000)
        _roundtrip_and_check(base[::3], 1e-3, "abs", 128)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fortran_order_input(self, dtype):
        arr = np.asfortranarray(_field(dtype, 64 * 96).reshape(64, 96))
        _roundtrip_and_check(arr, 1e-3, "rel", 128)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_input(self, dtype):
        _roundtrip_and_check(np.empty(0, dtype=dtype), 1e-3, "abs", 128)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_constant_input(self, dtype):
        _roundtrip_and_check(np.full(5000, 2.5, dtype=dtype), 1e-3, "abs", 64)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_single_value_and_ragged_tail(self, dtype):
        _roundtrip_and_check(_field(dtype, 1), 1e-3, "abs", 128)
        _roundtrip_and_check(_field(dtype, 129), 1e-3, "abs", 128)

    def test_nan_rejected_via_api(self):
        from repro.core.api import compress_components

        bad = _field(np.float32)
        bad[17] = np.nan
        with pytest.raises(ValueError, match="finite"):
            compress_components(bad, 1e-3)

    def test_inf_rejected_via_api(self):
        from repro.core.api import compress_components

        bad = _field(np.float64)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            compress_components(bad, 1e-3)


class TestArenas:
    def test_arena_reuse_is_byte_identical(self):
        # One arena across shrinking/growing/dtype-switching calls must
        # match fresh-arena output exactly — no state leaks between runs.
        arena = KernelArena()
        cases = [
            (_field(np.float32, 9000), 1e-3, 128),
            (_field(np.float64, 500), 1e-4, 32),
            (_field(np.float32, 50), 1e-2, 128),
            (_field(np.float64, 9000), 1e-5, 1024),
        ]
        for data, bound, bs in cases:
            shared = compress_blocks(data, bound, bs, arena=arena)
            fresh = compress_blocks(data, bound, bs, arena=KernelArena())
            assert shared.to_bytes() == fresh.to_bytes()
            a = decompress_blocks(parse_stream(shared.to_bytes()), arena=arena)
            b = decompress_blocks(parse_stream(fresh.to_bytes()))
            assert np.array_equal(a, b)

    def test_arena_grows_only(self):
        arena = KernelArena()
        big = arena.take("k", 1000, np.uint8)
        small = arena.take("k", 10, np.uint8)
        # The small view aliases the big buffer; no reallocation happened.
        assert small.base is big.base
        assert arena.nbytes == 1000

    def test_arena_dtype_switch_reallocates(self):
        arena = KernelArena()
        arena.take("k", 8, np.uint8)
        as_f64 = arena.take("k", 8, np.float64)
        assert as_f64.dtype == np.float64
        assert arena.nbytes == 64

    def test_default_arena_is_thread_local(self):
        import threading

        here = default_arena()
        assert default_arena() is here  # stable within a thread
        seen = []
        t = threading.Thread(target=lambda: seen.append(default_arena()))
        t.start()
        t.join()
        assert seen[0] is not here

    def test_reset_frees(self):
        arena = KernelArena()
        arena.take("k", 100, np.uint8)
        arena.reset()
        assert arena.nbytes == 0


class TestStageChains:
    def test_chain_stage_names_are_the_span_names(self):
        assert ENCODE_CHAIN.stage_names == (
            "block_stats", "encode_blocks", "encode_tail",
        )
        assert DECODE_CHAIN.stage_names == (
            "broadcast_const", "decode_blocks", "decode_tail",
        )

    def test_stage_spans_emitted(self):
        from repro import observe
        from repro.observe.sinks import InMemorySink

        def collect(span, acc):
            acc.add(span.name)
            for child in span.children:
                collect(child, acc)
            return acc

        sink = InMemorySink()
        observe.enable(sink)
        try:
            data = _field(np.float32, 4096 + 37)  # ragged tail included
            comp = compress_blocks(data, 1e-3, 128)
            decompress_blocks(parse_stream(comp.to_bytes()))
        finally:
            observe.disable()
        names = set()
        for root in sink.spans:
            collect(root, names)
        for expected in ENCODE_CHAIN.stage_names + DECODE_CHAIN.stage_names:
            assert expected in names, f"missing span {expected}"


# -- batch boundaries -------------------------------------------------------

BS = 16  # block size of the boundary tests
B = 3  # blocks per batch once _small_batches shrinks BATCH_BYTES


def _small_batches(monkeypatch, dtype=np.float32):
    """Shrink the chain's batch to B blocks, so boundaries are cheap."""
    monkeypatch.setattr(kernels, "BATCH_BYTES", B * BS * np.dtype(dtype).itemsize)


def _blocks(pattern, dtype=np.float32, tail=0):
    """One BS-value block per letter (N noisy, M noisy at 1e6x the
    magnitude, C constant), then *tail* noisy values."""
    scale = {"N": 1.0, "M": 1e6}
    parts = [
        np.full(BS, 1.5) if ch == "C" else RNG.normal(size=BS) * scale[ch]
        for ch in pattern
    ]
    parts.append(RNG.normal(size=tail))
    return np.concatenate(parts).astype(dtype)


def _check_batched(data):
    """Byte identity against the scalar oracle and across 1 vs 2 workers."""
    stream = _roundtrip_and_check(data, 1e-3, "abs", BS)
    config = CodecConfig(err_bound=1e-3, mode="abs", block_size=BS)
    one, two = SZxCodec(config), SZxCodec(config.replace(workers=2))
    assert one.compress(data) == stream
    assert two.compress(data) == stream
    assert np.array_equal(
        one.decompress(stream).view(np.uint8), two.decompress(stream).view(np.uint8)
    )


class TestBatchBoundaries:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("tail", [0, 5])
    @pytest.mark.parametrize("n_blocks", [B - 1, B, B + 1, 2 * B + 1])
    def test_block_counts_around_the_batch_size(
        self, monkeypatch, dtype, tail, n_blocks
    ):
        _small_batches(monkeypatch, dtype)
        _check_batched(_blocks("N" * n_blocks, dtype, tail))

    @pytest.mark.parametrize(
        "pattern", ["NNCCNNNCN", "CNNNCNNNC", "NNNCNNNC", "CCNNNCCNNNCC"]
    )
    def test_constant_blocks_on_both_sides_of_a_boundary(self, monkeypatch, pattern):
        _small_batches(monkeypatch)
        _check_batched(_blocks(pattern, tail=5))

    @pytest.mark.parametrize(
        "pattern", ["N" + "C" * B + "NNNN", "C" * B + "NNNN" + "C" * B]
    )
    def test_batch_sized_constant_run(self, monkeypatch, pattern):
        _small_batches(monkeypatch)
        _check_batched(_blocks(pattern))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mixed_magnitudes_give_non_uniform_nbytes(self, monkeypatch, dtype):
        _small_batches(monkeypatch, dtype)
        _check_batched(_blocks("NMMNMNNCMNMN", dtype, tail=7))


class TestBoundedArena:
    def test_arena_size_is_set_by_the_batch_not_the_input(self):
        # Blocks alternate 1x/1e6x magnitudes so every batch takes the
        # non-uniform-nbytes path, and both inputs fill whole batches.
        held = []
        for mib in (4, 32):
            n = mib << 18  # float32 values
            scale = np.repeat(np.tile([1.0, 1e6], n // 256), 128)
            rng = np.random.default_rng(mib)
            data = (rng.normal(size=n) * scale).astype(np.float32)
            arena = KernelArena()
            comp = compress_blocks(data, 1e-3, 128, arena=arena)
            decompress_blocks(parse_stream(comp.to_bytes()), arena=arena)
            held.append(arena.nbytes)
        assert held[0] == held[1]
        assert held[0] <= 16 * kernels.BATCH_BYTES, held


class TestCorruptionInEveryBatch:
    """Corrupt blocks of the *last* batch must still be rejected."""

    N_BLOCKS = 3 * B + 2  # the last batch holds blocks 3B and 3B+1

    def _stream(self, tail=0):
        data = _blocks("N" * self.N_BLOCKS, tail=tail)
        return compress_blocks(data, 1e-3, BS).to_bytes()

    def test_mid_byte_count_corruption(self, monkeypatch):
        _small_batches(monkeypatch)
        comp = parse_stream(self._stream())
        comp.zsizes[-1] -= 1  # the last block's zsize no longer adds up
        with pytest.raises(PayloadFormatError, match="mid-byte count"):
            decompress_blocks(comp)

    @pytest.mark.parametrize("bit", range(8))
    def test_lead_code_corruption(self, monkeypatch, bit):
        _small_batches(monkeypatch)
        stream = bytearray(self._stream())
        comp = parse_stream(bytes(stream))
        base = len(stream) - len(comp.payload)
        start = int(np.sum(comp.zsizes[:-1], dtype=np.int64))
        stream[base + start + 1 + 4] ^= 1 << bit  # lead byte after R and mu
        with pytest.raises(PayloadFormatError):
            decompress_blocks(parse_stream(bytes(stream)))

    def test_corrupt_nonconstant_tail(self, monkeypatch):
        _small_batches(monkeypatch)
        stream = bytearray(self._stream(tail=5))
        comp = parse_stream(bytes(stream))
        tail_start = len(stream) - int(comp.zsizes[-1])
        stream[tail_start + 1 + 4] ^= 1  # the tail's first lead byte
        with pytest.raises(PayloadFormatError):
            decompress_blocks(parse_stream(bytes(stream)))


# -- payload emission ---------------------------------------------------------

E = 2.0**-20  # absolute bound of the emission tests (an exact power of two)


def _radius_for(req, traits):
    """A block radius whose required length under bound E is *req*."""
    return math.ldexp(1.5, req - traits.se_bits - 1 - 20)


def _walk(rng, radius, bs, traits):
    """*bs* values within +-radius whose successive words share every
    number of leading bytes: exact repeats, fresh draws, and relative
    steps of 2^-k across the whole mantissa."""
    out = np.empty(bs)
    x = rng.uniform(-radius, radius)
    for i in range(bs):
        u = rng.random()
        if u < 0.3:
            x = rng.uniform(-radius, radius)
        elif u >= 0.45:
            step = math.ldexp(x, -int(rng.integers(1, traits.mant_bits + 8)))
            x = min(max(x + step * rng.choice((-1, 1)), -radius), radius)
        out[i] = x
    return out


def _emission_batch(traits, bs, reqs, seed):
    """One block per entry of *reqs*: (body, mu, radius) for encode_batch."""
    rng = np.random.default_rng(seed)
    radius = np.array([_radius_for(r, traits) for r in reqs])
    mu = rng.normal(size=len(reqs)).astype(traits.dtype)
    body = np.stack(
        [mu[i] + _walk(rng, radius[i], bs, traits) for i in range(len(reqs))]
    ).astype(traits.dtype)
    return body, mu, radius


def _reqs(traits, per_level=1):
    """Required lengths covering every nbytes: the SE minimum (nbytes 2;
    nbytes 1 is unreachable because SE > 8 bits), each byte boundary, a
    mid-byte length, and the lossless fullbits."""
    reqs = [traits.se_bits]
    for nb in range(2, traits.itemsize + 1):
        reqs += [8 * nb - 3, 8 * nb] * per_level
    return [max(r, traits.se_bits) for r in reqs]


def _payload_leads(payload, bs, traits):
    """(nbytes, lead codes) parsed back out of one block's payload."""
    nb = int(required_bytes(payload[0]))
    lead_bytes = lead_section_size(bs, traits)
    packed = np.frombuffer(payload, np.uint8)[1 + traits.itemsize :][:lead_bytes]
    return nb, _unpack_lead_rows(packed[None, :], traits.lead_code_bits, bs)[0]


def _encode_and_compare(traits, body, mu, radius):
    """encode_batch vs the scalar block encoder, block by block."""
    m, bs = body.shape
    out = np.empty(payload_bound(m * bs, m, bs, traits), np.uint8)
    zsizes = encode_batch(body, mu, radius, E, traits, out=out, arena=KernelArena())
    assert zsizes.dtype == np.int64 and zsizes.shape == (m,)
    bounds = np.concatenate([[0], np.cumsum(zsizes)])
    payloads = []
    for i in range(m):
        expect = _encode_nonconstant_block(body[i], mu[i], radius[i], E)
        got = out[bounds[i] : bounds[i + 1]].tobytes()
        assert got == expect, f"block {i} (req {expect[0]}) differs"
        payloads.append(got)
    return payloads


TRAITS = (FLOAT32, FLOAT64)


class TestPayloadEmission:
    """The one-compaction encoder against the per-value scalar encoder."""

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    def test_every_lead_nbytes_pair(self, traits):
        bs = 128
        body, mu, radius = _emission_batch(traits, bs, _reqs(traits, 2), seed=7)
        seen = set()
        for payload in _encode_and_compare(traits, body, mu, radius):
            nb, leads = _payload_leads(payload, bs, traits)
            seen.update((int(lead), nb) for lead in leads)
        expect = {
            (lead, nb)
            for nb in range(2, traits.itemsize + 1)
            for lead in range(min(nb, traits.max_lead) + 1)
        }
        assert seen == expect

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    @pytest.mark.parametrize("bs", [1, 7, 128, 4096])
    def test_block_sizes(self, traits, bs):
        reqs = _reqs(traits)[:: 1 if bs < 4096 else 3]  # the scalar oracle is slow
        body, mu, radius = _emission_batch(traits, bs, reqs, seed=bs)
        _encode_and_compare(traits, body, mu, radius)

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    @pytest.mark.parametrize("which", ["min", "lossless"])
    def test_single_block_batch(self, traits, which):
        req = traits.se_bits if which == "min" else traits.fullbits
        body, mu, radius = _emission_batch(traits, 7, [req], seed=3)
        [payload] = _encode_and_compare(traits, body, mu, radius)
        assert int(required_bytes(payload[0])) == (
            2 if which == "min" else traits.itemsize
        )

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    def test_lossless_fallback_forces_mu_to_zero(self, traits):
        body, mu, radius = _emission_batch(traits, 128, [traits.fullbits] * 3, seed=5)
        assert (mu != 0).all()
        for payload in _encode_and_compare(traits, body, mu, radius):
            assert payload[0] == traits.fullbits
            assert payload[1 : 1 + traits.itemsize] == bytes(traits.itemsize)

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    @pytest.mark.parametrize("nb", ["uniform-min", "uniform-max"])
    def test_uniform_nbytes_batch(self, traits, nb):
        req = traits.se_bits if nb == "uniform-min" else traits.fullbits - 3
        body, mu, radius = _emission_batch(traits, 64, [req] * 5, seed=11)
        _encode_and_compare(traits, body, mu, radius)

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    @pytest.mark.parametrize("bs", [1, 7, 128, 4096])
    def test_full_stream_matches_scalar(self, traits, bs):
        reqs = _reqs(traits)[:: 1 if bs < 4096 else 3]
        body, _, _ = _emission_batch(traits, bs, reqs, seed=bs + 1)
        data = np.concatenate([body.reshape(-1), body[0, : bs // 2]])  # ragged tail
        fused = compress_blocks(data, E, bs).to_bytes()
        assert fused == compress_scalar(data, E, bs).to_bytes()
        recon = decompress_blocks(parse_stream(fused))
        assert np.abs(recon.astype(np.float64) - data).max() <= E


# -- batch decoding -----------------------------------------------------------


def _chain_block(rng, req, bs, traits):
    """(values, mu, radius) of a block whose successive words all share
    their leading bytes, so every value after the first copies lead
    bytes from its predecessor and one chain spans the block."""
    radius = _radius_for(req, traits)
    step = math.ldexp(1.0, -(traits.mant_bits - 6))
    sign = rng.choice((-1.0, 1.0))
    values = sign * radius / 2 * (1 + step * np.arange(bs))
    return values, 0.0, radius


def _scan_batch(traits, bs, kinds, seed):
    """One block per entry of *kinds*: ``chain``, ``walk`` (mixed leads
    at a random nbytes), ``lossless`` (req = fullbits) or ``min``."""
    rng = np.random.default_rng(seed)
    reqs = _reqs(traits)
    rows, mus, radii = [], [], []
    for kind in kinds:
        req = {"lossless": traits.fullbits, "min": traits.se_bits}.get(
            kind, reqs[int(rng.integers(len(reqs)))]
        )
        if kind == "chain":
            values, mu, radius = _chain_block(rng, req, bs, traits)
        else:
            mu, radius = rng.normal(), _radius_for(req, traits)
            values = mu + _walk(rng, radius, bs, traits)
        rows.append(values)
        mus.append(mu)
        radii.append(radius)
    return (
        np.array(rows).astype(traits.dtype),
        np.array(mus).astype(traits.dtype),
        np.array(radii),
    )


def _encoded(traits, body, mu, radius):
    """(payload, bounds) of one encode_batch call: block i is
    ``payload[bounds[i]:bounds[i + 1]]``."""
    m, bs = body.shape
    out = np.empty(payload_bound(m * bs, m, bs, traits), np.uint8)
    zsizes = encode_batch(body, mu, radius, E, traits, out=out, arena=KernelArena())
    bounds = np.concatenate([[0], np.cumsum(zsizes)])
    return out[: bounds[-1]].copy(), bounds


def _decode(payload, bounds, bs, traits, arena=None):
    return decode_batch(
        payload, bounds[:-1], bs, traits, ends=bounds[1:],
        arena=arena if arena is not None else KernelArena(),
    )


def _assert_matches_scalar(payload, bounds, bs, traits):
    got = _decode(payload, bounds, bs, traits)
    assert got.shape == (bounds.size - 1, bs) and got.dtype == traits.dtype
    for i in range(bounds.size - 1):
        block = payload[bounds[i] : bounds[i + 1]].tobytes()
        expect = _decode_nonconstant_block(block, bs, traits)
        assert got[i].tobytes() == expect.tobytes(), f"block {i} differs"


class TestScanDecoder:
    """decode_batch against the per-value scalar decoder, bit for bit."""

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    @pytest.mark.parametrize("bs", [2, 100, 128, 129])
    def test_chains_span_whole_blocks(self, traits, bs):
        kinds = ["chain", "walk", "chain", "lossless", "chain", "min"]
        body, mu, radius = _scan_batch(traits, bs, kinds, seed=bs)
        payload, bounds = _encoded(traits, body, mu, radius)
        for i, kind in enumerate(kinds):
            _, leads = _payload_leads(payload[bounds[i] :].tobytes(), bs, traits)
            if kind == "chain":  # every round of the scan has work
                assert leads[1:].min() >= 1, leads
        _assert_matches_scalar(payload, bounds, bs, traits)

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    def test_scatter_row_groups(self, traits):
        # 130 blocks of 512 values hold > 256 KiB of records, so the
        # scatter walks several row groups.
        kinds = ["chain", "walk", "lossless", "min", "walk"] * 26
        body, mu, radius = _scan_batch(traits, 512, kinds, seed=21)
        _assert_matches_scalar(*_encoded(traits, body, mu, radius), 512, traits)

    @settings(max_examples=60, deadline=None)
    @given(
        traits=st.sampled_from(TRAITS),
        bs=st.sampled_from([1, 3, 7, 64, 100, 127, 128, 129, 255]),
        kinds=st.lists(
            st.sampled_from(["chain", "walk", "lossless", "min"]),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_scalar_property(self, traits, bs, kinds, seed):
        body, mu, radius = _scan_batch(traits, bs, kinds, seed)
        _assert_matches_scalar(*_encoded(traits, body, mu, radius), bs, traits)

    @pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
    def test_second_decode_reuses_the_arena(self, traits):
        body, mu, radius = _scan_batch(traits, 128, ["walk", "chain"] * 3, seed=9)
        payload, bounds = _encoded(traits, body, mu, radius)
        arena = KernelArena()
        first = _decode(payload, bounds, 128, traits, arena)
        keys, held = set(arena._bufs), arena.nbytes
        second = _decode(payload, bounds, 128, traits, arena)
        assert set(arena._bufs) == keys and arena.nbytes == held
        assert first.tobytes() == second.tobytes()

    def test_decode_shares_the_encoders_buffers(self):
        arena = KernelArena()
        comp = compress_blocks(_field(np.float32), 1e-3, 128, arena=arena)
        keys, held = set(arena._bufs), arena.nbytes
        decompress_blocks(parse_stream(comp.to_bytes()), arena=arena)
        assert set(arena._bufs) == keys and arena.nbytes == held


@pytest.mark.parametrize("traits", TRAITS, ids=["f32", "f64"])
class TestDecodeBatchRejects:
    """Corrupt batches raise PayloadFormatError before the scatter, never
    a numpy shape or index error."""

    BS = 64

    def _batch(self, traits):
        body, mu, radius = _scan_batch(traits, self.BS, ["min", "walk", "chain"], 4)
        return _encoded(traits, body, mu, radius)

    @pytest.mark.parametrize("delta", [-1, +1])
    def test_required_length_out_of_range(self, traits, delta):
        payload, bounds = self._batch(traits)
        payload[bounds[1]] = traits.se_bits - 1 if delta < 0 else traits.fullbits + 1
        with pytest.raises(PayloadFormatError, match="required length"):
            _decode(payload, bounds, self.BS, traits)

    def test_lead_exceeds_nbytes(self, traits):
        payload, bounds = self._batch(traits)
        assert payload[0] == traits.se_bits  # block 0 keeps 2 bytes a value
        payload[1 + traits.itemsize] = 0xFF  # leads of max_lead > 2
        with pytest.raises(PayloadFormatError, match="leading count exceeds"):
            _decode(payload, bounds, self.BS, traits)

    def test_mid_byte_count_disagrees(self, traits):
        payload, bounds = self._batch(traits)
        bounds[-1] -= 1  # the last block is one mid-byte short
        with pytest.raises(PayloadFormatError, match="mid-byte count"):
            _decode(payload, bounds, self.BS, traits)

    @pytest.mark.parametrize("cut", [1, 2, "last-block"])
    def test_payload_slice_shorter_than_accounting(self, traits, cut):
        payload, bounds = self._batch(traits)
        keep = bounds[-2] + 1 if cut == "last-block" else payload.size - cut
        with pytest.raises(PayloadFormatError, match="shorter"):
            _decode(payload[:keep], bounds, self.BS, traits)

    def test_block_shorter_than_its_fixed_sections(self, traits):
        payload, _ = self._batch(traits)
        head = 1 + traits.itemsize + lead_section_size(self.BS, traits)
        with pytest.raises(PayloadFormatError, match="fixed sections"):
            _decode(payload, np.array([0, head - 1]), self.BS, traits)

    def test_blocks_must_be_back_to_back(self, traits):
        payload, bounds = self._batch(traits)
        with pytest.raises(ValueError, match="back-to-back"):
            decode_batch(payload, bounds[:-1], self.BS, traits, ends=bounds[1:] - 1)
