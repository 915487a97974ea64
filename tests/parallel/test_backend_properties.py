"""Property-style sweeps: bound holds, offsets are real, on both pools.

A seeded generator draws random (shape, strides, dtype, mode, bound,
block size, workers) configurations and checks the properties the
format guarantees rather than example outputs:

* the pointwise error bound holds for the thread AND process backends
  (and their reconstructions match the serial one exactly);
* the ``zsize_array`` prefix sum names the *actual* payload section
  boundaries — every non-constant block decodes correctly from its own
  ``offsets[j]:offsets[j+1]`` slice alone, which is the invariant both
  parallel decompressors stake their seeks on.
"""

import numpy as np
import pytest

from repro.codec import CodecConfig, SZxCodec
from repro.core.api import compress, decompress, resolve_error_bound_info
from repro.core.header import StreamHeader
from repro.core.kernels import decompress_blocks
from repro.core.stream import StreamComponents, parse_stream, payload_offsets


def draw_cases(seed=7, n_cases=12):
    """Deterministic random configuration sweep."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(3, 24)) for _ in range(ndim))
        cases.append({
            "id": i,
            "shape": shape,
            "dtype": [np.float32, np.float64][int(rng.integers(2))],
            "mode": ["abs", "rel"][int(rng.integers(2))],
            "err_bound": float(10.0 ** rng.uniform(-5, -1)),
            "block_size": int(rng.choice([32, 64, 128, 256])),
            "workers": int(rng.integers(2, 7)),
            "strided": bool(rng.integers(2)),
            "scale": float(10.0 ** rng.uniform(-2, 3)),
            "seed": int(rng.integers(2**31)),
        })
    return cases


def make_data(case):
    rng = np.random.default_rng(case["seed"])
    shape = case["shape"]
    base_shape = ((shape[0] * 2,) + shape[1:]) if case["strided"] else shape
    base = (
        np.cumsum(rng.normal(size=int(np.prod(base_shape))))
        .astype(case["dtype"]) * case["scale"]
    ).reshape(base_shape)
    if case["strided"]:
        # Slice the leading axis of a double-height base: a genuinely
        # non-contiguous view of the target shape (codecs must copy).
        view = base[::2]
        assert view.shape == shape and not view.flags.c_contiguous
        return view
    return base


CASES = draw_cases()


@pytest.mark.parametrize("case", CASES, ids=[str(c["id"]) for c in CASES])
class TestRandomizedRoundtrip:
    def test_bound_holds_on_both_backends(self, case):
        data = make_data(case)
        abs_bound = resolve_error_bound_info(
            data, case["err_bound"], case["mode"]
        ).abs_bound
        serial = compress(
            data, case["err_bound"], mode=case["mode"],
            block_size=case["block_size"],
        )
        recon_serial = decompress(serial)

        for name in ("thread", "process"):
            codec = SZxCodec(CodecConfig(
                err_bound=case["err_bound"], mode=case["mode"],
                block_size=case["block_size"], workers=case["workers"],
                backend=name,
            ))
            stream = codec.compress(data)
            assert stream == serial, f"{name} stream diverged"
            recon = codec.decompress(stream)
            assert recon.shape == data.shape, name
            assert np.array_equal(recon, recon_serial), name
            err = np.abs(recon.astype(np.float64) - data.astype(np.float64))
            assert float(err.max(initial=0.0)) <= abs_bound * (1 + 1e-12), name

    def test_zsize_offsets_are_section_boundaries(self, case):
        data = make_data(case)
        comp = parse_stream(compress(
            data, case["err_bound"], mode=case["mode"],
            block_size=case["block_size"],
        ))
        header = comp.header
        offsets = payload_offsets(comp.zsizes)
        assert int(offsets[-1]) == len(comp.payload)

        full = decompress_blocks(comp).reshape(-1)
        block_size = header.block_size
        nonconst_indices = np.flatnonzero(comp.nonconst_mask)
        for j, block in enumerate(nonconst_indices):
            lo = int(block) * block_size
            hi = min(lo + block_size, header.n)
            section = comp.payload[int(offsets[j]) : int(offsets[j + 1])]
            sub = StreamComponents(
                header=StreamHeader(
                    traits=header.traits,
                    n=hi - lo,
                    block_size=block_size,
                    err_bound=header.err_bound,
                    n_blocks=1,
                    n_const=0,
                    shape=(),
                ),
                nonconst_mask=np.array([True]),
                const_mu=np.empty(0, dtype=header.traits.dtype),
                zsizes=comp.zsizes[j : j + 1],
                payload=section,
            )
            assert np.array_equal(decompress_blocks(sub), full[lo:hi]), (
                f"block {block}: payload slice {offsets[j]}:{offsets[j + 1]} "
                f"is not a self-contained section"
            )
