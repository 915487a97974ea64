"""Ablation: kernel throughput vs batch size (the chain's ``BATCH_BYTES``).

The kernel chain feeds ``encode_batch``/``decode_batch`` fixed-size
batches of blocks, so every scratch array stays cache-sized whatever the
input size.  This sweep picks that size: it calls the two batch kernels
directly on row slices of one 256^3 Gaussian random field (64 MiB
float32, REL 1e-3, block 128 -- the perfbench ``field-64m`` input), for
batches of 128 KiB to 16 MiB of input and for the whole input as one
batch.  Every batching must emit the same payload and reconstruction.
Each size's time is its best of ``REPEATS`` passes, taken round-robin
across the sizes.
"""

import time

import numpy as np

from repro.bench import format_table, save_result
from repro.core.api import resolve_error_bound
from repro.core.blocks import BlockLayout, block_stats
from repro.core.constants import traits_for
from repro.core.kernels import (
    BATCH_BYTES,
    KernelArena,
    decode_batch,
    encode_batch,
)
from repro.core.stream import payload_bound, payload_offsets
from repro.datasets import synthetic

BLOCK_SIZE = 128
BATCH_KIB = (128, 256, 512, 1024, 2048, 4096, 16384)
REPEATS = 3


def run_pass(body, mu, radius, abs_bound, traits, step, arena):
    """Encode then decode *body* once in *step*-block batches, timed."""
    m, bs = body.shape
    payload = np.empty(payload_bound(body.size, m, bs, traits), np.uint8)
    zsizes = np.empty(m, dtype=np.int64)
    pos = 0
    t0 = time.perf_counter()
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        z = encode_batch(
            body[lo:hi], mu[lo:hi], radius[lo:hi], abs_bound, traits,
            out=payload[pos:], arena=arena,
        )
        zsizes[lo:hi] = z
        pos += int(z.sum())
    t1 = time.perf_counter()
    offsets = payload_offsets(zsizes)
    recon = np.empty_like(body)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        bounds = offsets[lo : hi + 1] - offsets[lo]
        recon[lo:hi] = decode_batch(
            payload[offsets[lo] : offsets[hi]], bounds[:-1], bs, traits,
            ends=bounds[1:], arena=arena,
        )
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, payload[:pos].tobytes(), recon


def test_ablation_kernel_batch(benchmark):
    field = synthetic.gaussian_random_field((256, 256, 256), slope=3.0, seed=1)
    flat = field.reshape(-1)
    traits = traits_for(flat.dtype)
    abs_bound = resolve_error_bound(field, 1e-3, "rel")
    mu, radius = block_stats(flat, BlockLayout(flat.size, BLOCK_SIZE))
    keep = radius > abs_bound
    assert keep.all()  # every block goes through the batch kernels
    body = flat.reshape(-1, BLOCK_SIZE)
    block_bytes = BLOCK_SIZE * traits.itemsize
    step_1m = (1 << 20) // block_bytes
    benchmark.pedantic(
        run_pass, (body, mu, radius, abs_bound, traits, step_1m, KernelArena()),
        rounds=1, iterations=1,
    )

    # The whole input first, then every batch size; each keeps its own
    # warm arena.  The repeats go round-robin over the sizes, so drift of
    # the host hits every size alike instead of deciding the ranking.
    sizes = [None, *BATCH_KIB]
    steps = [body.shape[0]] + [kib * 1024 // block_bytes for kib in BATCH_KIB]
    arenas = [KernelArena() for _ in steps]
    best = [(float("inf"), float("inf")) for _ in steps]
    ref_payload = ref_recon = None
    for _ in range(REPEATS):
        for i, (kib, step) in enumerate(zip(sizes, steps)):
            t_enc, t_dec, payload, recon = run_pass(
                body, mu, radius, abs_bound, traits, step, arenas[i]
            )
            best[i] = (min(best[i][0], t_enc), min(best[i][1], t_dec))
            if ref_payload is None:
                ref_payload, ref_recon = payload, recon
                continue
            assert payload == ref_payload, kib
            assert np.array_equal(recon.view(np.uint32), ref_recon.view(np.uint32))
    arenas.clear()

    mb = flat.nbytes / 1e6
    whole_c, whole_d = mb / best[0][0], mb / best[0][1]
    rows, speed = [], {}
    for kib, step, (t_enc, t_dec) in zip(BATCH_KIB, steps[1:], best[1:]):
        c_mb, d_mb = mb / t_enc, mb / t_dec
        speed[kib * 1024] = (c_mb, d_mb)
        rows.append((f"{kib} KiB", step, c_mb, d_mb, c_mb / whole_c, d_mb / whole_d))
    rows.append(("whole input", body.shape[0], whole_c, whole_d, 1.0, 1.0))

    text = format_table(
        "Ablation — kernel batch size vs throughput "
        f"(256^3 GRF f32, REL 1e-3, bs={BLOCK_SIZE}; chain uses "
        f"{BATCH_BYTES // 1024} KiB)",
        ["blocks", "comp MB/s", "decomp MB/s", "comp x", "decomp x"],
        rows,
    )
    print("\n" + text)
    save_result("ablation_kernel_batch", text)

    # The chain's batch size must beat one input-sized batch both ways.
    c_mb, d_mb = speed[BATCH_BYTES]
    assert c_mb > whole_c and d_mb > whole_d, (speed[BATCH_BYTES], whole_c, whole_d)
