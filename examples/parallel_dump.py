#!/usr/bin/env python
"""Parallel checkpoint dump/load with compression (the Figure 16 study).

Combines three pieces of the library: the thread-parallel SZx codec
(repro.parallel), measured compressor characteristics, and the MPI/PFS
simulator (repro.iosim), to answer the operational question the paper's
Section 7 closes with: *how much faster does a compressed checkpoint
round trip get with an ultrafast compressor?*

Run:  python examples/parallel_dump.py
"""

import os
import time

import numpy as np

from repro.baselines import sz_compress, sz_decompress
from repro.codec import CodecConfig, SZxCodec
from repro.datasets import get_application
from repro.iosim import THETAGPU_PFS, simulate_dump, simulate_load

REL = 1e-3
RANKS = (64, 256, 1024)
BYTES_PER_RANK = 512e6


def measure(codec_compress, codec_decompress, data):
    t0 = time.perf_counter()
    stream = codec_compress(data)
    t1 = time.perf_counter()
    codec_decompress(stream)
    t2 = time.perf_counter()
    return (
        data.nbytes / 1e6 / (t1 - t0),
        data.nbytes / 1e6 / (t2 - t1),
        data.nbytes / len(stream),
    )


def main():
    workers = os.cpu_count() or 1
    field = get_application("Nyx", "small").field("temperature")
    print(f"measuring on Nyx temperature {field.shape} with {workers} thread(s)\n")

    codec = SZxCodec(CodecConfig(err_bound=REL, mode="rel", workers=workers))
    szx = measure(codec.compress, codec.decompress, field)
    sz = measure(
        lambda d: sz_compress(d, REL, mode="rel"),
        sz_decompress,
        field,
    )
    print(f"{'':8} {'comp MB/s':>10} {'decomp MB/s':>12} {'CR':>7}")
    print(f"{'SZx':8} {szx[0]:>10.1f} {szx[1]:>12.1f} {szx[2]:>7.2f}")
    print(f"{'SZ':8} {sz[0]:>10.1f} {sz[1]:>12.1f} {sz[2]:>7.2f}")

    print(f"\nsimulated dump+load of {BYTES_PER_RANK/1e6:.0f} MB/rank on "
          f"{THETAGPU_PFS.name}:")
    print(f"{'ranks':>6} {'SZx dump':>9} {'SZ dump':>8} {'SZx load':>9} {'SZ load':>8}")
    for n in RANKS:
        d_szx = simulate_dump(BYTES_PER_RANK, n, szx[0], szx[2], THETAGPU_PFS)
        d_sz = simulate_dump(BYTES_PER_RANK, n, sz[0], sz[2], THETAGPU_PFS)
        l_szx = simulate_load(BYTES_PER_RANK, n, szx[1], szx[2], THETAGPU_PFS)
        l_sz = simulate_load(BYTES_PER_RANK, n, sz[1], sz[2], THETAGPU_PFS)
        print(f"{n:>6} {d_szx.total_s:>8.1f}s {d_sz.total_s:>7.1f}s "
              f"{l_szx.total_s:>8.1f}s {l_sz.total_s:>7.1f}s")

    print("\n(the faster compressor wins the end-to-end pipeline whenever "
          "compression, not the filesystem, is the bottleneck — the "
          "paper's Figure 16 regime)")


if __name__ == "__main__":
    main()
