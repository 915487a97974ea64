"""Table 7 — multicore decompression throughput (GB/s).

Same methodology as Table 6.  The paper's ZFP row is n/a (omp-ZFP has no
multithreaded decompressor), which this table reproduces by omitting the
projection for ZFP.  Asserted shape: omp-SZx beats omp-SZ everywhere
(paper: 2.3~4.6x).
"""

import os

import numpy as np

from repro.bench import format_table

from _common import REL_BOUNDS, all_apps, app_fields, save_cells

from test_table4_compress_throughput import measure
from test_table6_omp_compress import (
    N_PROCS,
    N_THREADS,
    measure_backend,
    pool_codec,
    project,
)


def test_table7_omp_decompress(benchmark):
    data = app_fields("Miranda", limit=1)[0][1]
    n_host = os.cpu_count() or 1
    thread_codec = pool_codec(n_host)
    stream = thread_codec.compress(data)
    benchmark(thread_codec.decompress, stream)

    # Process-backend column: measured shared-memory-pool decode, checked
    # for exact equality with the thread backend's reconstruction.
    proc_s, proc_out = measure_backend(
        pool_codec(N_PROCS, "process").decompress, stream
    )
    assert np.array_equal(proc_out, thread_codec.decompress(stream))
    proc_mb_s = data.nbytes / 1e6 / proc_s
    print(
        f"\nprocess backend (measured, {N_PROCS} procs): "
        f"{proc_mb_s:.1f} MB/s decompress, identical reconstruction"
    )

    single = measure("decompress")
    table = project(single)

    rows = []
    for comp in ("SZx", "SZ"):
        for rel in REL_BOUNDS:
            rows.append(
                (
                    f"omp-{comp} REL={rel:g}",
                    *[table[(comp, rel, app)] for app in all_apps()],
                )
            )
    for rel in REL_BOUNDS:
        rows.append((f"omp-ZFP REL={rel:g}", *["n/a"] * len(list(all_apps()))))

    text = format_table(
        f"Table 7 — multicore decompression throughput (GB/s), "
        f"{N_THREADS} threads projected from measured single-core "
        f"(host cores: {n_host}; ZFP n/a: no multithreaded decompressor)",
        list(all_apps()),
        rows,
    )
    print("\n" + text)
    save_cells(
        "table7_omp_decompress", table, text,
        meta={"direction": "decompress", "unit": "GB/s",
              "threads": N_THREADS, "host_cores": n_host,
              "zfp": "n/a (no multithreaded decompressor)",
              "process_backend": {
                  "n_procs": N_PROCS, "mb_s": proc_mb_s,
                  "identical_reconstruction": True,
              }},
    )

    for app in all_apps():
        for rel in REL_BOUNDS:
            assert table[("SZx", rel, app)] > table[("SZ", rel, app)], (app, rel)
