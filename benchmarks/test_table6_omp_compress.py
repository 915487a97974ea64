"""Table 6 — multicore compression throughput (GB/s).

Two layers (see repro.parallel.scaling): the thread-parallel codec is
*measured* with the host's cores, and the 64-thread GB/s columns are
*projected* from measured single-core throughput through per-compressor
Amdahl curves calibrated to the paper's own single-core -> 64-thread
ratios.  The reproduction container exposes one core, so the projection
carries the table; the byte-identity of the parallel codec is what the
measurement layer certifies (plus tests/parallel).

Asserted shape: omp-SZx has the best multicore throughput everywhere
(paper: 3.4~6.8x vs omp-ZFP, 2.4~4.8x vs omp-SZ).
"""

import os
import time

from repro.bench import format_table
from repro.codec import CodecConfig, SZxCodec
from repro.parallel.scaling import modeled_throughput

from _common import REL_BOUNDS, all_apps, app_fields, save_cells

from test_table4_compress_throughput import measure

N_THREADS = 64
N_PROCS = 4
_KEYS = {"SZx": "szx", "SZ": "sz", "ZFP": "zfp"}


def measure_backend(fn, *args, repeats=3, **kw):
    """Best-of-repeats wall time of ``fn(*args, **kw)``; (seconds, result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, result


def pool_codec(workers, backend="thread"):
    """The codec at REL 1e-3 on *backend* with *workers* pool workers."""
    return SZxCodec(CodecConfig(
        err_bound=1e-3, mode="rel", workers=workers, backend=backend
    ))


def project(single_core):
    """Project Table 4/5-style measurements to N_THREADS, in GB/s."""
    return {
        (comp, rel, app): modeled_throughput(_KEYS[comp], mb_s, N_THREADS) / 1e3
        for (comp, rel, app), mb_s in single_core.items()
    }


def render(table, title):
    rows = []
    for comp in ("SZx", "SZ", "ZFP"):
        for rel in REL_BOUNDS:
            rows.append(
                (
                    f"omp-{comp} REL={rel:g}",
                    *[table[(comp, rel, app)] for app in all_apps()],
                )
            )
    return format_table(title, list(all_apps()), rows)


def check_szx_best(table):
    for app in all_apps():
        for rel in REL_BOUNDS:
            szx = table[("SZx", rel, app)]
            second = max(table[("SZ", rel, app)], table[("ZFP", rel, app)])
            assert szx > second, (app, rel)


def test_table6_omp_compress(benchmark):
    data = app_fields("Miranda", limit=1)[0][1]
    n_host = os.cpu_count() or 1
    thread_codec = pool_codec(n_host)
    benchmark(thread_codec.compress, data)

    # Process-backend column: measured (not projected) throughput of the
    # shared-memory pool on the same field, plus byte-identity with the
    # thread backend — the cross-backend guarantee, re-checked at bench
    # scale.
    thread_stream = thread_codec.compress(data)
    proc_s, proc_stream = measure_backend(
        pool_codec(N_PROCS, "process").compress, data
    )
    assert proc_stream == thread_stream, "process backend stream diverged"
    proc_mb_s = data.nbytes / 1e6 / proc_s
    print(
        f"\nprocess backend (measured, {N_PROCS} procs): "
        f"{proc_mb_s:.1f} MB/s compress, byte-identical to thread backend"
    )

    single = measure("compress")
    table = project(single)
    text = render(
        table,
        f"Table 6 — multicore compression throughput (GB/s), "
        f"{N_THREADS} threads projected from measured single-core "
        f"(host cores: {n_host})",
    )
    print("\n" + text)
    save_cells(
        "table6_omp_compress", table, text,
        meta={"direction": "compress", "unit": "GB/s",
              "threads": N_THREADS, "host_cores": n_host,
              "process_backend": {
                  "n_procs": N_PROCS, "mb_s": proc_mb_s,
                  "byte_identical": True,
              }},
    )
    check_szx_best(table)
