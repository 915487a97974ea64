"""Named fixed-seed benchmark suites recorded into the perf ledger.

A suite is a list of workload cells (dataset x bound x workers x
operation) small enough to run in CI yet covering the kernels the
paper's claim rests on.  Everything is deterministic in ``seed``: the
synthetic fields, the codec configuration, and therefore the
compressed bytes — only the wall times vary run to run, which is
exactly what the regression engine models.

The codec and dataset layers are imported inside :func:`run_suite` so
importing :mod:`repro.observe` stays dependency-light.
"""

from __future__ import annotations

from .record import EnvFingerprint, PerfRecord, Workload

#: Default repeats per cell; the spread feeds the noise tolerance.
DEFAULT_REPEATS = 3


def _smoke_cells():
    """The core-kernel smoke grid: single-stream fused kernels + pools.

    ``grf-bs32`` exercises the batched small-block encode path (dispatch
    amortization is the point of the fused kernels); ``grf-f64``
    exercises the 8-byte-word / 3-bit-lead-code kernel variants.
    """
    bs = 128  # DEFAULT_BLOCK_SIZE, spelled out so cells stay explicit
    return [
        # (case stem, field kind, shape, rel, workers, backend, block_size)
        ("grf", "grf", (64, 64, 64), 1e-3, 1, "thread", bs),
        ("wave", "wave", (64, 64, 64), 1e-3, 1, "thread", bs),
        ("grf-tight", "grf", (64, 64, 64), 1e-4, 1, "thread", bs),
        ("grf-bs32", "grf", (64, 64, 64), 1e-3, 1, "thread", 32),
        ("grf-f64", "grf64", (48, 48, 48), 1e-3, 1, "thread", bs),
        ("grf-omp2", "grf", (64, 64, 64), 1e-3, 2, "thread", bs),
        ("grf-proc2", "grf", (64, 64, 64), 1e-3, 2, "process", bs),
        ("grf-proc4", "grf", (64, 64, 64), 1e-3, 4, "process", bs),
    ]


SUITES = {
    "smoke": _smoke_cells,
}


def _make_field(kind: str, shape, seed: int):
    import numpy as np

    from ...datasets.synthetic import gaussian_random_field, wave_field

    if kind == "grf":
        return gaussian_random_field(shape, slope=3.0, seed=seed)
    if kind == "grf64":
        return gaussian_random_field(shape, slope=3.0, seed=seed).astype(
            np.float64
        )
    if kind == "wave":
        return wave_field(shape, seed=seed)
    raise ValueError(f"unknown field kind {kind!r}")


def _time_once(fn, *args):
    import time as _time

    t0 = _time.perf_counter()
    result = fn(*args)
    return _time.perf_counter() - t0, result


def run_suite(
    name: str,
    *,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
    profile: bool = False,
    slowdown_s: float = 0.0,
) -> list[PerfRecord]:
    """Run suite *name*; return one :class:`PerfRecord` per (cell, op).

    Repeats are *interleaved*: the suite makes ``repeats`` full passes
    over the cells, timing each (cell, op) once per pass, so one cell's
    repeats are spread across the whole run.  A transient contention
    window (another process stealing the core for a second) then taxes
    at most one pass of each cell instead of every repeat of whichever
    cell it happened to land on, and the best-of-repeats throughput
    stays representative — back-to-back repeats made identical runs
    look 25% apart on shared CI runners.

    *slowdown_s* injects a busy-wait into every compress call — the
    test fixture behind "an artificially slowed kernel is flagged as a
    regression"; it is never set in production paths.
    """
    from ...codec import CodecConfig, SZxCodec

    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    env = EnvFingerprint.capture()

    # -- set up every cell, warm up once (lazy imports, dispatch) --------
    cells = []
    for case_stem, kind, shape, rel, workers, backend, bs in SUITES[name]():
        data = _make_field(kind, shape, seed)
        cfg = CodecConfig(
            err_bound=rel, mode="rel", block_size=bs,
            workers=workers, backend=backend,
        )
        codec = SZxCodec(cfg)

        def _compress(codec=codec, data=data):
            if slowdown_s:
                import time as _time

                deadline = _time.perf_counter() + slowdown_s
                while _time.perf_counter() < deadline:
                    pass
            return codec.compress(data)

        stream = _compress()
        recon = codec.decompress(stream)
        assert recon.size == data.size
        cells.append({
            "stem": case_stem, "kind": kind, "rel": rel,
            "workers": workers, "backend": backend, "block_size": bs,
            "data": data, "codec": codec,
            "compress": _compress, "stream": stream,
            "comp_times": [], "deco_times": [],
        })

    # -- interleaved measurement passes ----------------------------------
    for _ in range(repeats):
        for cell in cells:
            dt, stream = _time_once(cell["compress"])
            cell["comp_times"].append(dt)
            cell["stream"] = stream
            dt, _ = _time_once(cell["codec"].decompress, stream)
            cell["deco_times"].append(dt)

    # -- one PerfRecord per (cell, op) -----------------------------------
    records: list[PerfRecord] = []
    for cell in cells:
        data, stream = cell["data"], cell["stream"]
        common = dict(
            suite=name, dataset=cell["kind"], dtype=str(data.dtype),
            shape=data.shape, n_values=int(data.size),
            err_bound=cell["rel"], mode="rel", block_size=cell["block_size"],
            threads=cell["workers"],
            backend=cell["backend"], seed=seed,
        )

        comp_profile = None
        if profile:
            from .profile import profile as _run_profiled

            _, prof = _run_profiled(cell["compress"])
            comp_profile = prof.to_dict()
        records.append(PerfRecord(
            workload=Workload(
                case=f"compress/{cell['stem']}", operation="compress", **common
            ),
            metrics={
                "throughput_mb_s": data.nbytes / 1e6 / min(cell["comp_times"]),
                "ratio": data.nbytes / len(stream),
                "bytes_out": len(stream),
            },
            repeats_s=cell["comp_times"],
            profile=comp_profile,
            env=env,
        ))
        records.append(PerfRecord(
            workload=Workload(
                case=f"decompress/{cell['stem']}", operation="decompress",
                **common
            ),
            metrics={
                "throughput_mb_s": data.nbytes / 1e6 / min(cell["deco_times"]),
                "ratio": data.nbytes / len(stream),
            },
            repeats_s=cell["deco_times"],
            env=env,
        ))

    return records
