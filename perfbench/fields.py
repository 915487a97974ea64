"""Workloads ``field-64m`` and ``apps-small``: codec throughput on fields.

One pass compresses and decompresses every input field with one worker
and with ``nproc`` workers on the default (thread) backend, from a
single caller.  Every statistic uses each (field, operation) pair's
median latency over the passes of a run.
"""

from __future__ import annotations

import time

import numpy as np

from repro import observe
from repro.codec import CodecConfig, SZxCodec
from repro.core.api import resolve_error_bound
from repro.core.kernels import compress_blocks, decompress_blocks
from repro.core.stream import parse_stream
from repro.datasets import synthetic
from repro.datasets.registry import all_applications

from .common import NPROC, SPAN_METRICS, median, pct, run_passes, self_times, tail, walls

REL_BOUND = 1e-3
BLOCK_SIZE = 128
#: Values compressed during warm-up: enough to run every lazy import,
#: arena and pool path once, far too few to pre-size the arenas.
WARM_VALUES = 1 << 15

OPS = ("compress", "decompress", "compress_par", "decompress_par")

# Benchmark-owned spans around calls into each layer's public function.
SPAN_COMPRESS = "bench.codec.compress"
SPAN_DECOMPRESS = "bench.codec.decompress"
SPAN_OMP_COMPRESS = "bench.parallel.omp.compress"
SPAN_OMP_DECOMPRESS = "bench.parallel.omp.decompress"
SPAN_KERNEL_COMPRESS = "bench.core.kernels.compress_blocks"
SPAN_KERNEL_DECOMPRESS = "bench.core.kernels.decompress_blocks"


def app_fields(seed: int, registry_scale: str, pick=None):
    """Yield ``(name, array)`` for the fields of the six applications.

    *pick* maps an application's field count to the indices to generate
    (all when None).  Seeds derive from *seed*, the application and the
    field index.
    """
    for a, app in enumerate(all_applications(registry_scale)):
        indices = range(len(app.specs)) if pick is None else pick(len(app.specs))
        for i in indices:
            data = app.specs[i].generate(seed=seed * 10_000 + a * 100 + i)
            if app.name == "Miranda":
                # The SDRBench originals are double precision.
                data = data.astype(np.float64)
            yield f"{app.name}/{app.specs[i].name}", data


def make_inputs(workload: str, seed: int, scale: str) -> list:
    """``[(name, array)]`` for *workload*, deterministic in *seed*.

    *scale* ``"probe"`` gives the one small field a set-up probe needs.
    """
    if workload == "field-64m":
        n = 256 if scale == "full" else 32
        field = synthetic.gaussian_random_field((n, n, n), slope=3.0, seed=seed)
        return [(f"grf{n}", field)]
    fields = app_fields(seed, "small" if scale == "full" else "tiny")
    return [next(fields)] if scale == "probe" else list(fields)


class FieldBench:
    """Runs one field workload; see the module docstring."""

    def __init__(self, inputs: list, inject=None):
        self.inputs = inputs
        self.inject = inject
        self.bounds = [resolve_error_bound(x, REL_BOUND, "rel") for _, x in inputs]
        self.c1 = self.cn = None
        self.streams = None

    def setup(self) -> None:
        config = CodecConfig(err_bound=REL_BOUND, mode="rel", block_size=BLOCK_SIZE)
        self.c1 = SZxCodec(config)
        self.cn = SZxCodec(config.replace(workers=NPROC))
        warm = np.resize(self.inputs[0][1].reshape(-1), WARM_VALUES)
        for codec in (self.c1, self.cn):
            codec.decompress(codec.compress(warm))

    def close(self) -> None:
        pass

    def input_info(self) -> dict:
        return {
            "input_bytes": sum(int(x.nbytes) for _, x in self.inputs),
            "inputs": [[name, str(x.dtype), list(x.shape)] for name, x in self.inputs],
        }

    # -- one pass -----------------------------------------------------------

    def run_pass(self, gate, *, kernels: bool = False) -> dict:
        """Every op on every input once; latencies (s) per op per input.

        With *kernels*, also call the kernel layer's public entry points
        directly (each in its own benchmark span).
        """
        lat = {op: [None] * len(self.inputs) for op in OPS}
        sizes = [None] * len(self.inputs)
        streams = [None] * len(self.inputs)
        pc = time.perf_counter
        for i, (name, x) in enumerate(self.inputs):
            bound = self.bounds[i]
            gate.attempted += 4
            try:
                t0 = pc()
                with observe.span(SPAN_COMPRESS):
                    s1 = self.c1.compress(x)
                t1 = pc()
                with observe.span(SPAN_DECOMPRESS):
                    o1 = self.c1.decompress(s1)
                t2 = pc()
                with observe.span(SPAN_OMP_COMPRESS):
                    sn = self.cn.compress(x)
                t3 = pc()
                with observe.span(SPAN_OMP_DECOMPRESS):
                    on = self.cn.decompress(sn)
                t4 = pc()
            except Exception as exc:  # noqa: BLE001 - the gate reports it
                gate.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            if self.inject is not None:
                sn, o1 = self.inject.stream(sn), self.inject.recon(o1, bound)
            gate.same(f"{name}: {NPROC}-worker stream vs 1-worker", sn, s1)
            gate.bound(f"{name}: 1-worker decompress", x, o1, bound)
            gate.bound(f"{name}: {NPROC}-worker decompress", x, on, bound)
            for op, dt in zip(OPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                lat[op][i] = dt
            sizes[i] = len(s1)
            streams[i] = s1
            if kernels:
                self._kernel_calls(gate, name, x, bound, s1)
        self.streams = streams
        return {"lat": lat, "sizes": sizes}

    def _kernel_calls(self, gate, name, x, bound, s1) -> None:
        gate.attempted += 2
        parsed = parse_stream(s1)
        try:
            with observe.span(SPAN_KERNEL_COMPRESS):
                comp = compress_blocks(x, bound, BLOCK_SIZE)
            with observe.span(SPAN_KERNEL_DECOMPRESS):
                out = decompress_blocks(parsed)
        except Exception as exc:  # noqa: BLE001 - the gate reports it
            gate.fail(f"{name}: kernels: {type(exc).__name__}: {exc}")
            return
        gate.same(f"{name}: compress_blocks stream vs codec", comp.to_bytes(), s1)
        gate.bound(f"{name}: decompress_blocks", x, out, bound)

    # -- statistics ---------------------------------------------------------

    def _medians(self, passes) -> dict:
        """Per op: each input's median latency (s) over *passes*."""
        out = {}
        for op in OPS:
            out[op] = [
                median([p["lat"][op][i] for p in passes if p["lat"][op][i] is not None])
                for i in range(len(self.inputs))
            ]
        return out

    def end_to_end(self, gate, seconds: float):
        passes = run_passes(lambda: self.run_pass(gate), seconds)
        med = self._medians(passes)
        raw = sum(int(x.nbytes) for _, x in self.inputs)
        # Latency statistics run over the workload's operations (input x
        # op), each at its median latency over the passes.
        every = [v for op in OPS for v in med[op]]
        latency_tail, stat = tail(every)
        stream_bytes = sum(s for s in passes[0]["sizes"] if s is not None)
        metrics = {
            "compress_mb_s": raw / 1e6 / sum(med["compress"]),
            "decompress_mb_s": raw / 1e6 / sum(med["decompress"]),
            "compress_mb_s_par": raw / 1e6 / sum(med["compress_par"]),
            "decompress_mb_s_par": raw / 1e6 / sum(med["decompress_par"]),
            "ratio": raw / max(stream_bytes, 1),
            "requests_per_s": len(OPS) * len(self.inputs)
            / sum(sum(v) for v in med.values()),
            "latency_p50_ms": pct(every, 50) * 1e3,
            "latency_tail_ms": latency_tail * 1e3,
        }
        info = {"passes": len(passes), "samples": {"operations": len(every)},
                "latency_tail_stat": stat, "latency_s": [p["lat"] for p in passes]}
        return metrics, info

    def per_layer(self, gate, seconds: float):
        untraced = run_passes(lambda: self.run_pass(gate), seconds / 2)
        with observe.trace() as sink:
            traced = run_passes(lambda: self.run_pass(gate, kernels=True), seconds / 2)
        roots = list(sink.spans)
        n = len(traced)
        med = self._medians(untraced)
        base = {op: sum(v) for op, v in med.items()}

        st = self_times(roots, anchors={SPAN_COMPRESS, SPAN_DECOMPRESS})
        wall = walls(roots)

        # Layer self times inside the 1-worker codec calls, per pass.
        m = {
            metric: (st.get((SPAN_COMPRESS, name), 0.0)
                     + st.get((SPAN_DECOMPRESS, name), 0.0)) / n
            for name, metric in SPAN_METRICS.items()
        }
        attributed = sum(m.values())
        m["core.kernels.compress_blocks_s"] = wall[SPAN_KERNEL_COMPRESS] / n
        m["core.kernels.decompress_blocks_s"] = wall[SPAN_KERNEL_DECOMPRESS] / n
        one_worker = (wall[SPAN_COMPRESS] + wall[SPAN_DECOMPRESS]) / n
        m["unattributed_share"] = max(1.0 - attributed / one_worker, 0.0)

        parsed = [parse_stream(s) for s in self.streams if s is not None]
        m["core.kernels.blocks"] = sum(p.header.n_blocks for p in parsed)
        m["core.kernels.const_blocks"] = sum(p.header.n_const for p in parsed)
        m["core.kernels.payload_bytes"] = sum(len(p.payload) for p in parsed)

        m["parallel.omp.compress_s"] = base["compress_par"]
        m["parallel.omp.decompress_s"] = base["decompress_par"]
        m["parallel.omp.compress_speedup"] = base["compress"] / base["compress_par"]
        m["parallel.omp.decompress_speedup"] = base["decompress"] / base["decompress_par"]
        m.update(self._procpool(gate, base))

        def codec_time(passes):
            return median([sum(v for op in OPS for v in p["lat"][op] if v is not None)
                           for p in passes])

        m["observe.trace_overhead_ratio"] = codec_time(traced) / codec_time(untraced)
        info = {"untraced_passes": len(untraced), "traced_passes": n}
        return m, info, roots

    def _procpool(self, gate, base) -> dict:
        """The process backend at ``nproc`` workers, timed by the benchmark."""
        from repro.parallel.procpool import default_pool, shutdown_default_pools

        codec = SZxCodec(self.c1.config.replace(workers=NPROC, backend="process"))
        pc = time.perf_counter
        t_comp = t_decomp = 0.0
        try:
            t0 = pc()
            default_pool(NPROC).start()
            start_s = pc() - t0
            for i, (name, x) in enumerate(self.inputs):
                gate.attempted += 2
                try:
                    t0 = pc()
                    stream = codec.compress(x)
                    t1 = pc()
                    out = codec.decompress(stream)
                    t2 = pc()
                except Exception as exc:  # noqa: BLE001 - the gate reports it
                    gate.fail(f"{name}: procpool: {type(exc).__name__}: {exc}")
                    continue
                t_comp += t1 - t0
                t_decomp += t2 - t1
                gate.same(f"{name}: procpool stream vs 1-worker", stream, self.streams[i])
                gate.bound(f"{name}: procpool decompress", x, out, self.bounds[i])
        finally:
            shutdown_default_pools()
        return {
            "parallel.procpool.start_s": start_s,
            "parallel.procpool.compress_s": t_comp,
            "parallel.procpool.decompress_s": t_decomp,
            "parallel.procpool.compress_speedup":
                base["compress"] / t_comp if t_comp else 0.0,
            "parallel.procpool.decompress_speedup":
                base["decompress"] / t_decomp if t_decomp else 0.0,
        }
