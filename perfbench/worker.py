"""One workload in one fresh process; prints one JSON result line.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker``.  The
clock starts before any import so that ``setup_s`` covers import,
construction and warm-up; input generation is timed and subtracted.
With ``--probe`` the process only sets up (with the one small input the
warm-up needs) and reports its ``setup_s``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _args(argv, workloads):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--inject", choices=("flip", "oob"))
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans-out")
    return p.parse_args(argv)


def _module(workload):
    if workload == "serve-mixed":
        from perfbench import serve_mixed

        return serve_mixed
    from perfbench import fields

    return fields


def _build(mod, args, scale):
    """Generate inputs and construct the workload (not part of setup)."""
    from perfbench.common import Injector

    inject = Injector(args.inject) if args.inject else None
    if args.workload == "serve-mixed":
        return mod.ServeBench(
            mod.make_inputs(args.seed, scale), seed=args.seed, scale=scale,
            seconds=args.seconds, trace=bool(args.trace), inject=inject)
    return mod.FieldBench(
        mod.make_inputs(args.workload, args.seed, scale), inject=inject)


def main(argv=None) -> int:
    from perfbench import common

    args = _args(argv, common.workload_names())
    if args.seed < 0:
        raise SystemExit("--seed must be >= 0")
    if args.probe:
        # A probe draws no requests and needs one small input.
        args.scale, args.seconds = "probe", 0.0

    mod = _module(args.workload)
    t_gen = time.perf_counter()
    bench = _build(mod, args, args.scale)
    t_gen = time.perf_counter() - t_gen
    try:
        bench.setup()
        setup_s = time.perf_counter() - T_START - t_gen
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Fails the run where the peak cannot be reset past generation.
        common.reset_peak_rss()
        gate = common.Gate()
        out = {"setup_s": setup_s, "generate_s": t_gen}
        if args.trace:
            metrics, info, roots = bench.per_layer(gate, args.seconds)
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump([r.to_dict() for r in roots], fh)
        else:
            metrics, info = bench.end_to_end(gate, args.seconds)
            metrics["peak_rss_mb"] = common.peak_rss_mb()
    finally:
        bench.close()

    from repro.observe.perf.record import EnvFingerprint

    out.update(
        metrics=metrics, gate=gate.result(), info=info,
        inputs=bench.input_info(),
        env=dict(EnvFingerprint.capture().to_dict(), nproc=common.NPROC,
                 caches=common.cache_sizes()),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
