"""Pieces every workload shares: the workload list, the correctness
gate, timing statistics, peak-RSS accounting, span self-times, and the
run loop."""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

NPROC = os.cpu_count() or 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fewest samples a p99 is taken over; smaller classes report their max.
MIN_P99_SAMPLES = 1000

#: Spans the program emits -> the per-layer metric of their self time.
SPAN_METRICS = {
    "resolve_bound": "core.api.resolve_bound_s",
    "szx.compress": "codec.compress_self_s",
    "szx.decompress": "codec.decompress_self_s",
    "szx.assemble": "core.stream.to_bytes_s",
    "szx.parse": "core.stream.parse_s",
    **{stage: f"core.kernels.{stage}_s" for stage in (
        "block_stats", "encode_blocks", "encode_tail",
        "broadcast_const", "decode_blocks", "decode_tail")},
}


def spec() -> dict:
    """``BENCHMARK.json`` of the checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names() -> tuple:
    return tuple(w["name"] for w in spec()["workloads"])


class Gate:
    """Counts attempted and failed operations and keeps the first problems.

    Every timed operation is attempted once; a check that fails marks the
    operation it checks as failed.  Checks run outside the timed region.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def bound(self, what: str, orig: np.ndarray, recon, abs_bound: float) -> bool:
        """Pointwise ``|orig - recon| <= abs_bound``, up to rounding."""
        recon = np.asarray(recon)
        if recon.shape != orig.shape or recon.dtype != orig.dtype:
            self.fail(f"{what}: got {recon.dtype}{recon.shape}, "
                      f"want {orig.dtype}{orig.shape}")
            return False
        if orig.size == 0:
            return True
        worst = float(np.max(np.abs(
            orig.astype(np.float64) - recon.astype(np.float64))))
        # The reconstruction is rounded to the stored dtype after
        # mu + offset, so allow one ULP of that dtype at the error's size.
        slack = float(np.finfo(orig.dtype).eps) * max(1.0, worst)
        if not worst <= abs_bound + slack:
            self.fail(f"{what}: max error {worst:.6g} > bound {abs_bound:.6g}")
            return False
        return True

    def same(self, what: str, got: bytes, want: bytes) -> bool:
        """Byte identity of two streams."""
        if got != want:
            self.fail(f"{what}: streams differ ({len(got)} vs {len(want)} bytes)")
            return False
        return True

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": list(self.problems)}


class Injector:
    """Corrupts the first output it is shown, so the self-test can prove
    that the gate catches it: ``"flip"`` flips a stream byte, ``"oob"``
    pushes one reconstructed value past the bound."""

    def __init__(self, mode: str):
        self.mode = mode
        self.done = False

    def stream(self, stream: bytes) -> bytes:
        if self.mode != "flip" or self.done:
            return stream
        self.done = True
        return stream[:-1] + bytes([stream[-1] ^ 0xFF])

    def recon(self, recon: np.ndarray, abs_bound: float) -> np.ndarray:
        if self.mode != "oob" or self.done:
            return recon
        self.done = True
        out = np.array(recon, copy=True)
        out.reshape(-1)[0] += out.dtype.type(4 * abs_bound)
        return out


def pct(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation); 0.0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple:
    """``(value, statistic)``: the p99 of *values* when there are at
    least ``MIN_P99_SAMPLES`` of them, else their maximum."""
    if len(values) >= MIN_P99_SAMPLES:
        return pct(values, 99), "p99"
    return (float(max(values)) if len(values) else 0.0), "max"


# -- memory ------------------------------------------------------------------


def _vm_kib() -> dict:
    """``{"VmHWM": KiB, "VmRSS": KiB}`` of this process."""
    out = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key = line.split(":", 1)[0]
            if key in ("VmHWM", "VmRSS"):
                out[key] = int(line.split()[1])
    if len(out) != 2:
        raise OSError("no VmHWM/VmRSS in /proc/self/status")
    return out


def reset_peak_rss() -> None:
    """Reset the kernel's high-water mark (VmHWM) to the current RSS.

    Raises OSError where that cannot be done, or where the mark stays
    above the current RSS afterwards: the peak would then include input
    generation.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    vm = _vm_kib()
    if vm["VmHWM"] > vm["VmRSS"] + 1024:
        raise OSError(f"VmHWM not reset: {vm['VmHWM']} KiB > RSS {vm['VmRSS']} KiB")


def peak_rss_mb() -> float:
    """Peak resident set size in MiB since the last reset."""
    return _vm_kib()["VmHWM"] / 1024.0


def cache_sizes() -> dict:
    """CPU cache sizes by level/type as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        fields = {}
        try:
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as fh:
                    fields[name] = fh.read().strip()
        except OSError:
            continue
        out[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    return out


# -- spans -------------------------------------------------------------------


def _self_time(sp) -> float:
    """Span wall time minus the union of its children's intervals."""
    covered, end = 0.0, sp.t0
    for c0, c1 in sorted((c.t0, c.t1) for c in sp.children):
        c0, c1 = max(c0, end), min(c1, sp.t1)
        if c1 > c0:
            covered += c1 - c0
            end = c1
    return max(sp.t1 - sp.t0 - covered, 0.0)


def self_times(roots, anchors=None) -> dict:
    """Self time (s) per ``(anchor, span name)`` over span trees.

    The anchor of a span is the nearest enclosing span whose name is in
    *anchors* (None outside any).  With *anchors* None every span is
    keyed under None.
    """
    out: dict = defaultdict(float)
    stack = [(r, None) for r in roots]
    while stack:
        sp, anchor = stack.pop()
        if anchors and sp.name in anchors:
            anchor = sp.name
        out[(anchor, sp.name)] += _self_time(sp)
        stack.extend((c, anchor) for c in sp.children)
    return out


def walls(roots) -> dict:
    """Total wall time (s) per span name over span trees."""
    out: dict = defaultdict(float)
    stack = list(roots)
    while stack:
        sp = stack.pop()
        out[sp.name] += sp.t1 - sp.t0
        stack.extend(sp.children)
    return out


# -- run loop ----------------------------------------------------------------


def run_passes(run_pass, seconds: float) -> list:
    """Call ``run_pass()`` until another pass would overrun *seconds*.

    At least one pass runs.  Returns the list of pass results.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results
