"""Workload ``serve-mixed``: the network front door under a closed loop.

An in-process :class:`repro.net.NetServer` (one shard, ``nproc`` thread
workers, a chunk cache smaller than the run's unique compressed bytes)
is driven by ``nproc`` :class:`repro.net.NetClient` connections from the
same process and event loop.  Each client waits for every reply before
sending its next request, as an in-situ writer does.

Requests are chunks cut from application fields at an absolute bound of
``1e-3 x`` the source field's value range.  Each client cycles through
the same request mix: half compress a chunk never sent before, a quarter
re-compress one of its earlier chunks, and a quarter decompress one of
its earlier returned streams.  New chunks take the fields in turn, at a
seeded random offset; earlier items are picked by a seeded Zipf rank
counted from the most recent, so repeats favour recent chunks.  Fixing
the mix and the field rotation keeps the work the same from seed to
seed; only the data differ.

Rates are taken per time window and reported as the median over the
windows, so a short stall elsewhere on the machine moves one window, not
the result.  The median latency runs over every request of the run.  A
p99 is taken only over at least ``MIN_P99_SAMPLES`` requests, a smaller
class reports its maximum (see ``common.tail``); ``latency_tail_ms`` is
the median of the p99s of consecutive groups of that many requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import time
from collections import defaultdict, deque

import numpy as np

from repro import observe
from repro.codec import CodecConfig, SZxCodec
from repro.net import NetClient, NetServer, protocol
from repro.net.cache import content_digest

from .common import MIN_P99_SAMPLES, NPROC, SPAN_METRICS, median, pct, self_times, tail
from .fields import app_fields

SCALES = {
    "full": {"registry": "small", "chunk_bytes": 64 * 1024, "cache_bytes": 4 << 20},
    "tiny": {"registry": "tiny", "chunk_bytes": 4096, "cache_bytes": 64 << 10},
}
SCALES["probe"] = SCALES["tiny"]
ABS_FACTOR = 1e-3
BLOCK_SIZE = 128
NEW, REPEAT, DECOMPRESS = 0, 1, 2
#: One cycle of the request mix: 50% new, 25% repeat, 25% decompress.
MIX = (NEW, REPEAT, NEW, DECOMPRESS)
ZIPF_S = 1.5
#: Earlier items a client remembers (bounds the benchmark's own memory).
HISTORY = 1024
#: Requests drawn for all clients per second of run before timing starts.
OPS_PER_S = 600
#: Length of the windows whose median is reported.
WINDOW_S = 4.0
#: Values of each client's warm-up chunk (64 KiB of float32 at any scale,
#: so set-up probes on tiny inputs do the same warm-up).
WARM_VALUES = 1 << 14

NET_STAGES = ("read", "admission", "cache_lookup", "queue_wait", "execute",
              "stitch", "serialize", "write")


def make_inputs(seed: int, scale: str) -> list:
    """``[(name, flat array, abs bound)]``: two fields per application
    (one field in all for a set-up probe, which sends no requests)."""
    fields = []
    picked = app_fields(seed, SCALES[scale]["registry"],
                        pick=lambda n: sorted({0, n // 2}))
    for name, data in itertools.islice(picked, 1 if scale == "probe" else None):
        flat = data.reshape(-1)
        bound = ABS_FACTOR * (float(flat.max()) - float(flat.min()))
        fields.append((name, flat, bound))
    return fields


class _Client:
    """One connection's seeded request sequence and memory of replies."""

    def __init__(self, index: int, fields: list, seed: int, chunk_bytes: int,
                 n_ops: int):
        self.index = index
        self.fields = fields
        self.chunk_bytes = chunk_bytes
        self.rng = np.random.default_rng([seed, index])
        self.used: set = set()
        self.n_new = 0
        self.history: deque = deque(maxlen=HISTORY)  # (chunk key, stream)
        self.ops = [self._draw(k) for k in range(n_ops)]
        self.conn = None

    def chunk(self, key) -> np.ndarray:
        f, off = key
        flat = self.fields[f][1]
        return flat[off:off + self.chunk_bytes // flat.itemsize]

    def new_key(self):
        """A chunk never used before, from the next field in turn."""
        f = self.n_new % len(self.fields)
        self.n_new += 1
        flat = self.fields[f][1]
        n = self.chunk_bytes // flat.itemsize
        # Offsets are partitioned by client so no two clients share a
        # chunk; constant windows are skipped because two of them would
        # carry identical bytes.
        while True:
            off = int(self.rng.integers((flat.size - n) // NPROC + 1)) * NPROC + self.index
            window = flat[off:off + n]
            if (off + n <= flat.size and (f, off) not in self.used
                    and window.min() != window.max()):
                self.used.add((f, off))
                return f, off

    def _draw(self, k: int):
        kind = MIX[k % len(MIX)]
        if kind == NEW:
            return kind, 0, self.new_key()
        return kind, int(self.rng.zipf(ZIPF_S)), None

    def op(self, k: int):
        return self.ops[k] if k < len(self.ops) else self._draw(k)

    def earlier(self, rank: int):
        return self.history[-1 - (rank - 1) % len(self.history)]


class ServeBench:
    """Runs the serve-mixed workload; see the module docstring."""

    def __init__(self, fields: list, *, seed: int, scale: str, seconds: float,
                 trace: bool, inject=None):
        self.fields = fields
        self.params = SCALES[scale]
        self.trace = trace
        self.inject = inject
        n_ops = int(seconds * OPS_PER_S / NPROC)
        self.clients = [
            _Client(i, fields, seed, self.params["chunk_bytes"], n_ops)
            for i in range(NPROC)
        ]
        self.served: dict = defaultdict(list)  # chunk key -> reply digests
        # id(stream) -> (chunk key, stream, digests of its served decompressions)
        self.read_back: dict = {}
        self.loop = None
        self.server = None

    def input_info(self) -> dict:
        return {
            "input_bytes": sum(int(flat.nbytes) for _, flat, _ in self.fields),
            "inputs": [[name, str(flat.dtype), [flat.size]]
                       for name, flat, _ in self.fields],
            "chunk_bytes": self.params["chunk_bytes"],
            "cache_bytes": self.params["cache_bytes"],
            "clients": NPROC,
        }

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = await NetServer(
            shards=1, workers_per_shard=NPROC,
            cache_bytes=self.params["cache_bytes"],
            # The traced run joins every request to its server ledger.
            request_log_capacity=1 << 20 if self.trace else 256,
        ).start()
        for cl in self.clients:
            cl.conn = await NetClient.connect("127.0.0.1", self.server.port)
            warm = np.linspace(cl.index, cl.index + 1, WARM_VALUES, dtype=np.float32)
            stream, _ = await cl.conn.compress(warm, err_bound=1e-3, mode="abs")
            await cl.conn.decompress(stream)

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        for cl in self.clients:
            if cl.conn is not None:
                await cl.conn.aclose()
        if self.server is not None:
            await self.server.drain()

    # -- the closed loop -----------------------------------------------------

    def phase(self, gate, seconds: float) -> dict:
        """Every client runs closed-loop for *seconds*; returns records."""
        records: list = []

        async def run_clients():
            await asyncio.gather(*(
                self._client_loop(cl, t0, t0 + seconds, records, gate)
                for cl in self.clients
            ))

        t0 = time.perf_counter()
        self.loop.run_until_complete(run_clients())
        return {"records": records, "wall": time.perf_counter() - t0}

    async def _client_loop(self, cl, start, deadline, records, gate) -> None:
        """Closed loop; records ``(class, latency s, raw bytes, stream
        bytes, request id, completion time s)`` per request."""
        pc = time.perf_counter
        k = 0
        while pc() < deadline:
            kind, rank, key = cl.op(k)
            k += 1
            if kind != NEW and not cl.history:
                kind, key = NEW, cl.new_key()
            if kind == DECOMPRESS:
                key, stream = cl.earlier(rank)
            elif kind == REPEAT:
                key = cl.earlier(rank)[0]
            chunk = cl.chunk(key)
            bound = self.fields[key[0]][2]
            gate.attempted += 1
            verb = "decompress" if kind == DECOMPRESS else "compress"
            span = observe.open_span(f"bench.net.{verb}")
            t0 = pc()
            try:
                if kind == DECOMPRESS:
                    out, meta = await cl.conn.decompress(stream)
                else:
                    stream, meta = await cl.conn.compress(
                        chunk, err_bound=bound, mode="abs", block_size=BLOCK_SIZE)
            except Exception as exc:  # noqa: BLE001 - the gate reports it
                span.finish(error=exc)
                gate.fail(f"request {key}: {type(exc).__name__}: {exc}")
                continue
            done = pc()
            latency = done - t0
            span.finish()
            rid = meta.get("request_id")
            if kind == DECOMPRESS:
                if self.inject is not None:
                    out = self.inject.recon(out, bound)
                entry = self.read_back.setdefault(id(stream), (key, stream, []))
                entry[2].append(_array_digest(out))
                records.append(("decompress", latency, chunk.nbytes, 0, rid,
                                done - start))
                continue
            if self.inject is not None:
                stream = self.inject.stream(stream)
            self.served[key].append(hashlib.sha256(stream).digest())
            records.append((meta.get("cache", "miss"), latency, chunk.nbytes,
                            len(stream), rid, done - start))
            if kind == NEW:
                cl.history.append((key, stream))

    def verify(self, gate) -> None:
        """Every served stream must equal a local SZxCodec stream, and
        every served decompression the local decompression of its
        stream, which must be within bound."""
        codecs = [
            SZxCodec(CodecConfig(err_bound=bound, mode="abs", block_size=BLOCK_SIZE))
            for _, _, bound in self.fields
        ]
        chunk_of = self.clients[0].chunk
        for key, digests in self.served.items():
            want = hashlib.sha256(codecs[key[0]].compress(chunk_of(key))).digest()
            for digest in digests:
                if digest != want:
                    gate.fail(f"served stream for chunk {key} differs from local codec")
        for key, stream, digests in self.read_back.values():
            local = codecs[key[0]].decompress(stream)
            gate.bound(f"local decompress of chunk {key}", chunk_of(key), local,
                       self.fields[key[0]][2])
            want = _array_digest(local)
            for digest in digests:
                if digest != want:
                    gate.fail(f"served decompress of chunk {key} differs from local codec")

    def _stats(self) -> dict:
        """Cache and service counters, through the server's ``stats`` verb."""
        doc = self.loop.run_until_complete(self.clients[0].conn.stats())
        return {"cache": doc["cache"], "service": doc["shards"]["totals"]}

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, gate, seconds: float):
        ph = self.phase(gate, seconds)
        self.verify(gate)
        recs, wall = ph["records"], ph["wall"]
        n_win = max(1, round(wall / WINDOW_S))
        width = wall / n_win
        windows = [[] for _ in range(n_win)]
        for r in recs:
            windows[min(int(r[5] / width), n_win - 1)].append(r)

        def per_window(fn):
            return median([fn(w) for w in windows])

        def comp(w):
            return [r for r in w if r[0] != "decompress"]

        def decomp(w):
            return [r for r in w if r[0] == "decompress"]

        def mb_per_latency_s(rs):
            return sum(r[2] for r in rs) / 1e6 / max(sum(r[1] for r in rs), 1e-12)

        latencies = [r[1] for r in recs]
        # The tail is taken per group of at least MIN_P99_SAMPLES requests
        # in completion order, and the median over groups is reported, so
        # a stall elsewhere on the machine moves one group, not the result.
        by_done = [r[1] for r in sorted(recs, key=lambda r: r[5])]
        groups = np.array_split(by_done, max(len(by_done) // MIN_P99_SAMPLES, 1))
        tails = [tail(g) for g in groups]
        latency_tail, stat = median([t[0] for t in tails]), tails[0][1]
        metrics = {
            "compress_mb_s": per_window(lambda w: mb_per_latency_s(comp(w))),
            "decompress_mb_s": per_window(lambda w: mb_per_latency_s(decomp(w))),
            "compress_mb_s_par": per_window(
                lambda w: sum(r[2] for r in comp(w)) / 1e6 / width),
            "decompress_mb_s_par": per_window(
                lambda w: sum(r[2] for r in decomp(w)) / 1e6 / width),
            "ratio": sum(r[2] for r in comp(recs)) / max(sum(r[3] for r in comp(recs)), 1),
            "requests_per_s": per_window(lambda w: len(w) / width),
            "latency_p50_ms": pct(latencies, 50) * 1e3,
            "latency_tail_ms": latency_tail * 1e3,
        }
        counts = defaultdict(int)
        for r in recs:
            counts[r[0]] += 1
        info = {"wall_s": wall, "windows": n_win, "samples": dict(counts, all=len(recs)),
                "latency_tail_stat": stat, "latency_tail_groups": len(groups),
                "latency_ms": {f"p{q}": pct(latencies, q) * 1e3 for q in (50, 75, 90, 95, 99)},
                "window_requests_per_s": [len(w) / width for w in windows],
                "class_tails_ms": _class_tails(recs)[0]}
        return metrics, info

    def per_layer(self, gate, seconds: float):
        before = self._stats()
        a = self.phase(gate, seconds / 2)
        after = self._stats()
        entries = {e["request_id"]: e
                   for e in self.server.request_log.snapshot(limit=1 << 30)}
        with observe.trace() as sink:
            b = self.phase(gate, seconds / 2)
        roots = list(sink.spans)
        self.verify(gate)

        m = {}
        recs = a["records"]
        joined = [(r, entries[r[4]]) for r in recs if r[4] in entries]
        ledgers = [e for _, e in joined]
        for stage in NET_STAGES:
            m[f"net.{stage}_ms"] = median(
                [e["stages_ms"][stage] for e in ledgers if stage in e["stages_ms"]])
        waits = [e["stages_ms"]["serve_wait"] for e in ledgers
                 if "serve_wait" in e["stages_ms"]]
        m["serve.wait_ms_p50"] = median(waits)
        m["serve.wait_ms_tail"], wait_stat = tail(waits)
        m["serve.kernel_ms_p50"] = median(
            [e["stages_ms"]["kernel"] for e in ledgers if "kernel" in e["stages_ms"]])
        gaps = [r[1] * 1e3 - e["total_ms"] for r, e in joined]
        m["net.unattributed_ms"] = median(gaps)
        m["unattributed_share"] = sum(gaps) / max(sum(r[1] * 1e3 for r, _ in joined), 1e-12)
        class_tails, class_stats = _class_tails(recs)
        for cls, value in class_tails.items():
            m[f"net.{cls}_tail_ms"] = value

        def delta(part, key):
            return after[part].get(key, 0) - before[part].get(key, 0)

        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        m["net.cache.lookups"] = hits + misses
        m["net.cache.hit_ratio"] = hits / max(hits + misses, 1)
        m["net.cache.evictions"] = delta("cache", "evictions")
        for key in ("served", "batches", "retries", "rejected", "failed"):
            m[f"serve.{key}"] = delta("service", key)
        m["serve.batch_fill"] = delta("service", "batched_jobs") / max(m["serve.batches"], 1)

        per_k = 1000.0 / max(len(b["records"]), 1)
        st = self_times(roots)
        for name, metric in SPAN_METRICS.items():
            m[metric] = st.get((None, name), 0.0) * per_k

        def mean_latency(ph):
            return sum(r[1] for r in ph["records"]) / max(len(ph["records"]), 1)

        m["observe.trace_overhead_ratio"] = mean_latency(b) / mean_latency(a)
        m.update(self._micro())
        info = {"untraced_requests": len(recs), "traced_requests": len(b["records"]),
                "joined": len(joined),
                "tail_stats": dict(class_stats, **{"serve.wait": wait_stat})}
        return m, info, roots

    def _micro(self) -> dict:
        """Benchmark-timed digest and frame codec calls on request payloads."""
        cl = self.clients[0]
        keys = [op[2] for op in cl.ops if op[2] is not None][:200]
        payloads = [cl.chunk(key).tobytes() for key in keys]
        pc = time.perf_counter
        digest, enc, dec = [], [], []
        for payload in payloads:
            meta = {"dtype": "float32", "shape": [len(payload) // 4], "err_bound": 1e-3}
            t0 = pc()
            content_digest(payload)
            t1 = pc()
            frame = protocol.encode_frame(protocol.COMPRESS, meta, payload)
            t2 = pc()
            protocol.decode_frame(frame)
            t3 = pc()
            digest.append(t1 - t0)
            enc.append(t2 - t1)
            dec.append(t3 - t2)
        return {
            "net.cache.digest_ms": median(digest) * 1e3,
            "net.protocol.encode_frame_us": median(enc) * 1e6,
            "net.protocol.decode_frame_us": median(dec) * 1e6,
        }


def _array_digest(out) -> bytes:
    out = np.ascontiguousarray(out)
    return hashlib.sha256(f"{out.dtype}{out.shape}".encode() + out.tobytes()).digest()


def _class_tails(recs) -> tuple:
    """``({class: tail latency ms}, {class: statistic})`` for the hit,
    miss and decompress request classes."""
    values, stats = {}, {}
    for cls in ("hit", "miss", "decompress"):
        value, stats[cls] = tail([r[1] for r in recs if r[0] == cls])
        values[cls] = value * 1e3
    return values, stats
