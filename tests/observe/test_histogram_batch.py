"""Vectorized ``Histogram.observe_many`` against the per-value definition.

The reference below is the one-observation-at-a-time update the batch
path replaces: count/sum/min/max, one bucket label per value, and a
reservoir that keeps the first ``RESERVOIR_SIZE`` values in order.
"""

import sys
import threading

import numpy as np
import pytest

from repro.observe.metrics import RESERVOIR_SIZE, Histogram, _bucket_label


def _reference(values):
    """Per-value count/total/min/max/buckets/first-samples of *values*."""
    count, total, lo, hi, buckets, samples = 0, 0.0, None, None, {}, []
    for v in values:
        f = float(v)
        count += 1
        total += f
        lo = f if lo is None or f < lo else lo
        hi = f if hi is None or f > hi else hi
        label = _bucket_label(v)
        buckets[label] = buckets.get(label, 0) + 1
        if len(samples) < RESERVOIR_SIZE:
            samples.append(f)
    return count, total, lo, hi, buckets, samples


def _assert_matches_reference(h, values):
    count, total, lo, hi, buckets, samples = _reference(values)
    assert h.count == count
    assert h.total == pytest.approx(total, rel=1e-12, abs=1e-12)
    assert h.min == lo and h.max == hi
    assert dict(h.buckets) == buckets
    if count <= RESERVOIR_SIZE:
        assert h._samples == samples


RNG = np.random.default_rng(18)

CASES = {
    "ints": RNG.integers(0, 64, size=3000),
    "uint8": RNG.integers(0, 256, size=500).astype(np.uint8),
    "floats": RNG.exponential(size=2000),
    "negatives": -RNG.exponential(scale=50.0, size=800),
    "zeros": np.zeros(300),
    "signed_zero_mix": np.array([0.0, -0.0, 0.0, 1.0, -0.0]),
    "above_4096": RNG.integers(4000, 9000, size=1000),
    "integral_floats": RNG.integers(0, 5000, size=700).astype(np.float64),
    "mixed": np.concatenate(
        [RNG.normal(scale=1e4, size=600), np.arange(-5, 5), [4096, 4097, 0]]
    ),
}


class TestObserveManyMatchesPerValue:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_array_input(self, name):
        values = CASES[name]
        h = Histogram("batch")
        h.observe_many(values)
        _assert_matches_reference(h, values.tolist())

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_list_input_and_chunking(self, name):
        values = CASES[name].tolist()
        h = Histogram("batch")
        for lo in range(0, len(values), 97):
            h.observe_many(values[lo : lo + 97])
        _assert_matches_reference(h, values)

    def test_scalar_observe(self):
        h = Histogram("batch")
        for v in (3, 0.5, -7, 0, 12345.0):
            h.observe(v)
        _assert_matches_reference(h, [3, 0.5, -7, 0, 12345.0])

    def test_generator_input(self):
        h = Histogram("batch")
        h.observe_many(v * v for v in range(10))
        _assert_matches_reference(h, [v * v for v in range(10)])

    def test_empty_input_is_a_no_op(self):
        h = Histogram("batch")
        h.observe_many(np.empty(0))
        h.observe_many([])
        assert h.count == 0 and h.min is None and not h.buckets
        assert h.quantile(0.5) is None

    def test_quantiles_exact_up_to_the_reservoir(self):
        values = RNG.normal(size=RESERVOIR_SIZE)
        h = Histogram("batch")
        h.observe_many(values)
        for q in (0.0, 0.1, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(float(np.quantile(values, q)))


class TestReservoirBeyondCapacity:
    N = 20 * RESERVOIR_SIZE

    def test_bounded_and_drawn_from_the_input(self):
        h = Histogram("big")
        h.observe_many(np.arange(self.N))
        assert len(h._samples) == RESERVOIR_SIZE
        assert set(h._samples) <= set(range(self.N))
        assert len(set(h._samples)) == RESERVOIR_SIZE

    def test_sample_is_uniform(self):
        h = Histogram("big")
        h.observe_many(np.arange(self.N))
        sample = np.asarray(h._samples)
        # Each tenth of the stream holds ~1/10 of the sample; the
        # binomial sd is ~19 out of ~410 per bin.
        bins = np.bincount((sample * 10 // self.N).astype(int), minlength=10)
        assert np.all(np.abs(bins - RESERVOIR_SIZE / 10) < 100)
        assert abs(h.quantile(0.5) - self.N / 2) < 0.05 * self.N

    def test_deterministic_and_independent_of_chunking(self):
        values = np.arange(self.N, dtype=np.float64)
        whole, chunked = Histogram("same"), Histogram("same")
        whole.observe_many(values)
        for lo in range(0, self.N, 1000):
            chunked.observe_many(values[lo : lo + 1000])
        for v in values[:10]:
            chunked.observe(v)
            whole.observe(v)
        assert whole._samples == chunked._samples
        assert whole.count == chunked.count == self.N + 10

    def test_threads_do_not_lose_updates(self):
        h = Histogram("threads")
        chunk = np.arange(5000)

        def feed():
            for _ in range(10):
                h.observe_many(chunk)

        threads = [threading.Thread(target=feed) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert h.count == 4 * 10 * chunk.size
        assert sum(h.buckets.values()) == h.count
        assert len(h._samples) == RESERVOIR_SIZE
        assert h.min == 0 and h.max == chunk[-1]
