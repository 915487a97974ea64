"""Tests for the bounded submission queue."""

import threading
import time

import pytest

from repro.serve.errors import ServiceClosedError, ServiceOverloadedError
from repro.serve.queueing import BoundedQueue


class TestAdmission:
    def test_fifo(self):
        q = BoundedQueue(4)
        for i in range(4):
            q.put(i)
        assert [q.get() for _ in range(4)] == [0, 1, 2, 3]

    def test_reject_when_full(self):
        q = BoundedQueue(2)
        q.put("a")
        q.put("b")
        with pytest.raises(ServiceOverloadedError):
            q.put("c")
        assert len(q) == 2  # the rejected item was never admitted

    def test_block_with_deadline_times_out(self):
        q = BoundedQueue(1)
        q.put("a")
        t0 = time.monotonic()
        with pytest.raises(ServiceOverloadedError):
            q.put("b", block=True, timeout=0.05)
        assert time.monotonic() - t0 >= 0.04

    def test_block_succeeds_when_space_frees(self):
        q = BoundedQueue(1)
        q.put("a")

        def consumer():
            time.sleep(0.02)
            q.get()

        t = threading.Thread(target=consumer)
        t.start()
        q.put("b", block=True, timeout=2.0)
        t.join()
        assert q.get() == "b"

    def test_bad_capacity(self):
        for cap in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                BoundedQueue(cap)


class TestGet:
    def test_take_all_takes_the_backlog_without_waiting(self):
        q = BoundedQueue(3)
        assert q.take_all() == []
        for item in "abc":
            q.put(item)
        assert q.take_all() == ["a", "b", "c"]
        assert len(q) == 0
        q.put("d")  # the capacity is free again
        assert q.get() == "d"

    def test_take_all_wakes_blocked_putter(self):
        q = BoundedQueue(1)
        q.put("a")
        t = threading.Thread(
            target=q.put, args=("b",), kwargs={"block": True}, daemon=True
        )
        t.start()
        time.sleep(0.02)
        assert q.take_all() == ["a"]
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert q.get() == "b"

    def test_closed_queue_rejects_put(self):
        q = BoundedQueue(2)
        q.close()
        with pytest.raises(ServiceClosedError):
            q.put("x")

    def test_closed_queue_drains_then_raises(self):
        q = BoundedQueue(4)
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(ServiceClosedError):
            q.get()

    def test_close_wakes_blocked_putter(self):
        q = BoundedQueue(1)
        q.put("a")
        errors = []

        def blocked_put():
            try:
                q.put("b", block=True, timeout=5.0)
            except ServiceClosedError as exc:
                errors.append(exc)

        t = threading.Thread(target=blocked_put)
        t.start()
        time.sleep(0.02)
        q.close()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert len(errors) == 1
