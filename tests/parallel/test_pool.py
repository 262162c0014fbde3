"""The warm pool's fan-out map: ordering, deadline, trace adoption."""

import time

import pytest

from repro import obs
from repro.parallel import WorkerPool, chunk_slices, resolve_mode


def square(x):
    return x * x


def snail(x):
    time.sleep(30.0)
    return x


def counted(x):
    if obs.enabled():
        obs.count("pool.items")
    return x + 1


class TestChunkSlices:
    def test_covers_input_in_order(self):
        slices = chunk_slices(23, workers=3)
        flat = [i for lo, hi in slices for i in range(lo, hi)]
        assert flat == list(range(23))

    def test_single_item(self):
        assert chunk_slices(1, workers=8) == [(0, 1)]

    def test_balanced(self):
        slices = chunk_slices(100, workers=4)
        sizes = [hi - lo for lo, hi in slices]
        assert max(sizes) - min(sizes) <= 1


class TestResolveMode:
    def test_auto_resolves(self):
        assert resolve_mode("auto") in ("fork", "spawn")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="start method"):
            resolve_mode("threads")


class TestWorkerPoolMap:
    def test_order_preserved(self):
        items = list(range(37))
        with WorkerPool(3, mode="fork") as pool:
            assert pool.map(square, items) == [square(x) for x in items]

    def test_empty_items(self):
        with WorkerPool(2) as pool:
            assert pool.map(square, []) == []

    def test_workers_zero_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)

    def test_timeout_returns_none(self):
        with WorkerPool(2, mode="fork") as pool:
            with pytest.warns(RuntimeWarning, match="deadline"):
                assert pool.map(snail, [1, 2], timeout=0.5) is None

    def test_worker_traces_adopted(self):
        collector = obs.Collector()
        with WorkerPool(2, mode="fork") as pool, obs.installed(collector):
            with obs.span("parent"):
                result = pool.map(counted, list(range(8)))
        assert result == [x + 1 for x in range(8)]
        profile = obs.Profile(spans=collector.roots,
                              metrics=collector.metrics.snapshot())
        # worker chunk spans grafted under the parent's open span
        assert profile.span_total("parallel.chunk") > 0.0
        # worker-side counters merged into the parent registry
        assert collector.metrics.counter_total("pool.items") == 8
