"""The warm pool's fan-out map (ordering, deadline, trace adoption) and the
process-wide pool registry."""

import multiprocessing
import time

import pytest

from repro import obs
from repro.parallel import (WorkerPool, chunk_slices, effective_cpus,
                            get_pool, shutdown_pools)
from repro.parallel.registry import _POOLS


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


def platform_start_method():
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


class TestResolveMode:
    def test_auto_resolves(self):
        """The platform picks the start method: fork where it exists,
        spawn otherwise."""
        with WorkerPool(1) as pool:
            assert pool.mode == platform_start_method()


class TestWorkerPoolMap:
    def test_order_preserved(self):
        items = list(range(37))
        with WorkerPool(3) as pool:
            assert pool.map(square, items) == [square(x) for x in items]

    def test_empty_items(self):
        with WorkerPool(2) as pool:
            assert pool.map(square, []) == []

    def test_workers_zero_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)

    def test_timeout_returns_none(self):
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="deadline"):
                assert pool.map(snail, [1, 2], timeout=0.5) is None

    def test_worker_traces_adopted(self):
        collector = obs.Collector()
        with WorkerPool(2) as pool, obs.installed(collector):
            with obs.span("parent"):
                result = pool.map(counted, list(range(8)))
        assert result == [x + 1 for x in range(8)]
        profile = obs.Profile(spans=collector.roots,
                              metrics=collector.metrics.snapshot())
        # worker chunk spans grafted under the parent's open span
        assert profile.span_total("parallel.chunk") > 0.0
        # worker-side counters merged into the parent registry
        assert collector.metrics.counter_total("pool.items") == 8


class TestRegistry:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def test_same_shape_shares_one_pool(self):
        first = get_pool(2)
        assert first is not None and get_pool(2) is first

    def test_default_mode_shares_the_auto_pool(self):
        """Pools are keyed by worker count alone, each on the platform's
        start method."""
        pool = get_pool(2)
        assert get_pool(1) is not pool and get_pool(2) is pool
        assert pool.mode == platform_start_method()

    def test_pools_are_rebuilt_after_close(self):
        pool = get_pool(2)
        pool.close()
        fresh = get_pool(2)
        assert fresh is not pool and not fresh.closed

    def test_shutdown_clears_the_registry(self):
        get_pool(1)
        get_pool(2)
        assert len(_POOLS) == 2
        shutdown_pools()
        assert len(_POOLS) == 0

    def test_effective_cpus_positive(self):
        assert effective_cpus() >= 1
