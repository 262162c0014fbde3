"""Faults in the warm worker pool, injected by the work it maps.

The warm pool's contract under fire: a worker killed, hung or raising
mid-dispatch makes the *call* fail over to the in-process path (warning,
``None``, bit-identical results from the fallback) while the *pool*
self-heals by respawning the dead slot on the next dispatch.  Shutdown
during a dispatch unblocks the dispatcher instead of hanging it, and
``close()`` is idempotent.  The faults are module-level functions below,
so the pool carries no hook for them.
"""

import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest

import repro.inference.numa as numa_module
from repro.inference import NumaConfig, NumaGibbs
from repro.inference.numa import replica_totals
from repro.parallel import WorkerPool, get_pool
from tests.parallel.test_parallel_replicas import (assert_same_outcomes,
                                                   chain_graph,
                                                   independent_chains,
                                                   replica_tasks)


def _boom(item):
    raise RuntimeError("kaboom")


def _raise_on_zero(item):
    if item == 0:
        raise RuntimeError("injected worker fault")
    return item


def _hang_on_zero(item):
    if item == 0:
        while True:                              # close() kills us
            time.sleep(3600.0)
    return item


def _replica_exit_in_worker(sampler, task):
    """``replica_totals`` that kills any pool worker running it and runs
    normally in the parent (the in-process fallback)."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return replica_totals(sampler, task)


def _replica_exit_on_second(sampler, task):
    """Kills the worker that draws replica 1 of seed 3 (seed 4)."""
    if task[0] == 4:
        os._exit(3)
    return replica_totals(sampler, task)


class TestWorkerDeathMidRound:
    def test_kill_returns_none_with_warning_then_pool_recovers(self):
        compiled = chain_graph()
        tasks = replica_tasks(4, seed=3, total_sweeps=25, burn_in=5)
        reference = independent_chains(compiled, 4, 3, 25, 5)
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back"):
                outcome = pool.map(_replica_exit_on_second, tasks,
                                   graph=compiled)
            assert outcome is None
            assert pool.stats["failures"] == 1
            # next dispatch respawns the dead/dirty slots and succeeds
            outcome = pool.map(replica_totals, tasks, graph=compiled)
            assert pool.stats["restarts"] >= 1
            assert_same_outcomes(outcome, reference)

    def test_numa_gibbs_results_bit_identical_through_fault(
            self, monkeypatch):
        """A mid-dispatch worker death never changes marginals."""
        compiled = chain_graph()
        sequential = NumaGibbs(
            compiled, NumaConfig(sockets=4, sync_every=5, workers=0),
            seed=3).run(num_samples=20, burn_in=5)
        config = NumaConfig(sockets=4, sync_every=5, workers=2)
        pool = get_pool(2)
        with monkeypatch.context() as patch:
            patch.setattr(numa_module, "replica_totals",
                          _replica_exit_in_worker)
            with pytest.warns(RuntimeWarning, match="falling back"):
                faulted = NumaGibbs(compiled, config, seed=3).run(
                    num_samples=20, burn_in=5)
        assert np.array_equal(sequential.marginals, faulted.marginals)
        assert faulted.samples_drawn == sequential.samples_drawn
        # and the shared pool keeps serving bit-identically afterwards
        healed = NumaGibbs(compiled, config, seed=3).run(
            num_samples=20, burn_in=5)
        assert np.array_equal(sequential.marginals, healed.marginals)
        assert pool.stats["restarts"] >= 1

    def test_map_worker_death_falls_back(self):
        compiled = chain_graph(n=6)
        with WorkerPool(2) as pool:
            # a fault in a graph dispatch leaves dirty slots; a plain map
            # must heal too
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert pool.map(_replica_exit_on_second,
                                replica_tasks(2, 3, 10, 2),
                                graph=compiled) is None
            assert pool.map(len, ["ab", "cde", "f", "gh"]) == [2, 3, 1, 2]


class TestShutdownWhileDispatching:
    def test_close_unblocks_a_hung_dispatch(self):
        """A hung worker + close() from another thread: None, never a hang."""
        pool = WorkerPool(2)
        result = {}

        def dispatch():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result["outcome"] = pool.map(_hang_on_zero, [0, 1],
                                             timeout=60.0)
            result["finished"] = True

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        # let the dispatch reach the hung worker, then pull the plug
        time.sleep(0.5)
        pool.close()
        thread.join(timeout=20.0)
        assert result.get("finished") is True
        assert result.get("outcome") is None
        assert pool.closed

    def test_dispatch_after_close_returns_none(self):
        compiled = chain_graph(n=6)
        pool = WorkerPool(2)
        pool.close()
        assert pool.map(replica_totals, replica_tasks(2, 0, 4, 1),
                        graph=compiled) is None
        assert pool.map(len, ["ab"]) is None


class TestCloseIdempotence:
    def test_double_close(self):
        pool = WorkerPool(2)
        assert pool.map(len, ["ab", "c"]) == [2, 1]   # workers are live
        pool.close()
        pool.close()                             # second close: no-op
        assert pool.closed

    def test_close_without_ever_dispatching(self):
        pool = WorkerPool(3)
        pool.close()
        pool.close()
        assert pool.closed


class TestWorkerExceptionPath:
    def test_worker_raise_warns_and_heals(self):
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning,
                              match="worker raised.*injected worker fault"):
                assert pool.map(_raise_on_zero, [0, 1]) is None
            assert pool.map(_raise_on_zero, [1, 2]) == [1, 2]

    def test_map_exception_warns_and_falls_back(self):
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert pool.map(_boom, [1, 2, 3]) is None

    def test_unpicklable_fn_warns_and_falls_back(self):
        """Pipe commands pickle the callable even under fork; a local
        closure must fail over, not raise out of map()."""
        def local_fn(item):
            return item

        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert pool.map(local_fn, [1, 2, 3]) is None

    def test_deadline_warns_and_returns_none(self):
        compiled = chain_graph(n=8)
        with WorkerPool(2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert pool.map(replica_totals, replica_tasks(2, 0, 4, 1),
                                graph=compiled, timeout=1e-6) is None
