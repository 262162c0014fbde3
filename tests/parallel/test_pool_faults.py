"""Fault injection against the warm worker pool.

The warm pool's contract under fire: a worker killed or hung mid-round
makes the *call* fail over to the sequential path (warning, ``None``,
bit-identical results from the fallback) while the *pool* self-heals by
respawning the dead slot on the next dispatch.  Shutdown during a dispatch
unblocks the dispatcher instead of hanging it, and ``close()`` is
idempotent.
"""

import threading
import warnings

import numpy as np
import pytest

from repro.inference import NumaConfig, NumaGibbs
from repro.parallel import WorkerPool, get_pool
from tests.parallel.test_parallel_replicas import chain_graph


def _boom(item):
    raise RuntimeError("kaboom")


def reference_outcome(compiled, sockets=4, seed=3, total_sweeps=25,
                      burn_in=5):
    sampler = NumaGibbs(compiled, NumaConfig(sockets=sockets, sync_every=5),
                        seed=seed)
    return sampler._run_replicas_sequential(total_sweeps, burn_in)


class TestWorkerDeathMidRound:
    def test_kill_returns_none_with_warning_then_pool_recovers(self):
        compiled = chain_graph()
        reference = reference_outcome(compiled)
        with WorkerPool(2) as pool:
            pool.inject_fault(1, at_sync=1, action="exit")
            with pytest.warns(RuntimeWarning, match="falling back"):
                outcome = pool.run_replicas(
                    compiled, sockets=4, seed=3,
                    total_sweeps=25, burn_in=5, sync_every=5)
            assert outcome is None
            assert pool.stats["failures"] == 1
            # next dispatch respawns the dead/dirty slots and succeeds
            outcome = pool.run_replicas(
                compiled, sockets=4, seed=3,
                total_sweeps=25, burn_in=5, sync_every=5)
            assert outcome is not None
            assert pool.stats["restarts"] >= 1
            assert np.array_equal(outcome.totals, reference.totals)
            assert outcome.socket_samples == reference.socket_samples

    def test_numa_gibbs_results_bit_identical_through_fault(self):
        """Satellite: a mid-round worker death never changes marginals."""
        compiled = chain_graph()
        sequential = NumaGibbs(
            compiled, NumaConfig(sockets=4, sync_every=5, workers=0),
            seed=3).run(num_samples=20, burn_in=5)
        config = NumaConfig(sockets=4, sync_every=5, workers=2,
                            pool_min_work=0)
        pool = get_pool(2)
        pool.inject_fault(0, at_sync=1, action="exit")
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
            # a run_replicas fault leaves dirty slots; map must heal too
            pool.inject_fault(0, at_sync=1, action="exit")
            with pytest.warns(RuntimeWarning, match="falling back"):
                assert pool.run_replicas(
                    compiled, sockets=2, seed=0,
                    total_sweeps=10, burn_in=2, sync_every=2) is None
            assert pool.map(len, ["ab", "cde", "f", "gh"]) == [2, 3, 1, 2]


class TestShutdownWhileDispatching:
    def test_close_unblocks_a_hung_dispatch(self):
        """A hung worker + close() from another thread: None, never a hang."""
        compiled = chain_graph(n=10)
        pool = WorkerPool(2)
        pool.inject_fault(0, at_sync=1, action="hang")
        result = {}

        def dispatch():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result["outcome"] = pool.run_replicas(
                    compiled, sockets=2, seed=0,
                    total_sweeps=50, burn_in=5, sync_every=5,
                    timeout=60.0)
            result["finished"] = True

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        # let the dispatch reach the hung rendezvous, then pull the plug
        import time
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
        assert pool.run_replicas(compiled, sockets=2, seed=0,
                                 total_sweeps=4, burn_in=1) is None
        assert pool.map(len, ["ab"]) is None


class TestCloseIdempotence:
    def test_double_close(self):
        pool = WorkerPool(2)
        assert pool.warm()
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
        compiled = chain_graph(n=8)
        with WorkerPool(2) as pool:
            pool.inject_fault(0, at_sync=1, action="raise")
            with pytest.warns(RuntimeWarning,
                              match="worker raised.*injected worker fault"):
                assert pool.run_replicas(
                    compiled, sockets=2, seed=0,
                    total_sweeps=4, burn_in=1) is None
            outcome = pool.run_replicas(
                compiled, sockets=2, seed=0,
                total_sweeps=4, burn_in=1)
            assert outcome is not None

    def test_unknown_fault_action_rejected(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="fault action"):
                pool.inject_fault(0, action="explode")

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
                assert pool.run_replicas(
                    compiled, sockets=2, seed=0,
                    total_sweeps=4, burn_in=1, timeout=1e-6) is None
