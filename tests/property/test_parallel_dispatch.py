"""Property tests for adaptive dispatch and path-independence of results.

Two properties the warm-pool refactor must never break:

* **path independence** — for any graph size, worker count, and socket
  count, the marginal totals are bit-identical whichever execution path
  runs them: the sequential reference loop, or the warm pool on its
  first (spawning) or a repeat dispatch.  The dispatcher may therefore route freely on
  pure performance grounds without changing a single result bit.
* **decision determinism** — the dispatcher is a pure function of the
  graph's sizes and the engine config: same inputs, same decision, every
  time; and monotone in the threshold (raising ``pool_min_work`` can only
  move work toward the sequential path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs
from repro.obs.config import EngineConfig
from repro.parallel import WorkerPool, decide_map, decide_replicas


def chain_graph(n, weight=0.7):
    graph = FactorGraph()
    prev = graph.variable("v0")
    graph.add_factor(FactorFunction.IS_TRUE, [prev], graph.weight("u", 0.4))
    for i in range(1, n):
        cur = graph.variable(f"v{i}")
        graph.add_factor(FactorFunction.EQUAL, [prev, cur],
                         graph.weight("c", weight))
        prev = cur
    return CompiledGraph(graph)


class TestPathIndependence:
    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40),
           workers=st.integers(min_value=1, max_value=4),
           sockets=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_totals_bit_identical_on_every_path(self, n, workers, sockets,
                                                seed):
        compiled = chain_graph(n)
        total_sweeps, burn_in, sync_every = 12, 4, 3
        sampler = NumaGibbs(compiled,
                            NumaConfig(sockets=sockets,
                                       sync_every=sync_every), seed=seed)
        reference = sampler._run_replicas_sequential(total_sweeps, burn_in)
        with WorkerPool(workers) as pool:
            for _ in range(2):                   # cold then warm dispatch
                warm = pool.run_replicas(
                    compiled, sockets=sockets, seed=seed,
                    total_sweeps=total_sweeps, burn_in=burn_in,
                    sync_every=sync_every)
                assert warm is not None
                assert np.array_equal(warm.totals, reference.totals)
                assert warm.socket_samples == reference.socket_samples

    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(min_value=2, max_value=30),
           min_work=st.sampled_from([0, 10 ** 4, 10 ** 9]),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_marginals_identical_whichever_path_the_dispatcher_picks(
            self, n, min_work, seed):
        """NumaGibbs output never depends on the dispatcher's routing."""
        compiled = chain_graph(n)
        sequential = NumaGibbs(
            compiled, NumaConfig(sockets=3, sync_every=4, workers=0),
            seed=seed).run(num_samples=8, burn_in=2)
        routed = NumaGibbs(
            compiled, NumaConfig(sockets=3, sync_every=4, workers=2,
                                 pool_min_work=min_work),
            seed=seed).run(num_samples=8, burn_in=2)
        assert np.array_equal(sequential.marginals, routed.marginals)
        assert routed.samples_drawn == sequential.samples_drawn
        assert routed.modeled_time == sequential.modeled_time


class TestDecisionDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=200),
           sockets=st.integers(min_value=1, max_value=8),
           total_sweeps=st.integers(min_value=0, max_value=200),
           workers=st.integers(min_value=0, max_value=8),
           min_work=st.integers(min_value=0, max_value=10 ** 7))
    def test_replica_decision_deterministic_and_consistent(
            self, n, sockets, total_sweeps, workers, min_work):
        compiled = chain_graph(n)
        first = decide_replicas(compiled, sockets=sockets,
                                total_sweeps=total_sweeps, workers=workers,
                                min_work=min_work)
        again = decide_replicas(compiled, sockets=sockets,
                                total_sweeps=total_sweeps, workers=workers,
                                min_work=min_work)
        assert first == again                    # pure function of inputs
        if workers <= 0:
            assert first.path == "sequential"
        else:
            assert first.use_pool == (first.work >= min_work)

    @settings(max_examples=30, deadline=None)
    @given(chars=st.integers(min_value=0, max_value=10 ** 7),
           workers=st.integers(min_value=0, max_value=8),
           low=st.integers(min_value=0, max_value=10 ** 6),
           bump=st.integers(min_value=0, max_value=10 ** 6))
    def test_map_decision_monotone_in_threshold(self, chars, workers, low,
                                                bump):
        """Raising pool_min_work can only move work toward sequential."""
        at_low = decide_map(chars, workers=workers, min_work=low)
        at_high = decide_map(chars, workers=workers, min_work=low + bump)
        assert at_low == decide_map(chars, workers=workers, min_work=low)
        if at_high.use_pool:
            assert at_low.use_pool

    def test_decision_pure_function_of_engine_config(self):
        """Same EngineConfig, same graph: byte-for-byte the same decision."""
        compiled = chain_graph(20)
        config = EngineConfig(workers=4, pool_min_work=5_000)
        decisions = [decide_replicas(compiled, sockets=config.numa_sockets,
                                     total_sweeps=50, workers=config.workers,
                                     min_work=config.pool_min_work)
                     for _ in range(3)]
        assert decisions[0] == decisions[1] == decisions[2]
        assert decisions[0].threshold == 5_000
