"""Parallel NUMA replicas: bit-identical determinism, no stale segments,
failure fallback.

Path independence is the property everything here rests on: for any graph
size, worker count and socket count the replica totals are bit-identical
whichever path runs them -- the sequential reference loop, or the warm
pool on its first (spawning) or a repeat dispatch -- including after the
graph's weights or evidence change in place between dispatches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.inference.numa as numa_module
from repro import obs
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs
from repro.parallel import WorkerPool, get_pool, shutdown_pools


def chain_graph(n=24, weight=0.8):
    graph = FactorGraph()
    prev = graph.variable("v0")
    graph.add_factor(FactorFunction.IS_TRUE, [prev], graph.weight("u", 0.5))
    for i in range(1, n):
        cur = graph.variable(f"v{i}")
        graph.add_factor(FactorFunction.EQUAL, [prev, cur],
                         graph.weight("c", weight))
        prev = cur
    return CompiledGraph(graph)


def run(compiled, workers, **config_kwargs):
    config = NumaConfig(sockets=4, sync_every=5, workers=workers,
                        **config_kwargs)
    return NumaGibbs(compiled, config, seed=3).run(num_samples=20, burn_in=5)


class TestDeterminism:
    """Satellite: parallel == sequential, bit for bit, at 2 and 4 workers."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_marginals_bit_identical(self, workers):
        compiled = chain_graph()
        sequential = run(compiled, workers=0)
        parallel = run(compiled, workers=workers)
        assert np.array_equal(sequential.marginals, parallel.marginals)
        assert parallel.samples_drawn == sequential.samples_drawn
        assert parallel.modeled_time == sequential.modeled_time
        assert parallel.per_socket_cost == sequential.per_socket_cost

    def test_more_workers_than_sockets_clamped(self):
        compiled = chain_graph(n=10)
        sequential = run(compiled, workers=0)
        parallel = run(compiled, workers=16)
        assert np.array_equal(sequential.marginals, parallel.marginals)

    def test_outcome_totals_match_sequential_loop(self):
        compiled = chain_graph(n=10)
        sampler = NumaGibbs(compiled, NumaConfig(sockets=3, sync_every=2),
                            seed=9)
        reference = sampler._run_replicas_sequential(total_sweeps=12,
                                                     burn_in=4)
        with WorkerPool(2) as pool:
            outcome = pool.run_replicas(
                compiled, sockets=3, seed=9, total_sweeps=12, burn_in=4,
                sync_every=2)
        assert outcome is not None
        assert np.array_equal(outcome.totals, reference.totals)
        assert outcome.socket_samples == reference.socket_samples


class TestPathIndependence:
    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40),
           workers=st.integers(min_value=1, max_value=4),
           sockets=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_totals_bit_identical_on_every_path(self, n, workers, sockets,
                                                seed):
        compiled = chain_graph(n, weight=0.7)
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
           workers=st.integers(min_value=0, max_value=3),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_numa_gibbs_marginals_identical_at_any_worker_count(
            self, n, workers, seed):
        compiled = chain_graph(n, weight=0.7)
        sequential = NumaGibbs(
            compiled, NumaConfig(sockets=3, sync_every=4, workers=0),
            seed=seed).run(num_samples=8, burn_in=2)
        pooled = NumaGibbs(
            compiled, NumaConfig(sockets=3, sync_every=4, workers=workers),
            seed=seed).run(num_samples=8, burn_in=2)
        assert np.array_equal(sequential.marginals, pooled.marginals)
        assert pooled.samples_drawn == sequential.samples_drawn
        assert pooled.modeled_time == sequential.modeled_time


class TestSegmentCacheInvalidation:
    """A graph mutated in place between two dispatches is repacked, never
    sampled from a stale shared-memory segment."""

    def outcome(self, pool, compiled):
        return pool.run_replicas(compiled, sockets=3, seed=7,
                                 total_sweeps=15, burn_in=5, sync_every=5)

    def reference(self, compiled):
        sampler = NumaGibbs(compiled, NumaConfig(sockets=3, sync_every=5),
                            seed=7)
        return sampler._run_replicas_sequential(15, 5)

    def test_weight_mutation_repacks_and_changes_results(self):
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            first = self.outcome(pool, compiled)
            assert np.array_equal(first.totals,
                                  self.reference(compiled).totals)
            # learner-style in-place mutation
            compiled.weight_values[:] = compiled.weight_values * 3.0
            compiled.note_mutation()
            second = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(second.totals,
                                  self.reference(compiled).totals)
            # sampling the stale weights would have reproduced `first`
            assert not np.array_equal(second.totals, first.totals)

    def test_evidence_mutation_repacks(self):
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.is_evidence[3] = True
            compiled.evidence_values[3] = True
            compiled.note_mutation()
            outcome = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(outcome.totals,
                                  self.reference(compiled).totals)

    def test_unnoted_mutation_still_detected(self):
        """Even without note_mutation, staging compares the mutable arrays
        against the segment and repacks."""
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.weight_values[:] = compiled.weight_values * 2.0
            outcome = self.outcome(pool, compiled)   # no note_mutation()
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(outcome.totals,
                                  self.reference(compiled).totals)


class TestFailureFallback:
    def test_numa_gibbs_falls_back_to_sequential(self, monkeypatch):
        """A dead parallel backend must not change NumaGibbs results."""
        compiled = chain_graph()
        sequential = run(compiled, workers=0)
        monkeypatch.setattr(numa_module, "get_pool",
                            lambda *args, **kwargs: None)
        fallback = run(compiled, workers=4)
        assert np.array_equal(sequential.marginals, fallback.marginals)
        assert fallback.samples_drawn == sequential.samples_drawn

    def test_unavailable_mode_warns_and_falls_back(self, monkeypatch):
        import repro.parallel.warm as warm_module
        monkeypatch.setattr(warm_module.mp, "get_all_start_methods",
                            lambda: ["spawn"])
        shutdown_pools()                         # no cached fork pool
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert get_pool(2, mode="fork") is None
        compiled = chain_graph()
        sequential = run(compiled, workers=0)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            fallback = run(compiled, workers=2, parallel_mode="fork")
        assert np.array_equal(sequential.marginals, fallback.marginals)


class TestObservability:
    def test_worker_spans_and_metrics_adopted(self):
        compiled = chain_graph(n=10)
        collector = obs.Collector()
        with obs.installed(collector):
            result = run(compiled, workers=2)
        assert result.samples_drawn > 0
        profile = obs.Profile(spans=collector.roots,
                              metrics=collector.metrics.snapshot())
        assert profile.find("numa.parallel_replicas") is not None
        # each worker shipped its replica span back to the parent trace
        assert profile.span_total("numa.replica_worker") > 0.0
