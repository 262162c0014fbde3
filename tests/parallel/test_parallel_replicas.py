"""Parallel NUMA replicas: bit-identical determinism, no stale segments,
failure fallback.

Path independence is the property everything here rests on: for any graph
size, worker count and socket count the replica totals are bit-identical
whichever path runs them -- in-process, or the warm pool on its first
(spawning) or a repeat dispatch -- including after the graph's weights or
evidence change in place between dispatches.  Every path is checked
against :func:`independent_chains`, written here with one dedicated
``GibbsSampler(compiled, seed=seed + s)`` per replica, so no path is
judged by code it shares.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.inference.numa as numa_module
from repro import obs
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler, NumaConfig, NumaGibbs
from repro.inference.numa import replica_totals
from repro.parallel import WorkerPool


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


def replica_tasks(sockets, seed, total_sweeps, burn_in):
    return [(seed + s, total_sweeps, burn_in) for s in range(sockets)]


def independent_chains(compiled, sockets, seed, total_sweeps, burn_in):
    """Per-replica ``(post-burn-in totals, samples drawn)``, replica ``s``
    on its own sampler seeded ``seed + s``."""
    outcomes = []
    for s in range(sockets):
        sampler = GibbsSampler(compiled, seed=seed + s)
        world = sampler.initial_assignment()
        totals = np.zeros(compiled.num_variables)
        drawn = 0
        for sweep_index in range(total_sweeps):
            drawn += sampler.sweep(world)
            if sweep_index >= burn_in:
                totals += world
        outcomes.append((totals, drawn))
    return outcomes


def assert_same_outcomes(outcomes, expected):
    assert outcomes is not None
    assert len(outcomes) == len(expected)
    for (totals, drawn), (want_totals, want_drawn) in zip(outcomes, expected):
        assert np.array_equal(totals, want_totals)
        assert drawn == want_drawn


def in_process(compiled, tasks):
    sampler = GibbsSampler(compiled)
    return [replica_totals(sampler, task) for task in tasks]


def run(compiled, workers, **config_kwargs):
    config = NumaConfig(sockets=4, sync_every=5, workers=workers,
                        **config_kwargs)
    return NumaGibbs(compiled, config, seed=3).run(num_samples=20, burn_in=5)


def expected_marginals(compiled, sockets, seed, num_samples, burn_in):
    chains = independent_chains(compiled, sockets, seed,
                                burn_in + num_samples, burn_in)
    marginals = sum(totals for totals, _ in chains) / (sockets * num_samples)
    clamped = compiled.is_evidence
    marginals[clamped] = compiled.evidence_values[clamped]
    return marginals


class TestDeterminism:
    """Parallel == in-process == independent chains, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_marginals_bit_identical(self, workers):
        compiled = chain_graph()
        sequential = run(compiled, workers=0)
        parallel = run(compiled, workers=workers)
        assert np.array_equal(sequential.marginals, parallel.marginals)
        assert np.array_equal(parallel.marginals,
                              expected_marginals(compiled, 4, 3, 20, 5))
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
        tasks = replica_tasks(3, seed=9, total_sweeps=12, burn_in=4)
        reference = independent_chains(compiled, 3, 9, 12, 4)
        assert_same_outcomes(in_process(compiled, tasks), reference)
        with WorkerPool(2) as pool:
            outcomes = pool.map(replica_totals, tasks, graph=compiled)
        assert_same_outcomes(outcomes, reference)


class TestPathIndependence:
    @settings(max_examples=5, deadline=None)
    @given(n=st.integers(min_value=2, max_value=40),
           workers=st.integers(min_value=1, max_value=4),
           sockets=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_totals_bit_identical_on_every_path(self, n, workers, sockets,
                                                seed):
        compiled = chain_graph(n, weight=0.7)
        total_sweeps, burn_in = 12, 4
        tasks = replica_tasks(sockets, seed, total_sweeps, burn_in)
        reference = independent_chains(compiled, sockets, seed,
                                       total_sweeps, burn_in)
        assert_same_outcomes(in_process(compiled, tasks), reference)
        with WorkerPool(workers) as pool:
            for _ in range(2):                   # cold then warm dispatch
                warm = pool.map(replica_totals, tasks, graph=compiled)
                assert_same_outcomes(warm, reference)

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
        assert np.array_equal(pooled.marginals,
                              expected_marginals(compiled, 3, seed, 8, 2))
        assert pooled.samples_drawn == sequential.samples_drawn
        assert pooled.modeled_time == sequential.modeled_time


class TestSegmentCacheInvalidation:
    """A graph mutated in place between two dispatches is repacked, never
    sampled from a stale shared-memory segment."""

    def outcome(self, pool, compiled):
        return pool.map(replica_totals, replica_tasks(3, 7, 15, 5),
                        graph=compiled)

    def reference(self, compiled):
        return independent_chains(compiled, 3, 7, 15, 5)

    def test_weight_mutation_repacks_and_changes_results(self):
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            first = self.outcome(pool, compiled)
            assert_same_outcomes(first, self.reference(compiled))
            # learner-style in-place mutation
            compiled.weight_values[:] = compiled.weight_values * 3.0
            compiled.note_mutation()
            second = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert_same_outcomes(second, self.reference(compiled))
            # sampling the stale weights would have reproduced `first`
            assert not np.array_equal(sum(t for t, _ in second),
                                      sum(t for t, _ in first))

    def test_evidence_mutation_repacks(self):
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.is_evidence[3] = True
            compiled.evidence_values[3] = True
            compiled.note_mutation()
            outcome = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert_same_outcomes(outcome, self.reference(compiled))

    def test_unnoted_mutation_still_detected(self):
        """Even without note_mutation, staging compares the mutable arrays
        against the segment and repacks."""
        compiled = chain_graph(n=16)
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.weight_values[:] = compiled.weight_values * 2.0
            outcome = self.outcome(pool, compiled)   # no note_mutation()
            assert pool.stats["repacks"] >= 1
            assert_same_outcomes(outcome, self.reference(compiled))


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


class TestObservability:
    def test_worker_spans_and_metrics_adopted(self):
        compiled = chain_graph(n=10)
        collector = obs.Collector()
        with obs.installed(collector):
            result = run(compiled, workers=2)
        assert result.samples_drawn > 0
        profile = obs.Profile(spans=collector.roots,
                              metrics=collector.metrics.snapshot())
        assert profile.find("numa.run") is not None
        # each worker shipped its chunk and replica spans back to the
        # parent trace
        assert profile.span_total("parallel.chunk") > 0.0
        assert profile.span_total("numa.replica") > 0.0
