"""Parallel NUMA replicas: bit-identical determinism and failure fallback."""

import numpy as np
import pytest

import repro.inference.numa as numa_module
from repro import obs
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs
from repro.parallel import WorkerPool, get_pool


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
    config_kwargs.setdefault("pool_min_work", 0)   # tiny graphs: still dispatch
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
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert get_pool(2, mode="fork", owner="no-fork-here") is None
        compiled = chain_graph()
        sequential = run(compiled, workers=0)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            fallback = run(compiled, workers=2, parallel_mode="fork",
                           pool_owner="no-fork-here")
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
