"""Tests for the simulated-NUMA execution layer."""

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs


def chain_graph(n=20, weight=1.0):
    graph = FactorGraph()
    prev = graph.variable("v0")
    graph.add_factor(FactorFunction.IS_TRUE, [prev], graph.weight("unary", 0.5))
    for i in range(1, n):
        cur = graph.variable(f"v{i}")
        graph.add_factor(FactorFunction.EQUAL, [prev, cur],
                         graph.weight("couple", weight))
        prev = cur
    return CompiledGraph(graph)


class TestNumaConfig:
    def test_invalid_sockets(self):
        with pytest.raises(ValueError):
            NumaConfig(sockets=0)

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            NumaConfig(remote_penalty=0.5)

    @pytest.mark.parametrize("removed", [{"engine": "reference"},
                                         {"pool_warm": True},
                                         {"pool_min_work": 0},
                                         {"pool_owner": "shard-00"}])
    def test_removed_fields_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            NumaConfig(**removed)

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            NumaConfig(workers=-1)

    def test_invalid_parallel_mode(self):
        with pytest.raises(ValueError, match="parallel mode"):
            NumaConfig(parallel_mode="threads")

    @pytest.mark.parametrize("sync_every", [0, -1])
    def test_sync_every_below_one_rejected(self, sync_every):
        """``sync_every=0`` used to construct and then divide by zero in
        the cost model; a negative cadence was meaningless."""
        with pytest.raises(ValueError, match="sync_every"):
            NumaConfig(sync_every=sync_every)


class TestChainLength:
    @pytest.mark.parametrize("sockets", [1, 2])
    @pytest.mark.parametrize("num_samples,burn_in", [(0, 5), (-2, 5), (5, -1)])
    def test_empty_chain_rejected(self, sockets, num_samples, burn_in):
        """No samples used to report 0.0 for every free variable, and a
        negative burn-in ran as none."""
        sampler = NumaGibbs(chain_graph(n=5), NumaConfig(sockets=sockets))
        with pytest.raises(ValueError):
            sampler.run(num_samples=num_samples, burn_in=burn_in)


class TestEngineThreading:
    def test_reference_sweeps_produce_identical_runs(self, request):
        """Replica sweeps run the same chain on the scalar oracle, so the
        whole simulated run must agree bit for bit."""
        compiled = chain_graph(n=10)
        chromatic = NumaGibbs(compiled, NumaConfig(sockets=2),
                              seed=3).run(num_samples=30, burn_in=5)
        request.getfixturevalue("reference_sweeps")
        reference = NumaGibbs(compiled, NumaConfig(sockets=2),
                              seed=3).run(num_samples=30, burn_in=5)
        np.testing.assert_array_equal(chromatic.marginals, reference.marginals)
        assert chromatic.modeled_time == reference.modeled_time

    def test_per_socket_cost_reported(self):
        compiled = chain_graph()
        config = NumaConfig(sockets=4, sync_every=5)
        result = NumaGibbs(compiled, config).run(num_samples=10, burn_in=2)
        assert len(result.per_socket_cost) == 4
        assert all(c > 0 for c in result.per_socket_cost)
        # sockets work in parallel: the modeled time covers at least the
        # busiest socket (plus sync rounds)
        assert result.modeled_time >= max(result.per_socket_cost)

    def test_shared_mode_cost_split_across_sockets(self):
        """Non-aware mode runs ONE chain; per-socket cost is each socket's
        share of that chain's interleaved accesses, so the shares sum to
        the sweep part of the modeled time instead of ``sockets`` times it.
        """
        compiled = chain_graph()
        config = NumaConfig(sockets=4, numa_aware=False)
        result = NumaGibbs(compiled, config).run(num_samples=10, burn_in=2)
        assert len(result.per_socket_cost) == 4
        # no sync rounds in shared mode: modeled time is exactly the sweeps
        np.testing.assert_allclose(sum(result.per_socket_cost),
                                   result.modeled_time)


class TestCostModel:
    def test_aware_is_faster(self):
        compiled = chain_graph()
        aware = NumaGibbs(compiled, NumaConfig(sockets=4, numa_aware=True, sync_every=10))
        shared = NumaGibbs(compiled, NumaConfig(sockets=4, numa_aware=False))
        t_aware = aware.run(num_samples=20, burn_in=5).modeled_time
        t_shared = shared.run(num_samples=20, burn_in=5).modeled_time
        assert t_aware < t_shared

    def test_speedup_scales_with_penalty(self):
        compiled = chain_graph()
        result = {}
        for penalty in (2.0, 6.0):
            shared = NumaGibbs(compiled, NumaConfig(
                sockets=4, numa_aware=False, remote_penalty=penalty))
            result[penalty] = shared.run(num_samples=10, burn_in=2).modeled_time
        assert result[6.0] > result[2.0]

    def test_single_socket_no_sync_cost(self):
        compiled = chain_graph()
        single = NumaGibbs(compiled, NumaConfig(sockets=1, numa_aware=True))
        assert single._sync_cost() == 0.0

    def test_frequent_sync_costs_more(self):
        compiled = chain_graph()
        tight = NumaGibbs(compiled, NumaConfig(sockets=4, sync_every=1))
        loose = NumaGibbs(compiled, NumaConfig(sockets=4, sync_every=25))
        t_tight = tight.run(num_samples=25, burn_in=0).modeled_time
        t_loose = loose.run(num_samples=25, burn_in=0).modeled_time
        assert t_tight > t_loose


class TestStatisticalBehaviour:
    def test_replica_marginals_close_to_single_chain(self):
        compiled = chain_graph(n=8, weight=0.8)
        aware = NumaGibbs(compiled, NumaConfig(sockets=4, sync_every=5), seed=0)
        single = NumaGibbs(compiled, NumaConfig(sockets=1), seed=1)
        m_aware = aware.run(num_samples=800, burn_in=100).marginals
        m_single = single.run(num_samples=3000, burn_in=100).marginals
        np.testing.assert_allclose(m_aware, m_single, atol=0.08)

    def test_throughput_reported(self):
        compiled = chain_graph()
        result = NumaGibbs(compiled, NumaConfig(sockets=2)).run(num_samples=10, burn_in=2)
        assert result.samples_drawn > 0
        assert result.modeled_throughput > 0

    def test_evidence_clamped_in_output(self):
        graph = FactorGraph()
        a = graph.variable("a")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("w", -3.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        result = NumaGibbs(compiled, NumaConfig(sockets=2)).run(num_samples=20, burn_in=2)
        assert result.marginals[compiled.variable_index("a")] == 1.0
