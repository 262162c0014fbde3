"""Tests for the incremental-inference materialization strategies."""

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.grounding import (ChainState, SamplingMaterialization,
                             VariationalMaterialization, choose_strategy,
                             refresh)
from repro.inference import GibbsSampler


def star_graph(spokes=6, coupling=1.0, bias=0.8):
    """A hub variable EQUAL-coupled to several spoke variables."""
    graph = FactorGraph()
    hub = graph.variable("hub")
    graph.add_factor(FactorFunction.IS_TRUE, [hub], graph.weight("bias", bias))
    for i in range(spokes):
        spoke = graph.variable(f"spoke{i}")
        graph.add_factor(FactorFunction.EQUAL, [hub, spoke],
                         graph.weight("couple", coupling))
    return CompiledGraph(graph)


def independent_graph(n=50, bias=1.0):
    graph = FactorGraph()
    for i in range(n):
        v = graph.variable(f"v{i}")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", bias))
    return CompiledGraph(graph)


class TestSamplingMaterialization:
    def test_neighbourhood_radius(self):
        compiled = star_graph()
        strategy = SamplingMaterialization(compiled, seed=0,
                                           num_samples=20, burn_in=5)
        hub = compiled.var_keys.index("hub")
        spoke = compiled.var_keys.index("spoke0")
        mask0 = strategy.neighbourhood({spoke}, radius=0)
        assert mask0.sum() == 1
        mask1 = strategy.neighbourhood({spoke}, radius=1)
        assert mask1[hub]
        mask2 = strategy.neighbourhood({spoke}, radius=2)
        assert mask2.sum() == compiled.num_variables  # hub reaches all spokes

    def test_update_work_scales_with_region(self):
        compiled = star_graph(spokes=10)
        strategy = SamplingMaterialization(compiled, seed=0,
                                           num_samples=20, burn_in=5)
        small = strategy.update({compiled.var_keys.index("spoke0")}, radius=0,
                                num_samples=10, burn_in=2)
        large = strategy.update({compiled.var_keys.index("spoke0")}, radius=2,
                                num_samples=10, burn_in=2)
        assert small.work < large.work

    def test_update_tracks_weight_change(self):
        compiled = independent_graph(n=10, bias=2.0)
        strategy = SamplingMaterialization(compiled, seed=1,
                                           num_samples=200, burn_in=20)
        before = strategy.marginals.mean()
        assert before > 0.7
        compiled.weight_values[0] = -2.0
        result = strategy.update(set(range(10)), radius=0,
                                 num_samples=200, burn_in=20)
        assert result.marginals.mean() < 0.3

    def test_materialization_work_recorded(self):
        compiled = independent_graph(n=5)
        strategy = SamplingMaterialization(compiled, seed=0,
                                           num_samples=10, burn_in=5)
        assert strategy.materialization_work == 15 * 5


    def test_frontier_never_written(self):
        compiled = star_graph(spokes=6)
        strategy = SamplingMaterialization(compiled, seed=0,
                                           num_samples=20, burn_in=5)
        spoke = compiled.var_keys.index("spoke0")
        region = strategy.neighbourhood({spoke}, radius=1)
        before = strategy.world.copy()
        marginals = strategy.marginals.copy()
        result = strategy.update({spoke}, radius=1, num_samples=30, burn_in=5)
        assert result.work == region.sum() * 35
        np.testing.assert_array_equal(strategy.world[~region], before[~region])
        np.testing.assert_array_equal(result.marginals[~region],
                                      marginals[~region])

    def test_update_is_the_sweep_loop(self):
        """The served refresh runs one chain (``run_chain``): marginals,
        world, work and the stream it continues are those of a per-sweep
        loop on the scalar oracle.  The hub's region reads every clamped
        spoke."""
        compiled = star_graph(spokes=12)
        compiled.is_evidence[compiled.var_keys.index("spoke3")] = True
        strategy, expected = (SamplingMaterialization(
            compiled, seed=3, num_samples=20, burn_in=5) for _ in range(2))
        for changed, radius in (({"spoke0"}, 1), ({"hub"}, 0),
                                ({"spoke5", "spoke7"}, 1)):
            changed = {compiled.var_keys.index(key) for key in changed}
            result = strategy.update(changed, radius=radius,
                                     num_samples=30, burn_in=4)
            sampler = GibbsSampler(
                compiled, seed=expected.rng,
                region=expected.neighbourhood(changed, radius))
            active = np.flatnonzero(~sampler.clamped)
            totals = np.zeros(len(active))
            work = 0.0
            for sweep in range(34):
                work += sampler.sweep_reference(expected.world)
                if sweep >= 4:
                    totals += expected.world[active]
            expected.marginals[active] = totals / 30
            np.testing.assert_array_equal(result.marginals, expected.marginals)
            np.testing.assert_array_equal(strategy.world, expected.world)
            assert result.work == work
        np.testing.assert_array_equal(strategy.rng.random(3),
                                      expected.rng.random(3))

    def test_refresh_rejects_degenerate_chains(self):
        """A refresh that would estimate nothing fails before it samples,
        instead of flipping the world and publishing the stored marginal."""
        graph = FactorGraph()
        x = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [x], graph.weight("w", 3.0))
        compiled = CompiledGraph(graph)
        state = ChainState(("x",), np.array([False]), np.array([0.25]),
                           np.array([0.25]))
        for bad in ({"num_samples": 0}, {"burn_in": -1}, {"radius": -1}):
            with pytest.raises(ValueError):
                refresh(state, compiled, {"x"}, seed=0, **bad)
        assert state.world.tolist() == [False]
        assert state.marginals.tolist() == [0.25]


class TestVariationalMaterialization:
    def test_independent_graph_exact(self):
        compiled = independent_graph(n=20, bias=1.0)
        strategy = VariationalMaterialization(compiled)
        from repro.inference import sigmoid
        np.testing.assert_allclose(strategy.mu, sigmoid(1.0), atol=1e-3)

    def test_star_graph_reasonable(self):
        compiled = star_graph(spokes=4, coupling=0.8, bias=1.0)
        strategy = VariationalMaterialization(compiled)
        # positively biased hub plus positive coupling: everything > 0.5
        assert (strategy.mu > 0.5).all()

    def test_update_after_weight_flip(self):
        compiled = independent_graph(n=10, bias=1.5)
        strategy = VariationalMaterialization(compiled)
        compiled.weight_values[0] = -1.5
        result = strategy.update(set(range(10)))
        assert (result.marginals < 0.3).all()

    def test_evidence_respected(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("w", 2.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        strategy = VariationalMaterialization(compiled)
        assert strategy.mu[compiled.var_keys.index("a")] == 1.0
        assert strategy.mu[compiled.var_keys.index("b")] > 0.7

    def test_work_recorded(self):
        compiled = independent_graph(n=5)
        strategy = VariationalMaterialization(compiled)
        assert strategy.materialization_work > 0


class TestAgreement:
    def test_strategies_agree_on_weak_coupling(self):
        compiled = star_graph(spokes=4, coupling=0.4, bias=0.6)
        sampling = SamplingMaterialization(compiled, seed=0,
                                           num_samples=3000, burn_in=200)
        variational = VariationalMaterialization(compiled)
        np.testing.assert_allclose(sampling.marginals, variational.mu, atol=0.12)


class TestOptimizer:
    def test_few_changes_sparse_graph_prefers_sampling(self):
        compiled = independent_graph(n=2000)
        choice = choose_strategy(compiled, expected_updates=1,
                                 expected_change_size=5)
        assert choice.strategy == "sampling"

    def test_many_changes_prefer_variational(self):
        compiled = independent_graph(n=100)
        choice = choose_strategy(compiled, expected_updates=1000,
                                 expected_change_size=80)
        assert choice.strategy == "variational"

    def test_choice_records_inputs(self):
        compiled = star_graph()
        choice = choose_strategy(compiled, expected_updates=3,
                                 expected_change_size=2)
        assert choice.expected_updates == 3
        assert 0 <= choice.affected_fraction <= 1
