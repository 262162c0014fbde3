"""Exact-inference oracle tests: the enumerator itself, and the chromatic
vectorized Gibbs engine measured against it.

The random graphs cover every general factor function (IMPLY/AND/OR/EQUAL),
negated literals, unary feature factors, and evidence clamping -- the full
semantic surface the sweep has to get right.
"""

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler
from tests.inference.exact import (enumerate_worlds, exact_marginals,
                                   world_log_weights)


def random_graph(seed: int, num_variables: int = 7,
                 with_evidence: bool = True) -> FactorGraph:
    """A small random graph exercising every factor function and negation."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    for i in range(num_variables):
        graph.variable(i)
        if rng.random() < 0.8:
            graph.add_factor(
                FactorFunction.IS_TRUE, [i],
                graph.weight(("u", i), float(rng.normal(0, 1))),
                negated=[bool(rng.random() < 0.3)])
    functions = [FactorFunction.IMPLY, FactorFunction.AND,
                 FactorFunction.OR, FactorFunction.EQUAL]
    for f in range(6):
        function = functions[int(rng.integers(len(functions)))]
        arity = 2 if function == FactorFunction.EQUAL else int(rng.integers(2, 4))
        members = [int(v) for v in
                   rng.choice(num_variables, size=arity, replace=False)]
        negated = [bool(b) for b in rng.random(arity) < 0.3]
        weight = graph.weight(("g", f), float(rng.normal(0, 1)))
        graph.add_factor(function, members, weight, negated=negated)
    if with_evidence:
        for v in rng.choice(num_variables, size=2, replace=False):
            graph.set_evidence(int(v), bool(rng.random() < 0.5))
    return graph


class TestOracle:
    """The enumerator must agree with an independent per-world computation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_log_weights_match_scalar_evaluation(self, seed):
        compiled = CompiledGraph(random_graph(seed))
        worlds = enumerate_worlds(compiled, clamp_evidence=False)
        vectorized = world_log_weights(compiled, worlds)
        weights = compiled.weight_values
        scalar = np.array([np.dot(compiled.unary_value_sums(w), weights)
                           + np.dot(compiled.general_value_sums(w), weights)
                           for w in worlds])
        np.testing.assert_allclose(vectorized, scalar, atol=1e-12)

    def test_single_variable_closed_form(self):
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 1.5))
        compiled = CompiledGraph(graph)
        result = exact_marginals(compiled)
        expected = np.exp(1.5) / (1.0 + np.exp(1.5))
        assert result.marginals[0] == pytest.approx(expected)
        assert result.log_partition == pytest.approx(np.log(1.0 + np.exp(1.5)))
        assert result.num_worlds == 2
        assert dict(zip(compiled.var_keys, result.marginals)) == {
            "x": pytest.approx(expected)}

    def test_evidence_clamps_enumeration(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("w", 2.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        clamped = exact_marginals(compiled, clamp_evidence=True)
        assert clamped.num_worlds == 2
        assert clamped.marginals[compiled.var_keys.index("a")] == 1.0
        expected_b = np.exp(2.0) / (np.exp(2.0) + 1.0)
        assert clamped.marginals[compiled.var_keys.index("b")] == \
            pytest.approx(expected_b)
        free = exact_marginals(compiled, clamp_evidence=False)
        assert free.num_worlds == 4
        assert free.marginals[compiled.var_keys.index("a")] == pytest.approx(0.5)

    def test_refuses_oversized_enumeration(self):
        graph = FactorGraph()
        for i in range(22):
            graph.variable(i)
            graph.add_factor(FactorFunction.IS_TRUE, [i],
                             graph.weight(("w", i), 0.1))
        compiled = CompiledGraph(graph)
        with pytest.raises(ValueError, match="free"):
            exact_marginals(compiled)
        # a tighter explicit ceiling also applies
        with pytest.raises(ValueError):
            exact_marginals(compiled, max_free_variables=5)


class TestGibbsMatchesOracle:
    """Chromatic-engine marginals must converge to the exact marginals."""

    @pytest.mark.parametrize("seed", range(4))
    def test_clamped_chain_converges(self, seed):
        compiled = CompiledGraph(random_graph(seed))
        sampler = GibbsSampler(compiled, seed=100 + seed)
        estimated = sampler.marginals(num_samples=8000, burn_in=400)
        expected = exact_marginals(compiled)
        np.testing.assert_allclose(estimated.marginals, expected.marginals,
                                   atol=0.03)

    @pytest.mark.parametrize("seed", range(2))
    def test_free_chain_converges(self, seed):
        compiled = CompiledGraph(random_graph(seed))
        sampler = GibbsSampler(compiled, seed=200 + seed,
                               clamp_evidence=False)
        estimated = sampler.marginals(num_samples=8000, burn_in=400)
        expected = exact_marginals(compiled, clamp_evidence=False)
        np.testing.assert_allclose(estimated.marginals, expected.marginals,
                                   atol=0.03)

    def test_every_factor_function_in_isolation(self):
        cases = [
            (FactorFunction.IMPLY, 3, [False, True, False]),
            (FactorFunction.AND, 2, [True, False]),
            (FactorFunction.OR, 3, [False, False, True]),
            (FactorFunction.EQUAL, 2, [True, False]),
        ]
        for function, arity, negated in cases:
            graph = FactorGraph()
            for i in range(arity):
                graph.variable(i)
                graph.add_factor(FactorFunction.IS_TRUE, [i],
                                 graph.weight(("u", i), 0.4 * (i - 1)))
            graph.add_factor(function, list(range(arity)),
                             graph.weight("g", 1.3), negated=negated)
            compiled = CompiledGraph(graph)
            estimated = GibbsSampler(compiled, seed=9).marginals(
                num_samples=8000, burn_in=400)
            expected = exact_marginals(compiled)
            np.testing.assert_allclose(
                estimated.marginals, expected.marginals, atol=0.03,
                err_msg=f"function={function.name}")


class TestEngineEquivalence:
    """sweep() and sweep_reference() are the same chain, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("clamp", [True, False])
    def test_identical_trajectories(self, seed, clamp):
        compiled = CompiledGraph(random_graph(seed))
        chromatic = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp)
        reference = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp)
        world_c = chromatic.initial_assignment()
        world_r = reference.initial_assignment()
        np.testing.assert_array_equal(world_c, world_r)
        for sweep in range(50):
            sampled_c = chromatic.sweep(world_c)
            sampled_r = reference.sweep_reference(world_r)
            assert sampled_c == sampled_r
            np.testing.assert_array_equal(world_c, world_r,
                                          err_msg=f"diverged at sweep {sweep}")

    def test_identical_marginal_results(self, request):
        compiled = CompiledGraph(random_graph(3))
        m_chromatic = GibbsSampler(compiled, seed=7) \
            .marginals(num_samples=300, burn_in=30)
        request.getfixturevalue("reference_sweeps")
        m_reference = GibbsSampler(compiled, seed=7) \
            .marginals(num_samples=300, burn_in=30)
        np.testing.assert_array_equal(m_chromatic.marginals,
                                      m_reference.marginals)

    def test_engine_is_not_an_option(self):
        compiled = CompiledGraph(random_graph(0))
        with pytest.raises(TypeError):
            GibbsSampler(compiled, engine="reference")
