"""Tests for MAP inference via annealed Gibbs."""

import itertools

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler, map_inference, world_log_weight


def exact_map(compiled):
    best, best_score = None, -np.inf
    n = compiled.num_variables
    for bits in itertools.product([False, True], repeat=n):
        world = np.array(bits)
        if compiled.is_evidence.any():
            clamped = compiled.is_evidence
            if not (world[clamped] == compiled.evidence_values[clamped]).all():
                continue
        score = world_log_weight(compiled, world)
        if score > best_score:
            best, best_score = world, score
    return best, best_score


def check_matches_exact(graph, sweeps=150, seed=0):
    compiled = CompiledGraph(graph)
    result = map_inference(compiled, sweeps=sweeps, seed=seed)
    _, exact_score = exact_map(compiled)
    assert result.log_weight == pytest.approx(exact_score)


class TestMapInference:
    def test_unary_graph(self):
        graph = FactorGraph()
        for i, weight in enumerate([2.0, -1.5, 0.3]):
            v = graph.variable(i)
            graph.add_factor(FactorFunction.IS_TRUE, [v],
                             graph.weight(("w", i), weight))
        check_matches_exact(graph)

    def test_coupled_graph(self):
        graph = FactorGraph()
        a, b, c = (graph.variable(i) for i in range(3))
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", 1.0))
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("we", 2.0))
        graph.add_factor(FactorFunction.IMPLY, [b, c], graph.weight("wi", 1.5))
        check_matches_exact(graph)

    def test_frustrated_graph(self):
        # competing factors: a wants on, a==b coupling, b wants off
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", 1.2))
        graph.add_factor(FactorFunction.IS_TRUE, [b], graph.weight("wb", -2.0))
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("we", 0.5))
        check_matches_exact(graph)

    def test_evidence_respected(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("w", -5.0))
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("we", 2.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        result = map_inference(compiled, sweeps=100, seed=1)
        by_key = result.by_key(compiled)
        assert by_key["a"] is True   # clamped despite the negative weight
        assert by_key["b"] is True   # follows through the EQUAL factor

    def test_returns_best_seen_not_last(self):
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 3.0))
        compiled = CompiledGraph(graph)
        result = map_inference(compiled, sweeps=50, seed=0)
        assert result.log_weight == pytest.approx(3.0)
        assert result.assignment[0]

    def test_one_sweep_samples(self):
        """``sweeps=1`` runs its sweep instead of returning the random
        initial world."""
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 50.0))
        compiled = CompiledGraph(graph)
        for seed in range(6):
            result = map_inference(compiled, sweeps=1, seed=seed)
            assert result.assignment.tolist() == [True]
            assert result.log_weight == 50.0

    @pytest.mark.parametrize("sweeps", [0, -3])
    def test_rejects_no_sweeps(self, sweeps):
        graph = FactorGraph()
        graph.variable("x")
        with pytest.raises(ValueError, match="sweeps"):
            map_inference(CompiledGraph(graph), sweeps=sweeps)

    @pytest.mark.parametrize("temperatures", [
        {"beta_start": 0.0}, {"beta_start": -1.0}, {"beta_end": 0.0},
        {"beta_end": -2.0}, {"beta_start": float("nan")},
        {"beta_end": float("nan")}, {"beta_start": float("inf")},
        {"beta_end": float("inf")}])
    def test_rejects_temperatures_it_cannot_anneal(self, temperatures):
        """A zero start divided by zero, a negative one made the geometric
        ratio complex, and a zero or NaN end returned a "MAP" world
        silently; each is rejected before sampling."""
        graph = FactorGraph()
        graph.variable("x")
        (name,) = temperatures
        with pytest.raises(ValueError, match=name):
            map_inference(CompiledGraph(graph), sweeps=5, **temperatures)

    def test_annealed_sweep_matches_scalar_oracle(self):
        """The annealed sweep is the chromatic kernel with its deltas
        scaled by beta; the scalar oracle at the same beta is bit-identical."""
        graph = FactorGraph()
        names = [graph.variable(i) for i in range(6)]
        for i in range(6):
            graph.add_factor(FactorFunction.IS_TRUE, [names[i]],
                             graph.weight(("u", i), 0.3 * (i - 2)))
        a, b, c, d, e, _ = names
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("e", 1.1))
        graph.add_factor(FactorFunction.IMPLY, [b, c, d],
                         graph.weight("i", -0.7), negated=[False, True, False])
        graph.add_factor(FactorFunction.OR, [d, e, e], graph.weight("o", 0.9))
        graph.add_factor(FactorFunction.AND, [a, e], graph.weight("a", 1.3))
        compiled = CompiledGraph(graph)
        fast = GibbsSampler(compiled, seed=5)
        slow = GibbsSampler(compiled, seed=5)
        world, reference = fast.initial_assignment(), slow.initial_assignment()
        for beta in np.geomspace(0.5, 8.0, 40):
            fast.sweep(world, beta=beta)
            slow.sweep_reference(reference, beta)
            np.testing.assert_array_equal(world, reference)

    def test_deterministic_under_seed(self):
        graph = FactorGraph()
        for i in range(4):
            v = graph.variable(i)
            graph.add_factor(FactorFunction.IS_TRUE, [v],
                             graph.weight(("w", i), 0.1 * (i - 2)))
        compiled = CompiledGraph(graph)
        r1 = map_inference(compiled, sweeps=30, seed=9)
        r2 = map_inference(compiled, sweeps=30, seed=9)
        np.testing.assert_array_equal(r1.assignment, r2.assignment)
