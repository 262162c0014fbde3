"""Unit tests for the mutable factor graph."""

import pytest

from repro.factorgraph import FactorFunction, FactorGraph, GraphError


@pytest.fixture
def graph():
    return FactorGraph()


class TestVariables:
    def test_variable_created_once(self, graph):
        a = graph.variable("x")
        b = graph.variable("x")
        assert a == b
        assert graph.num_variables == 1

    def test_has_variable(self, graph):
        graph.variable("x")
        assert graph.has_variable("x")
        assert not graph.has_variable("y")

    def test_variable_id_missing_raises(self, graph):
        with pytest.raises(GraphError):
            graph.variable_id("nope")

    def test_set_evidence(self, graph):
        graph.variable("x")
        graph.set_evidence("x", True)
        assert graph.variables[graph.variable_id("x")].evidence is True
        graph.set_evidence("x", None)
        assert graph.variables[graph.variable_id("x")].evidence is None


class TestWeights:
    def test_weight_tying(self, graph):
        a = graph.weight(("phrase", "and his wife"))
        b = graph.weight(("phrase", "and his wife"))
        assert a == b
        assert graph.num_weights == 1

    def test_distinct_keys_distinct_weights(self, graph):
        assert graph.weight("a") != graph.weight("b")

    def test_fixed_weight(self, graph):
        wid = graph.weight("hard", initial_value=10.0, fixed=True)
        assert graph.weights[wid].fixed
        assert graph.weights[wid].value == 10.0


class TestFactors:
    def test_add_factor_links_variables(self, graph):
        v = graph.variable("x")
        w = graph.weight("w")
        fid = graph.add_factor(FactorFunction.IS_TRUE, [v], w)
        assert graph.factors_of(v) == [fid]
        assert graph.variables[v].factor_count == 1
        assert graph.weights[w].observations == 1

    def test_arity_enforced(self, graph):
        v = graph.variable("x")
        w = graph.weight("w")
        with pytest.raises(GraphError):
            graph.add_factor(FactorFunction.IS_TRUE, [v, v], w)
        with pytest.raises(GraphError):
            graph.add_factor(FactorFunction.EQUAL, [v], w)

    def test_unknown_variable_rejected(self, graph):
        w = graph.weight("w")
        with pytest.raises(GraphError):
            graph.add_factor(FactorFunction.IS_TRUE, [99], w)

    def test_unknown_weight_rejected(self, graph):
        v = graph.variable("x")
        with pytest.raises(GraphError):
            graph.add_factor(FactorFunction.IS_TRUE, [v], 99)

    def test_negated_mask_length_checked(self, graph):
        v = graph.variable("x")
        w = graph.weight("w")
        with pytest.raises(GraphError):
            graph.add_factor(FactorFunction.IS_TRUE, [v], w, negated=[True, False])

    def test_remove_factor(self, graph):
        v = graph.variable("x")
        w = graph.weight("w")
        fid = graph.add_factor(FactorFunction.IS_TRUE, [v], w)
        graph.remove_factor(fid)
        assert graph.num_factors == 0
        assert graph.weights[w].observations == 0
        assert graph.factors_of(v) == []
        assert graph.variables[v].factor_count == 0
        assert fid not in graph.factors

    def test_remove_variable_removes_factors(self, graph):
        v1 = graph.variable("x")
        v2 = graph.variable("y")
        w = graph.weight("w")
        graph.add_factor(FactorFunction.EQUAL, [v1, v2], w)
        graph.remove_variable("x")
        assert graph.num_factors == 0
        assert graph.factors_of(v2) == []
        assert graph.variables[v2].factor_count == 0
        assert v1 not in graph.variables


class TestStats:
    def test_stats(self, graph):
        graph.variable("a")
        graph.variable("b")
        graph.set_evidence("a", True)
        stats = graph.stats()
        assert stats["variables"] == 2
        assert stats["evidence"] == 1
        assert stats["query"] == 1
