"""Tests for the compiled CSR graph and factor-function semantics."""

import numpy as np
import pytest

from repro.factorgraph import (CompiledGraph, FactorFunction, FactorGraph,
                               evaluate)
from tests.factorgraph.object_graph import reference_column_csr


def simple_graph():
    graph = FactorGraph()
    a = graph.variable("a")
    b = graph.variable("b")
    c = graph.variable("c")
    w1 = graph.weight("w1", 2.0)
    w2 = graph.weight("w2", -1.0)
    graph.add_factor(FactorFunction.IS_TRUE, [a], w1)
    graph.add_factor(FactorFunction.IS_TRUE, [b], w1, negated=[True])
    graph.add_factor(FactorFunction.IMPLY, [a, c], w2)
    graph.add_factor(FactorFunction.EQUAL, [b, c], w2)
    return graph


class TestEvaluate:
    def test_is_true(self):
        assert evaluate(FactorFunction.IS_TRUE, np.array([True])) == 1
        assert evaluate(FactorFunction.IS_TRUE, np.array([False])) == 0

    def test_imply(self):
        # body=True head=False is the only violating world
        assert evaluate(FactorFunction.IMPLY, np.array([True, False])) == 0
        assert evaluate(FactorFunction.IMPLY, np.array([True, True])) == 1
        assert evaluate(FactorFunction.IMPLY, np.array([False, False])) == 1

    def test_imply_multi_body(self):
        assert evaluate(FactorFunction.IMPLY, np.array([True, True, False])) == 0
        assert evaluate(FactorFunction.IMPLY, np.array([True, False, False])) == 1

    def test_and_or(self):
        assert evaluate(FactorFunction.AND, np.array([True, True])) == 1
        assert evaluate(FactorFunction.AND, np.array([True, False])) == 0
        assert evaluate(FactorFunction.OR, np.array([False, True])) == 1
        assert evaluate(FactorFunction.OR, np.array([False, False])) == 0

    def test_equal(self):
        assert evaluate(FactorFunction.EQUAL, np.array([True, True])) == 1
        assert evaluate(FactorFunction.EQUAL, np.array([False, True])) == 0


class TestCompiledGraph:
    def test_sizes(self):
        compiled = CompiledGraph(simple_graph())
        assert compiled.num_variables == 3
        assert compiled.num_unary == 2
        assert compiled.num_general == 2
        assert compiled.num_unary + compiled.num_general == 4

    def test_unary_deltas(self):
        compiled = CompiledGraph(simple_graph())
        deltas = compiled.unary_deltas()
        # a: +w1 = +2; b: negated literal -> -w1 = -2; c: no unary factor
        assert deltas[compiled.var_keys.index("a")] == pytest.approx(2.0)
        assert deltas[compiled.var_keys.index("b")] == pytest.approx(-2.0)
        assert deltas[compiled.var_keys.index("c")] == pytest.approx(0.0)

    def test_general_factor_value(self):
        compiled = CompiledGraph(simple_graph())
        a = compiled.var_keys.index("a")
        c = compiled.var_keys.index("c")
        world = np.zeros(3, dtype=bool)
        world[a] = True  # a=1, c=0 violates IMPLY(a->c)
        imply_index = int(np.nonzero(
            compiled.general_function == FactorFunction.IMPLY)[0][0])
        assert compiled.general_factor_value(imply_index, world) == 0
        world[c] = True
        assert compiled.general_factor_value(imply_index, world) == 1

    def test_general_delta_matches_bruteforce(self):
        compiled = CompiledGraph(simple_graph())
        rng = np.random.default_rng(0)
        for _ in range(20):
            world = rng.random(3) < 0.5
            for var in range(3):
                w1 = world.copy()
                w1[var] = True
                w0 = world.copy()
                w0[var] = False
                expected = sum(
                    compiled.weight_values[compiled.general_weight[fi]]
                    * (compiled.general_factor_value(fi, w1)
                       - compiled.general_factor_value(fi, w0))
                    for fi in range(compiled.num_general))
                assert compiled.general_delta(var, world) == pytest.approx(expected)

    def test_unary_value_sums(self):
        compiled = CompiledGraph(simple_graph())
        a = compiled.var_keys.index("a")
        b = compiled.var_keys.index("b")
        world = np.zeros(3, dtype=bool)
        world[a] = True
        world[b] = False
        sums = compiled.unary_value_sums(world)
        # both unary factors tied to w1: IS_TRUE(a)=1, IS_TRUE(!b)=1
        w1 = compiled.weight_keys.index("w1")
        assert sums[w1] == pytest.approx(2.0)

    def test_evidence_copied(self):
        graph = simple_graph()
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        a = compiled.var_keys.index("a")
        assert compiled.is_evidence[a]
        assert compiled.evidence_values[a]

    def test_export_weights_roundtrip(self):
        graph = simple_graph()
        compiled = CompiledGraph(graph)
        compiled.weight_values[:] = [7.0, 8.0]
        compiled.export_weights(graph)
        assert graph.weights[graph.weight("w1")].value in (7.0, 8.0)
        assert {w.value for w in graph.weights.values()} == {7.0, 8.0}

    def test_column_row_csr_consistent(self):
        compiled = CompiledGraph(simple_graph())
        # every (factor, var) edge in row CSR appears in column CSR
        for fi in range(compiled.num_general):
            for v in compiled.fv_vars[compiled.fv_indptr[fi]:compiled.fv_indptr[fi + 1]]:
                factors = compiled.vf_factors[compiled.vf_indptr[v]:compiled.vf_indptr[v + 1]]
                assert fi in factors


def tied_graph(seed=0, num_variables=40, num_unary=400):
    """Many unary factors per variable and per (tied) weight, with weights
    whose float sums depend on the order they are added in."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    variables = [graph.variable(i) for i in range(num_variables)]
    weights = [graph.weight(("w", k),
                            float(rng.normal() * 10.0 ** rng.integers(-6, 6)))
               for k in range(7)]
    for _ in range(num_unary):
        graph.add_factor(FactorFunction.IS_TRUE,
                         [variables[rng.integers(num_variables)]],
                         weights[rng.integers(len(weights))],
                         negated=[bool(rng.integers(2))])
    return graph


class TestKernels:
    """The bincount accumulators against their ``np.add.at`` forms, and the
    empty cases (the general-factor kernel's oracle suite is the hypothesis
    one in tests/property/test_factorgraph_properties.py)."""

    def test_unary_deltas_bit_identical_to_add_at(self):
        compiled = CompiledGraph(tied_graph())
        expected = np.zeros(compiled.num_variables)
        np.add.at(expected, compiled.unary_var,
                  compiled.unary_sign * compiled.weight_values[compiled.unary_weight])
        np.testing.assert_array_equal(compiled.unary_deltas(), expected)

    def test_unary_value_sums_bit_identical_to_add_at(self):
        compiled = CompiledGraph(tied_graph())
        world = np.random.default_rng(1).random(compiled.num_variables) < 0.5
        literal = world[compiled.unary_var] ^ (compiled.unary_sign < 0)
        expected = np.zeros(compiled.num_weights)
        np.add.at(expected, compiled.unary_weight, literal.astype(np.float64))
        np.testing.assert_array_equal(compiled.unary_value_sums(world), expected)

    def test_unary_kernels_without_unary_factors(self):
        graph = FactorGraph()
        a, b = graph.variable("a"), graph.variable("b")
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("w", 1.0))
        compiled = CompiledGraph(graph)
        world = np.array([True, False])
        for result, size in ((compiled.unary_deltas(), 2),
                             (compiled.unary_value_sums(world), 1)):
            assert result.dtype == np.float64
            np.testing.assert_array_equal(result, np.zeros(size))

    def test_general_kernels_without_general_factors(self):
        graph = FactorGraph()
        graph.add_factor(FactorFunction.IS_TRUE, [graph.variable("a")],
                         graph.weight("w", 1.0))
        compiled = CompiledGraph(graph)
        world = np.array([True])
        assert compiled.general_values(world).shape == (0,)
        sums = compiled.general_value_sums(world)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(sums, [0.0])


def general_graph(seed=0, num_variables=60, num_factors=300):
    """Many general factors of every function over a few hub variables (so
    each column holds many factors), some listing a variable twice, and
    removals that leave tombstones among the ids."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    variables = [graph.variable(i) for i in range(num_variables)]
    weight = graph.weight("w", 1.0)
    factors = []
    for _ in range(num_factors):
        function = FactorFunction(int(rng.integers(1, 5)))
        arity = 2 if function == FactorFunction.EQUAL \
            else int(rng.integers(2, 5))
        members = [variables[int(rng.zipf(1.5)) % num_variables]
                   for _ in range(arity)]
        factors.append(graph.add_factor(function, members, weight,
                                        negated=list(rng.random(arity) < 0.5)))
    for factor_id in factors[::7]:
        graph.remove_factor(factor_id)
    graph.remove_variable(num_variables - 1)
    return graph


class TestColumnCsr:
    """The vectorized column CSR (bincount + stable argsort) is bit-identical
    to the counting-and-cursor loop it replaced."""

    @pytest.mark.parametrize("graph", [simple_graph(), tied_graph(),
                                       general_graph(0), general_graph(1),
                                       FactorGraph()])
    def test_matches_loop_form(self, graph):
        compiled = CompiledGraph(graph)
        vf_indptr, vf_factors = reference_column_csr(
            compiled.num_variables, compiled.fv_indptr, compiled.fv_vars)
        for actual, expected in ((compiled.vf_indptr, vf_indptr),
                                 (compiled.vf_factors, vf_factors)):
            assert actual.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(actual, expected)
