"""Property-based tests on factor-graph invariants and sampler internals."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler
from tests.factorgraph.object_graph import assert_same_graph


@st.composite
def random_graph(draw):
    """A small random factor graph mixing every factor type."""
    num_variables = draw(st.integers(min_value=2, max_value=7))
    graph = FactorGraph()
    for i in range(num_variables):
        graph.variable(i)
    num_factors = draw(st.integers(min_value=1, max_value=10))
    for f in range(num_factors):
        function = draw(st.sampled_from(list(FactorFunction)))
        if function == FactorFunction.IS_TRUE:
            arity = 1
        elif function == FactorFunction.EQUAL:
            arity = 2
        else:
            arity = draw(st.integers(min_value=2, max_value=3))
        # members may repeat: a variable can occur twice in one factor
        members = draw(st.lists(st.integers(0, num_variables - 1),
                                min_size=arity, max_size=arity))
        negated = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
        weight = graph.weight(("w", f), draw(st.floats(-2, 2)))
        graph.add_factor(function, members, weight, negated=negated)
    evidence = draw(st.lists(st.tuples(st.integers(0, num_variables - 1),
                                       st.booleans()), max_size=2))
    for var, value in evidence:
        graph.set_evidence(var, value)
    return graph


class TestCompiledInvariants:
    @settings(max_examples=80, deadline=None)
    @given(random_graph())
    def test_csr_row_column_duality(self, graph):
        compiled = CompiledGraph(graph)
        row_edges = set()
        for fi in range(compiled.num_general):
            for v in compiled.fv_vars[compiled.fv_indptr[fi]:
                                      compiled.fv_indptr[fi + 1]]:
                row_edges.add((fi, int(v)))
        column_edges = set()
        for v in range(compiled.num_variables):
            for fi in compiled.vf_factors[compiled.vf_indptr[v]:
                                          compiled.vf_indptr[v + 1]]:
                column_edges.add((int(fi), v))
        assert row_edges == column_edges

    @settings(max_examples=80, deadline=None)
    @given(random_graph())
    def test_factor_counts_preserved(self, graph):
        compiled = CompiledGraph(graph)
        assert compiled.num_unary + compiled.num_general == graph.num_factors
        assert compiled.num_variables == graph.num_variables
        assert compiled.num_weights == graph.num_weights

    @settings(max_examples=60, deadline=None)
    @given(random_graph(), st.integers(0, 2**31 - 1))
    def test_general_delta_matches_value_difference(self, graph, seed):
        """general_delta must equal the weighted factor-value difference of
        flipping the variable -- for every variable and random world."""
        compiled = CompiledGraph(graph)
        rng = np.random.default_rng(seed)
        world = rng.random(compiled.num_variables) < 0.5
        for var in range(compiled.num_variables):
            w1 = world.copy()
            w1[var] = True
            w0 = world.copy()
            w0[var] = False
            expected = float(
                np.dot(compiled.general_value_sums(w1), compiled.weight_values)
                - np.dot(compiled.general_value_sums(w0), compiled.weight_values))
            assert abs(compiled.general_delta(var, world) - expected) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(random_graph(), st.integers(0, 2**31 - 1))
    def test_unary_sums_linear_in_weights(self, graph, seed):
        """unary_value_sums is the exact per-weight factor-value tally."""
        compiled = CompiledGraph(graph)
        rng = np.random.default_rng(seed)
        world = rng.random(compiled.num_variables) < 0.5
        sums = compiled.unary_value_sums(world)
        expected = np.zeros(compiled.num_weights)
        for i in range(compiled.num_unary):
            literal = bool(world[compiled.unary_var[i]]) != \
                (compiled.unary_sign[i] < 0)
            expected[compiled.unary_weight[i]] += float(literal)
        np.testing.assert_allclose(sums, expected)


@st.composite
def kernel_graph(draw):
    """A random graph shaped to stress the factor-value kernel: every general
    function with negated literals and repeated members, every arity the
    function allows up to 5 (AND/OR down to 1), a small pool
    of tied weights some of which are fixed, and sometimes no general factor
    at all."""
    num_variables = draw(st.integers(min_value=2, max_value=8))
    graph = FactorGraph()
    for i in range(num_variables):
        graph.variable(i)
    weights = [graph.weight(("w", k), draw(st.floats(-3, 3)),
                            fixed=draw(st.booleans()))
               for k in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        function = draw(st.sampled_from(list(FactorFunction)))
        if function == FactorFunction.IS_TRUE:
            arity = 1
        elif function == FactorFunction.EQUAL:
            arity = 2
        else:
            lowest = 2 if function == FactorFunction.IMPLY else 1
            arity = draw(st.integers(lowest, min(5, num_variables)))
        members = draw(st.lists(st.integers(0, num_variables - 1),
                                min_size=arity, max_size=arity))
        negated = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
        graph.add_factor(function, members, draw(st.sampled_from(weights)),
                         negated=negated)
    return graph


class TestValueKernel:
    """``general_values`` / ``general_value_sums`` against the scalar oracle."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_graph(), st.integers(0, 2**31 - 1))
    def test_general_values_match_scalar_oracle(self, graph, seed):
        compiled = CompiledGraph(graph)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            world = rng.random(compiled.num_variables) < 0.5
            expected = np.array(
                [compiled.general_factor_value(fi, world)
                 for fi in range(compiled.num_general)], dtype=np.float64)
            values = compiled.general_values(world)
            assert values.dtype == np.float64
            np.testing.assert_array_equal(values, expected)
            sums = np.zeros(compiled.num_weights)
            for fi in range(compiled.num_general):
                sums[compiled.general_weight[fi]] += expected[fi]
            result = compiled.general_value_sums(world)
            assert result.dtype == np.float64
            np.testing.assert_array_equal(result, sums)


class TestSamplerInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_graph(), st.integers(0, 1000))
    def test_sweep_preserves_evidence(self, graph, seed):
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=seed)
        world = sampler.initial_assignment()
        for _ in range(3):
            sampler.sweep(world)
        clamped = compiled.is_evidence
        np.testing.assert_array_equal(world[clamped],
                                      compiled.evidence_values[clamped])

    @settings(max_examples=40, deadline=None)
    @given(random_graph(), st.integers(0, 1000))
    def test_optimized_sweep_matches_reference_delta(self, graph, seed):
        """The pure-Python hot path must sample from the same conditional as
        the reference general_delta computation."""
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=seed)
        world = sampler.initial_assignment()
        # Reimplement one sweep with reference deltas and the same RNG stream
        # (drawing the initial assignment keeps the streams aligned).
        reference = GibbsSampler(compiled, seed=seed)
        ref_world = reference.initial_assignment()
        np.testing.assert_array_equal(world, ref_world)

        sampler.sweep(world)

        from repro.inference.gibbs import _sigmoid_scalar, sigmoid
        rng = reference.rng
        independent = reference._independent
        n_independent = len(reference._independent_probs)
        if n_independent:
            ref_world[independent] = (rng.random(n_independent)
                                      < reference._independent_probs)
        if len(reference._dependent):
            uniforms = rng.random(len(reference._dependent))
            unary = reference._unary_deltas
            for i, var in enumerate(reference._dependent):
                delta = float(unary[var]) + compiled.general_delta(int(var),
                                                                   ref_world)
                ref_world[var] = uniforms[i] < _sigmoid_scalar(delta)
        np.testing.assert_array_equal(world, ref_world)

    @settings(max_examples=20, deadline=None)
    @given(random_graph())
    def test_marginals_in_unit_interval(self, graph):
        compiled = CompiledGraph(graph)
        result = GibbsSampler(compiled, seed=0).marginals(num_samples=20,
                                                          burn_in=5)
        assert ((result.marginals >= 0) & (result.marginals <= 1)).all()


class TestSerializationProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_graph())
    def test_roundtrip_preserves_structure(self, graph):
        assert_same_graph(FactorGraph.from_image(graph.image()), graph)

    @settings(max_examples=30, deadline=None)
    @given(random_graph())
    def test_roundtrip_samples_identically(self, graph):
        original = CompiledGraph(graph)
        restored = CompiledGraph(FactorGraph.from_image(graph.image()))
        m1 = GibbsSampler(original, seed=5).marginals(num_samples=30,
                                                      burn_in=5).marginals
        m2 = GibbsSampler(restored, seed=5).marginals(num_samples=30,
                                                      burn_in=5).marginals
        # same keys in the same canonical order -> identical RNG stream
        assert original.var_keys == restored.var_keys
        np.testing.assert_array_equal(m1, m2)
