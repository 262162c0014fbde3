"""Property-based tests on the chromatic Gibbs engine's invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler, gibbs
from repro.inference.exact import exact_marginals
from repro.inference.gibbs import TABLE_MAX_EDGES
from tests.conftest import reference_chain


@st.composite
def random_graph(draw, max_factors=10, max_arity=3):
    """A small random factor graph mixing every factor type."""
    num_variables = draw(st.integers(min_value=2, max_value=7))
    graph = FactorGraph()
    for i in range(num_variables):
        graph.variable(i)
    num_factors = draw(st.integers(min_value=1, max_value=max_factors))
    for f in range(num_factors):
        function = draw(st.sampled_from(list(FactorFunction)))
        if function == FactorFunction.IS_TRUE:
            arity = 1
        elif function == FactorFunction.EQUAL:
            arity = 2
        else:
            arity = draw(st.integers(min_value=2, max_value=max_arity))
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


def shared_factor_pairs(compiled: CompiledGraph) -> set[tuple[int, int]]:
    """All unordered pairs of distinct variables sharing a general factor."""
    pairs = set()
    for fi in range(compiled.num_general):
        members = compiled.fv_vars[compiled.fv_indptr[fi]:
                                   compiled.fv_indptr[fi + 1]]
        for a in members:
            for b in members:
                if a < b:
                    pairs.add((int(a), int(b)))
    return pairs


def element_wise_coloring(compiled: CompiledGraph) -> tuple[np.ndarray, int]:
    """The greedy coloring as a walk over the numpy CSR arrays, one numpy
    scalar at a time: what ``_greedy_coloring`` computed before it walked
    Python lists."""
    colors = np.full(compiled.num_variables, -1, dtype=np.int64)
    has_general = compiled.vf_indptr[1:] > compiled.vf_indptr[:-1]
    for var in np.nonzero(has_general)[0]:
        taken = set()
        for slot in range(compiled.vf_indptr[var], compiled.vf_indptr[var + 1]):
            fi = compiled.vf_factors[slot]
            for other in compiled.fv_vars[compiled.fv_indptr[fi]:
                                          compiled.fv_indptr[fi + 1]]:
                if other != var and colors[other] >= 0:
                    taken.add(int(colors[other]))
        color = 0
        while color in taken:
            color += 1
        colors[var] = color
    num_colors = int(colors.max()) + 1 if has_general.any() else 0
    return colors, num_colors


class TestColoring:
    @given(random_graph(max_factors=16, max_arity=4))
    @settings(max_examples=80, deadline=None)
    def test_colors_match_the_element_wise_walk(self, graph):
        """The colors fix the chromatic visit order, and with it every
        chain: the list walk must color exactly as the numpy one did."""
        compiled = CompiledGraph(graph)
        colors, num_colors = element_wise_coloring(compiled)
        assert compiled.var_colors.dtype == colors.dtype
        np.testing.assert_array_equal(compiled.var_colors, colors)
        assert compiled.num_colors == num_colors

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_no_conflict_within_a_color(self, graph):
        compiled = CompiledGraph(graph)
        for a, b in shared_factor_pairs(compiled):
            assert compiled.var_colors[a] != compiled.var_colors[b] or \
                compiled.var_colors[a] == -1

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_every_general_variable_colored(self, graph):
        compiled = CompiledGraph(graph)
        has_general = compiled.vf_indptr[1:] > compiled.vf_indptr[:-1]
        colors = compiled.var_colors
        assert (colors[has_general] >= 0).all()
        assert (colors[~has_general] == -1).all()
        if has_general.any():
            # colors are consecutive starting at 0
            used = np.unique(colors[has_general])
            assert used.min() == 0
            assert compiled.num_colors == used.max() + 1

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_active_variables(self, graph):
        compiled = CompiledGraph(graph)
        has_general = compiled.vf_indptr[1:] > compiled.vf_indptr[:-1]
        active = has_general & ~compiled.is_evidence
        blocks = compiled.color_blocks(active)
        seen = np.concatenate([b.variables for b in blocks]) if blocks else \
            np.zeros(0, dtype=np.int64)
        assert len(seen) == len(np.unique(seen))          # disjoint
        np.testing.assert_array_equal(np.sort(seen), np.nonzero(active)[0])


class TestSweepInvariants:
    @given(random_graph(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_every_unclamped_variable_sampled_once_per_sweep(self, graph, seed):
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=seed)
        world = sampler.initial_assignment()
        expected = compiled.num_variables - int(compiled.is_evidence.sum())
        assert sampler.sweep(world) == expected
        # the dependent schedule and independent set are disjoint and complete
        scheduled = int(sampler._independent.sum()) + len(sampler._dependent)
        assert scheduled == expected
        assert not sampler._independent[sampler._dependent].any()

    @given(random_graph(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_clamped_evidence_never_mutated(self, graph, seed):
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=seed, clamp_evidence=True)
        world = sampler.initial_assignment()
        evidence = compiled.is_evidence
        expected = compiled.evidence_values[evidence].copy()
        for _ in range(5):
            sampler.sweep(world)
            np.testing.assert_array_equal(world[evidence], expected)


class TestSweepOracle:
    """Every branch of the color kernel -- the direct path on the first
    sweep after a refresh, the flip table from the second, a block whose
    variable has more than ``TABLE_MAX_EDGES`` other edges staying direct,
    and the tempered lookup -- is the scalar oracle's chain, bit for bit."""

    @given(random_graph(max_factors=16, max_arity=4), st.integers(0, 10_000),
           st.booleans(), st.booleans(), st.sampled_from([1.0, 0.5, 3.0]))
    @settings(max_examples=120, deadline=None)
    def test_sweep_matches_reference_across_a_refresh(self, graph, seed, clamp,
                                                      restrict, beta):
        compiled = CompiledGraph(graph)
        rng = np.random.default_rng(seed)
        region = rng.random(compiled.num_variables) < 0.7 if restrict else None
        fast = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp,
                            region=region)
        slow = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp,
                            region=region)
        world = fast.initial_assignment()
        reference = slow.initial_assignment()
        for sweep in range(6):
            if sweep == 2:
                # new weights after the first table build: a table that is
                # not rebuilt (or is read on the first sweep) diverges
                compiled.set_weights(compiled.weight_values + rng.normal(
                    0.0, 2.0, compiled.num_weights))
                fast.refresh_weights()
                slow.refresh_weights()
            assert fast.sweep(world, beta=beta) == \
                slow.sweep_reference(reference, beta=beta)
            np.testing.assert_array_equal(world, reference)
        for kernel in fast._kernels:
            counts = np.bincount(kernel.block.slot_var[kernel.block.other_slot],
                                 minlength=len(kernel.block.variables))
            assert kernel.from_table == (counts.max() <= TABLE_MAX_EDGES)


class TestChainRunner:
    """``run_chain`` is the ``sweep_reference`` loop, bit for bit, at every
    temperature: the totals, the final world, the samples drawn and the
    next RNG draw; its tables follow the one-sweep rule (direct first,
    table from the second).  ``CHAIN_UNIFORMS`` is patched down to
    ``chunk`` sweeps of the sampler's width so that chains of
    ``chunk - 1``, ``chunk`` and ``chunk + 1`` sweeps (and several chunks)
    stay cheap; the constant itself is covered in
    ``tests/inference/test_gibbs.py``."""

    @given(random_graph(max_factors=16, max_arity=4), st.integers(0, 10_000),
           st.booleans(), st.booleans(), st.integers(1, 4),
           st.integers(-1, 5), st.integers(0, 2),
           st.sampled_from([1.0, 0.5, 3.0]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_run_chain_matches_the_sweep_loop(self, graph, seed, clamp,
                                              restrict, chunk, beyond,
                                              warm_sweeps, beta, data):
        compiled = CompiledGraph(graph)
        region = (np.random.default_rng(seed).random(compiled.num_variables)
                  < 0.7 if restrict else None)
        runner, loop = (GibbsSampler(compiled, seed=seed, clamp_evidence=clamp,
                                     region=region) for _ in range(2))
        world, expected_world = runner.initial_assignment(), \
            loop.initial_assignment()
        for _ in range(warm_sweeps):        # tables built, stale or absent
            runner.sweep(world, beta)
            loop.sweep_reference(expected_world, beta)
        width = len(runner._independent_index) + len(runner._dependent)
        total = max(1, chunk + beyond)
        burn_in = data.draw(st.integers(0, total - 1))
        with mock.patch.object(gibbs, "CHAIN_UNIFORMS", chunk * width):
            assert runner.chunk_sweeps == (chunk if width else 1)
            totals, sampled = runner.run_chain(world, total - burn_in,
                                               burn_in, beta)
        expected, expected_sampled = reference_chain(
            loop, expected_world, total - burn_in, burn_in, beta)
        assert totals.dtype == expected.dtype
        np.testing.assert_array_equal(totals, expected)
        np.testing.assert_array_equal(world, expected_world)
        assert sampled == expected_sampled
        assert [k.from_table for k in runner._kernels] == \
            [bool(k.table_rows) and warm_sweeps + total >= 2
             for k in runner._kernels]
        np.testing.assert_array_equal(runner.rng.random(3), loop.rng.random(3))


class TestPermutationInvariance:
    """Marginals must not depend on the order variables entered the graph."""

    @staticmethod
    def permuted_pair(graph: FactorGraph, permutation: np.ndarray):
        """Rebuild ``graph`` with variable keys relabeled by ``permutation``.

        Relabeling changes the compiled (sorted-key) variable order while
        keeping the distribution identical up to the relabeling.
        """
        rebuilt = FactorGraph()
        keys = {}
        for var_id, variable in graph.variables.items():
            keys[var_id] = int(permutation[variable.key])
            rebuilt.variable(keys[var_id])
            if variable.evidence is not None:
                rebuilt.set_evidence(keys[var_id], variable.evidence)
        for factor in graph.factors.values():
            weight = graph.weights[factor.weight_id]
            rebuilt.add_factor(
                factor.function,
                [rebuilt.variable(keys[v]) for v in factor.var_ids],
                rebuilt.weight(weight.key, weight.value, fixed=weight.fixed),
                negated=list(factor.negated))
        return rebuilt

    @given(random_graph(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_exact_marginals_permutation_invariant(self, graph, seed):
        n = len(graph.variables)
        permutation = np.random.default_rng(seed).permutation(n)
        permuted = self.permuted_pair(graph, permutation)
        original_compiled = CompiledGraph(graph)
        permuted_compiled = CompiledGraph(permuted)
        original = exact_marginals(original_compiled).by_key(original_compiled)
        relabeled = exact_marginals(permuted_compiled).by_key(permuted_compiled)
        for key, value in original.items():
            assert abs(relabeled[int(permutation[key])] - value) < 1e-9

    def test_gibbs_marginals_permutation_invariant(self):
        """Sampled marginals agree (within tolerance) after relabeling."""
        rng = np.random.default_rng(4)
        graph = FactorGraph()
        for i in range(6):
            graph.variable(i)
            graph.add_factor(FactorFunction.IS_TRUE, [i],
                             graph.weight(("u", i), float(rng.normal(0, 1))))
        graph.add_factor(FactorFunction.IMPLY, [0, 1], graph.weight("g0", 1.0))
        graph.add_factor(FactorFunction.EQUAL, [2, 3], graph.weight("g1", -0.7))
        graph.add_factor(FactorFunction.OR, [3, 4, 5], graph.weight("g2", 0.9))
        permutation = np.array([5, 3, 0, 1, 4, 2])
        permuted = self.permuted_pair(graph, permutation)

        original = GibbsSampler(CompiledGraph(graph), seed=1).marginals(
            num_samples=8000, burn_in=400).by_key(CompiledGraph(graph))
        relabeled = GibbsSampler(CompiledGraph(permuted), seed=2).marginals(
            num_samples=8000, burn_in=400).by_key(CompiledGraph(permuted))
        for key in range(6):
            assert abs(original[key] - relabeled[int(permutation[key])]) < 0.04
