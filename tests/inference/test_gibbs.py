"""Correctness tests for the Gibbs sampler: estimated marginals must match
the exact-inference oracle on small graphs."""

import numpy as np
import pytest

from repro import obs
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler, exact_marginals, sigmoid
from repro.inference.gibbs import (CHAIN_UNIFORMS, TABLE_MAX_EDGES,
                                   _sigmoid_array)
from tests.conftest import reference_chain


def assert_close_to_exact(graph: FactorGraph, atol: float = 0.03) -> None:
    compiled = CompiledGraph(graph)
    sampler = GibbsSampler(compiled, seed=7)
    result = sampler.marginals(num_samples=6000, burn_in=300)
    expected = exact_marginals(compiled).marginals
    np.testing.assert_allclose(result.marginals, expected, atol=atol)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_extremes_stable(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)

    def test_vectorized(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] + out[2] == pytest.approx(1.0)

    def test_no_warnings_at_extremes(self):
        """Regression: np.where evaluated both branches, so exp(-x) overflowed
        for large-magnitude inputs.  Masked evaluation must stay silent even
        with every floating-point error promoted to an exception."""
        extremes = np.array([-1e9, -1000.0, -500.0, 0.0, 500.0, 1000.0, 1e9])
        with np.errstate(all="raise"):
            out = sigmoid(extremes)
            scalar_low = sigmoid(-1e6)
            scalar_high = sigmoid(1e6)
        assert ((out >= 0) & (out <= 1)).all()
        assert np.all(np.diff(out) >= 0)          # monotone
        assert scalar_low == pytest.approx(0.0)
        assert scalar_high == pytest.approx(1.0)

    def test_scalar_returns_float(self):
        assert isinstance(sigmoid(0.3), float)
        assert isinstance(sigmoid(np.float64(-0.3)), float)

    def test_array_fast_path_bit_identical(self):
        """The sweep's array-only sigmoid is the same arithmetic element for
        element, not an approximation of it."""
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.normal(size=5000), rng.normal(size=5000) * 300,
            [0.0, -0.0, 5e-324, -5e-324, 500.0, -500.0, 500.0001, -500.0001,
             1e9, -1e9, np.inf, -np.inf]])
        before = x.copy()
        with np.errstate(all="raise"):
            fast = _sigmoid_array(x)
        np.testing.assert_array_equal(fast, sigmoid(x))
        np.testing.assert_array_equal(x, before)          # input left intact
        assert _sigmoid_array(np.zeros(0)).shape == (0,)


class TestSingleVariable:
    def test_unary_marginal(self):
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 1.5))
        assert_close_to_exact(graph)

    def test_negated_unary(self):
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 2.0),
                         negated=[True])
        assert_close_to_exact(graph)


class TestPairwise:
    def test_imply_chain(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", 1.0))
        graph.add_factor(FactorFunction.IMPLY, [a, b], graph.weight("wi", 2.0))
        assert_close_to_exact(graph)

    def test_equal_coupling(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", 1.2))
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("we", 1.5))
        assert_close_to_exact(graph)

    def test_or_factor(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        c = graph.variable("c")
        graph.add_factor(FactorFunction.OR, [a, b, c], graph.weight("wo", 2.0))
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", -1.0))
        assert_close_to_exact(graph)

    def test_and_with_negation(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.AND, [a, b], graph.weight("w", 1.5),
                         negated=[False, True])
        assert_close_to_exact(graph)


#: One variable occurring twice in one factor of weight 1, and the factor's
#: value with both occurrences at 1 minus its value with both at 0.
REPEATED_MEMBER_CASES = [
    (FactorFunction.IMPLY, [True, False], 1.0),     # !a => a  is  a
    (FactorFunction.IMPLY, [False, False], 0.0),    # a => a   always holds
    (FactorFunction.IMPLY, [False, True], -1.0),    # a => !a  is  !a
    (FactorFunction.AND, [False, False], 1.0),
    (FactorFunction.AND, [False, True], 0.0),       # a & !a   never holds
    (FactorFunction.OR, [True, True], -1.0),
    (FactorFunction.OR, [True, False], 0.0),        # !a | a   always holds
    (FactorFunction.EQUAL, [False, False], 0.0),
    (FactorFunction.EQUAL, [False, True], 0.0),
]


class TestRepeatedMembers:
    """A variable that occurs more than once in one factor flips all of its
    occurrences at once: every flip delta is f(all = 1) - f(all = 0)."""

    @staticmethod
    def single_factor(function, negated) -> CompiledGraph:
        graph = FactorGraph()
        a = graph.variable("a")
        graph.add_factor(function, [a, a], graph.weight("w", 1.0),
                         negated=negated)
        return CompiledGraph(graph)

    @pytest.mark.parametrize("function,negated,delta", REPEATED_MEMBER_CASES)
    def test_every_flip_delta_moves_all_occurrences(self, function, negated,
                                                    delta):
        compiled = self.single_factor(function, negated)
        kernel = GibbsSampler(compiled, seed=0)._kernels[0]
        for value in (False, True):
            world = np.array([value])
            assert compiled.general_delta(0, world) == delta
            others = world[kernel.block.other_vars]
            assert kernel.deltas(others).tolist() == [delta]
        for mu in (0.0, 0.3, 1.0):          # the mean-field kernel
            assert kernel.expected_deltas(np.array([mu])).tolist() == [delta]

    @pytest.mark.parametrize("function,negated,delta", REPEATED_MEMBER_CASES)
    def test_sweeps_sample_the_exact_conditional(self, function, negated,
                                                 delta):
        compiled = self.single_factor(function, negated)
        assert exact_marginals(compiled).marginals[0] == pytest.approx(
            sigmoid(delta))
        fast, slow = GibbsSampler(compiled, seed=3), GibbsSampler(compiled, seed=3)
        world_fast, world_slow = fast.initial_assignment(), slow.initial_assignment()
        for _ in range(50):
            fast.sweep(world_fast)
            slow.sweep_reference(world_slow)
            np.testing.assert_array_equal(world_fast, world_slow)

    def test_imply_of_a_negation_and_itself(self):
        """IMPLY(!a -> a) of weight 1 is the unary factor a: P(a) = sigmoid(1)
        = 0.731, where scoring each occurrence separately gave 0.637."""
        compiled = self.single_factor(FactorFunction.IMPLY, [True, False])
        result = GibbsSampler(compiled, seed=7).marginals(num_samples=6000,
                                                          burn_in=300)
        assert abs(result.marginals[0] - sigmoid(1.0)) < 0.02

    def test_ddlog_self_pair_grounds_a_repeated_member(self):
        from repro.datastore import Database
        from repro.ddlog import DDlogProgram
        from repro.grounding import Grounder

        program = DDlogProgram.parse("""
        Friends(x text, y text).
        Smokes?(x text).
        !Smokes(x) => Smokes(y) :- Friends(x, y) weight = 1.0.
        """)
        db = Database()
        program.create_relations(db)
        db.insert("Friends", [("a", "a")])
        graph = Grounder(program, db).graph
        (factor,) = graph.factors.values()
        assert factor.var_ids == (0, 0) and factor.negated == (True, False)
        compiled = CompiledGraph(graph)
        result = GibbsSampler(compiled, seed=7).marginals(num_samples=6000,
                                                          burn_in=300)
        assert abs(result.marginals[0] - sigmoid(1.0)) < 0.02


class TestChainLength:
    """A chain that would estimate nothing is refused, not averaged to 0."""

    @pytest.mark.parametrize("num_samples,burn_in", [(0, 20), (-3, 20), (10, -1)])
    def test_marginals_reject_an_empty_chain(self, num_samples, burn_in):
        graph = FactorGraph()
        graph.add_factor(FactorFunction.IS_TRUE, [graph.variable("x")],
                         graph.weight("w", 2.0))
        sampler = GibbsSampler(CompiledGraph(graph), seed=0)
        with pytest.raises(ValueError):
            sampler.marginals(num_samples=num_samples, burn_in=burn_in)


class TestEvidence:
    def test_clamped_evidence_respected(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("we", 3.0))
        graph.set_evidence("a", True)
        assert_close_to_exact(graph)

    def test_evidence_reported_as_certain(self):
        graph = FactorGraph()
        a = graph.variable("a")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("w", -5.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        result = GibbsSampler(compiled, seed=0).marginals(num_samples=50, burn_in=5)
        assert result.marginals[compiled.variable_index("a")] == 1.0

    def test_free_chain_resamples_evidence(self):
        graph = FactorGraph()
        a = graph.variable("a")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("w", 0.0))
        graph.set_evidence("a", True)
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=0, clamp_evidence=False)
        world = sampler.initial_assignment()
        seen = set()
        for _ in range(50):
            sampler.sweep(world)
            seen.add(bool(world[0]))
        assert seen == {True, False}


class TestMechanics:
    def test_sweep_returns_sample_count(self):
        graph = FactorGraph()
        for i in range(5):
            v = graph.variable(f"v{i}")
            graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 0.5))
        graph.set_evidence("v0", True)
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled, seed=0)
        world = sampler.initial_assignment()
        assert sampler.sweep(world) == 4  # evidence variable not resampled

    def test_by_key(self):
        graph = FactorGraph()
        v = graph.variable("x")
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 0.0))
        compiled = CompiledGraph(graph)
        result = GibbsSampler(compiled, seed=1).marginals(num_samples=200, burn_in=10)
        mapping = result.by_key(compiled)
        assert set(mapping) == {"x"}
        assert 0.3 < mapping["x"] < 0.7

    def test_deterministic_under_seed(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IMPLY, [a, b], graph.weight("w", 1.0))
        compiled = CompiledGraph(graph)
        m1 = GibbsSampler(compiled, seed=3).marginals(num_samples=100, burn_in=10)
        m2 = GibbsSampler(compiled, seed=3).marginals(num_samples=100, burn_in=10)
        np.testing.assert_array_equal(m1.marginals, m2.marginals)


class TestFlipTable:
    """A block samples from its flip table from the second sweep after a
    refresh unless one of its variables has more than ``TABLE_MAX_EDGES``
    other edges; either way the chain is the scalar oracle's."""

    @staticmethod
    def hub_graph(other_edges: int, unary_only: int = 0) -> CompiledGraph:
        """A hub variable with ``other_edges`` other edges, spokes joined to
        it through every general function, some literals negated, and
        ``unary_only`` variables with one unary factor each.  An EQUAL
        factor is two slots, so its spoke is two of the hub's edges."""
        graph = FactorGraph()
        for i in range(unary_only):
            graph.add_factor(FactorFunction.IS_TRUE,
                             [graph.variable(("unary", i))],
                             graph.weight(("v", i % 3), 0.7 * (i % 3) - 0.6))
        hub = graph.variable("hub")
        graph.add_factor(FactorFunction.IS_TRUE, [hub], graph.weight("u", -0.3))
        functions = [FactorFunction.IMPLY, FactorFunction.AND,
                     FactorFunction.OR, FactorFunction.EQUAL]
        edges = i = 0
        while edges < other_edges:
            function = functions[i % 4]
            if function == FactorFunction.EQUAL and edges + 2 > other_edges:
                function = FactorFunction.AND
            edges += 2 if function == FactorFunction.EQUAL else 1
            spoke = graph.variable(("spoke", i))
            graph.add_factor(function, [spoke, hub],
                             graph.weight(("w", i), 0.4 * (i - 4)),
                             negated=[i % 3 == 0, i % 5 == 0])
            i += 1
        return CompiledGraph(graph)

    @pytest.mark.parametrize("other_edges,from_table", [
        (TABLE_MAX_EDGES, True), (TABLE_MAX_EDGES + 1, False)])
    def test_table_bound(self, other_edges, from_table):
        compiled = self.hub_graph(other_edges)
        fast, slow = GibbsSampler(compiled, seed=4), GibbsSampler(compiled, seed=4)
        hub = compiled.var_keys.index("hub")
        (kernel,) = [k for k in fast._kernels if hub in k.block.variables]
        assert kernel.block.variables.tolist() == [hub]
        assert kernel.table_rows == (2 ** other_edges if from_table else 0)
        world_fast, world_slow = fast.initial_assignment(), slow.initial_assignment()
        for sweep in range(30):
            fast.sweep(world_fast)
            slow.sweep_reference(world_slow)
            np.testing.assert_array_equal(world_fast, world_slow)
            assert kernel.from_table == (from_table and sweep > 0)
        # the spokes (one or two other edges each) sample from their table
        assert all(k.from_table for k in fast._kernels if k is not kernel)

    @pytest.mark.parametrize("other_edges,table_blocks", [
        (TABLE_MAX_EDGES, 2), (TABLE_MAX_EDGES + 1, 1)])
    def test_marginals_span_counts_tabled_blocks(self, other_edges,
                                                 table_blocks):
        """A trace shows a wide variable sending its block back to the
        direct path: ``table_blocks`` out of ``colors``, and the rows."""
        compiled = self.hub_graph(other_edges)
        sampler = GibbsSampler(compiled, seed=0)
        with obs.installed(obs.Collector()) as collector:
            sampler.marginals(num_samples=3, burn_in=1)
        (span,) = collector.roots
        assert span.name == "inference.marginals"
        assert span.attributes["colors"] == 2
        assert span.attributes["table_blocks"] == table_blocks
        assert span.attributes["table_rows"] == sum(
            kernel.table_rows for kernel in sampler._kernels)

    def test_rows_hold_the_direct_deltas(self):
        """At every world of the hub's spokes, the row it looks up holds the
        direct delta and its sigmoid, bit for bit."""
        compiled = self.hub_graph(TABLE_MAX_EDGES)
        sampler = GibbsSampler(compiled, seed=0)
        hub = compiled.var_keys.index("hub")
        (kernel,) = [k for k in sampler._kernels if hub in k.block.variables]
        world = sampler.initial_assignment()
        sampler.sweep(world)
        sampler.sweep(world)
        table = kernel._table
        spokes = np.unique(kernel.block.other_vars)
        rows = set()
        for bits in range(2 ** len(spokes)):
            world[spokes] = [(bits >> r) & 1 for r in range(len(spokes))]
            others = world[kernel.block.other_vars]
            (row,) = table.rows(others)
            rows.add(int(row))
            deltas = kernel.deltas(others)
            assert table.log_odds[row] == deltas[0]
            assert table.probs[row] == _sigmoid_array(deltas)[0]
        assert len(rows) == 2 ** len(spokes)


def mixed_graph(seed=0, num_variables=30):
    """Every factor function with negations and evidence, dense enough for
    several colors."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    variables = [graph.variable(i) for i in range(num_variables)]
    weights = [graph.weight(("w", k), float(rng.normal())) for k in range(6)]
    for v in variables:
        graph.add_factor(FactorFunction.IS_TRUE, [v],
                         weights[rng.integers(len(weights))],
                         negated=[bool(rng.integers(2))])
    functions = [FactorFunction.IMPLY, FactorFunction.AND, FactorFunction.OR,
                 FactorFunction.EQUAL]
    for _ in range(40):
        function = functions[rng.integers(len(functions))]
        arity = 2 if function == FactorFunction.EQUAL else int(rng.integers(2, 5))
        members = rng.choice(num_variables, size=arity, replace=False)
        graph.add_factor(function, [variables[m] for m in members],
                         weights[rng.integers(len(weights))],
                         negated=[bool(b) for b in rng.integers(2, size=arity)])
    for i in range(0, num_variables, 7):
        graph.set_evidence(i, bool(rng.integers(2)))
    return graph


class TestUnifiedSweep:
    """A sweep is a one-sweep chain of the one color loop: traced or not,
    it is the scalar reference's chain (same RNG stream, same visit
    order)."""

    @pytest.fixture(autouse=True)
    def clean_collector(self):
        obs.uninstall()
        yield
        obs.uninstall()

    @pytest.mark.parametrize("clamp", [True, False])
    def test_chromatic_matches_reference(self, clamp):
        compiled = CompiledGraph(mixed_graph())
        fast = GibbsSampler(compiled, seed=5, clamp_evidence=clamp)
        slow = GibbsSampler(compiled, seed=5, clamp_evidence=clamp)
        assert len(fast._blocks) > 1
        world_fast = fast.initial_assignment()
        world_slow = slow.initial_assignment()
        for _ in range(25):
            assert fast.sweep(world_fast) == slow.sweep_reference(world_slow)
            np.testing.assert_array_equal(world_fast, world_slow)

    def test_traced_matches_untraced(self):
        compiled = CompiledGraph(mixed_graph())
        plain = GibbsSampler(compiled, seed=5)
        traced = GibbsSampler(compiled, seed=5)
        world_plain = plain.initial_assignment()
        world_traced = traced.initial_assignment()
        sweeps = 25
        for _ in range(sweeps):
            plain.sweep(world_plain)
        with obs.installed(obs.Collector()) as collector:
            for _ in range(sweeps):
                traced.sweep(world_traced)
        np.testing.assert_array_equal(world_plain, world_traced)
        np.testing.assert_array_equal(plain.rng.random(4), traced.rng.random(4))

        metrics = collector.metrics
        assert metrics.counter_total("gibbs.sweeps") == sweeps
        assert metrics.counter_total("gibbs.samples") == sweeps * (
            compiled.num_variables - int(compiled.is_evidence.sum()))
        for color in range(len(traced._blocks)):
            assert metrics.histogram("gibbs.color_sweep_seconds",
                                     color=color).count == sweeps
            flips = metrics.histogram("gibbs.flip_fraction", color=color)
            assert flips.count == sweeps
            assert 0.0 <= flips.mean <= 1.0

    def test_traced_chain_matches_untraced(self):
        """The chain runner probes once per chunk, never per sweep: sweep
        and sample counters per chunk, one timing and one flip fraction per
        color per chunk, and the chunk length on the marginals span."""
        compiled = CompiledGraph(mixed_graph())
        plain = GibbsSampler(compiled, seed=5)
        traced = GibbsSampler(compiled, seed=5)
        chunk = plain.chunk_sweeps
        num_samples, burn_in = 2 * chunk, 5               # three chunks
        world_plain = plain.initial_assignment()
        world_traced = traced.initial_assignment()
        expected = plain.marginals(num_samples, burn_in, world_plain)
        with obs.installed(obs.Collector()) as collector:
            result = traced.marginals(num_samples, burn_in, world_traced)
        np.testing.assert_array_equal(result.marginals, expected.marginals)
        np.testing.assert_array_equal(world_plain, world_traced)
        np.testing.assert_array_equal(plain.rng.random(4), traced.rng.random(4))

        (span,) = collector.roots
        assert span.attributes["chunk_sweeps"] == chunk
        metrics = collector.metrics
        sweeps = num_samples + burn_in
        width = compiled.num_variables - int(compiled.is_evidence.sum())
        assert metrics.counter_total("gibbs.sweeps") == sweeps
        assert metrics.counter_total("gibbs.samples") == sweeps * width
        for color in range(len(traced._blocks)):
            assert metrics.histogram("gibbs.color_sweep_seconds",
                                     color=color).count == 3
            flips = metrics.histogram("gibbs.flip_fraction", color=color)
            assert flips.count == 3
            assert 0.0 < flips.mean <= 1.0

    def test_sampling_never_derives_the_learners_kernel(self, request):
        """Laziness is structural: compiling, building samplers and sweeping
        (all a serving refresh ever does) leave the factor-value index sets
        underived; only the learner's statistics build them."""
        compiled = CompiledGraph(mixed_graph())
        assert "_value_kernel" not in vars(compiled)
        for clamp in (True, False):
            sampler = GibbsSampler(compiled, seed=1, clamp_evidence=clamp)
            sampler.marginals(num_samples=5, burn_in=2)
            sampler.refresh_weights()
        request.getfixturevalue("reference_sweeps")
        GibbsSampler(compiled, seed=1).marginals(num_samples=2, burn_in=1)
        assert "_value_kernel" not in vars(compiled)
        compiled.general_value_sums(np.zeros(compiled.num_variables, dtype=bool))
        assert vars(compiled)["_value_kernel"] is not None


class TestChainRunner:
    """``run_chain`` at the real ``CHAIN_UNIFORMS``: the same chain as a
    ``sweep_reference`` loop on the shapes the generated graphs rarely
    reach."""

    @staticmethod
    def assert_runner_is_the_loop(compiled, num_samples, burn_in, seed=2,
                                  beta=1.0, **options):
        runner = GibbsSampler(compiled, seed=seed, **options)
        loop = GibbsSampler(compiled, seed=seed, **options)
        world, expected_world = (runner.initial_assignment(),
                                 loop.initial_assignment())
        totals, sampled = runner.run_chain(world, num_samples, burn_in, beta)
        expected, expected_sampled = reference_chain(
            loop, expected_world, num_samples, burn_in, beta)
        np.testing.assert_array_equal(totals, expected)
        np.testing.assert_array_equal(world, expected_world)
        assert sampled == expected_sampled
        np.testing.assert_array_equal(runner.rng.random(3), loop.rng.random(3))
        return runner

    @pytest.mark.parametrize("beyond", [-1, 0, 1])
    def test_no_general_factor(self, beyond):
        """Unary-only: every chunk is one draw and one comparison; chains
        of ``chunk_sweeps`` - 1, ``chunk_sweeps`` and one more sweep."""
        graph = FactorGraph()
        for i in range(5000):
            graph.add_factor(FactorFunction.IS_TRUE, [graph.variable(i)],
                             graph.weight(("w", i % 7), 0.3 * (i % 7) - 1.0))
        graph.set_evidence(3, True)
        compiled = CompiledGraph(graph)
        sampler = GibbsSampler(compiled)
        chunk = sampler.chunk_sweeps
        assert chunk == CHAIN_UNIFORMS // 4999 and not sampler._kernels
        self.assert_runner_is_the_loop(compiled, chunk + beyond - 2, 2)

    @pytest.mark.parametrize("clamp", [True, False])
    def test_blocks_hold_every_free_variable(self, clamp):
        """A ring of EQUAL and IMPLY factors: no unary-only variable, so a
        sweep's uniforms are all color-block uniforms."""
        graph = FactorGraph()
        n = 40
        for i in range(n):
            graph.add_factor(
                FactorFunction.EQUAL if i % 2 else FactorFunction.IMPLY,
                [graph.variable(i), graph.variable((i + 1) % n)],
                graph.weight(("w", i % 3), 0.4 * (i % 3) - 0.3))
        graph.set_evidence(5, False)
        compiled = CompiledGraph(graph)
        runner = self.assert_runner_is_the_loop(compiled, 60, 7,
                                                clamp_evidence=clamp)
        assert not len(runner._independent_index)
        assert len(runner._kernels) >= 2

    def test_wide_block_stays_direct(self):
        """A variable above ``TABLE_MAX_EDGES`` other edges keeps its block
        on ``deltas`` over the compact world's gather."""
        compiled = TestFlipTable.hub_graph(TABLE_MAX_EDGES + 1)
        runner = self.assert_runner_is_the_loop(compiled, 30, 5)
        hub = compiled.var_keys.index("hub")
        (kernel,) = [k for k in runner._kernels if hub in k.block.variables]
        assert not kernel.table_rows and not kernel.from_table
        assert all(k.from_table for k in runner._kernels if k is not kernel)

    @pytest.mark.parametrize("beta", [0.5, 3.0])
    def test_tempered_chain(self, beta):
        """At ``beta`` != 1 a tabled block scales its rows' log-odds, a wide
        block its deltas and the unary-only variables their unary deltas;
        all are the tempered oracle's chain."""
        compiled = TestFlipTable.hub_graph(TABLE_MAX_EDGES + 1, unary_only=20)
        runner = self.assert_runner_is_the_loop(compiled, 40, 6, beta=beta)
        assert len(runner._independent_index) == 20
        assert sorted(bool(k.table_rows) for k in runner._kernels) == \
            [False, True]
        assert [k.from_table for k in runner._kernels] == \
            [bool(k.table_rows) for k in runner._kernels]

    @pytest.mark.parametrize("num_samples,burn_in", [(1, 0), (2, 0), (1, 1)])
    def test_short_chains(self, num_samples, burn_in):
        """One sweep stays on the direct path, as the learner's single
        sweep does; two build the tables first."""
        runner = self.assert_runner_is_the_loop(
            TestFlipTable.hub_graph(TABLE_MAX_EDGES), num_samples, burn_in)
        tabled = num_samples + burn_in >= 2
        assert all(k.table_rows and k.from_table == tabled
                   for k in runner._kernels)
