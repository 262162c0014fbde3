"""Tests for weight learning: trained weights must make the evidence likely."""

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import (GibbsSampler, LearningOptions, learn_weights)


def classifier_graph(num_positive=30, num_negative=30):
    """A tiny classification problem: feature 'good' fires on positives,
    feature 'bad' fires on negatives; labels come from evidence."""
    graph = FactorGraph()
    w_good = graph.weight("good")
    w_bad = graph.weight("bad")
    for i in range(num_positive):
        v = graph.variable(("pos", i))
        graph.add_factor(FactorFunction.IS_TRUE, [v], w_good)
        graph.set_evidence(("pos", i), True)
    for i in range(num_negative):
        v = graph.variable(("neg", i))
        graph.add_factor(FactorFunction.IS_TRUE, [v], w_bad)
        graph.set_evidence(("neg", i), False)
    # unlabeled query variables carrying each feature
    q_good = graph.variable(("q", "good"))
    graph.add_factor(FactorFunction.IS_TRUE, [q_good], w_good)
    q_bad = graph.variable(("q", "bad"))
    graph.add_factor(FactorFunction.IS_TRUE, [q_bad], w_bad)
    return graph


class TestLearning:
    def test_weights_separate_features(self):
        graph = classifier_graph()
        compiled = CompiledGraph(graph)
        learn_weights(compiled, LearningOptions(epochs=80, seed=0))
        good = compiled.weight_keys.index("good")
        bad = compiled.weight_keys.index("bad")
        assert compiled.weight_values[good] > 0.5
        assert compiled.weight_values[bad] < -0.5

    def test_query_marginals_follow_learned_weights(self):
        graph = classifier_graph()
        compiled = CompiledGraph(graph)
        learn_weights(compiled, LearningOptions(epochs=80, seed=0))
        result = GibbsSampler(compiled, seed=1).marginals(num_samples=400, burn_in=40)
        by_key = result.by_key(compiled)
        assert by_key[("q", "good")] > 0.6
        assert by_key[("q", "bad")] < 0.4

    def test_fixed_weights_untouched(self):
        graph = classifier_graph()
        hard = graph.weight("hard_rule", initial_value=10.0, fixed=True)
        v = graph.variable(("q", "good"))
        graph.add_factor(FactorFunction.IS_TRUE, [v], hard)
        compiled = CompiledGraph(graph)
        learn_weights(compiled, LearningOptions(epochs=30, seed=0))
        index = compiled.weight_keys.index("hard_rule")
        assert compiled.weight_values[index] == 10.0

    def test_diagnostics_recorded(self):
        compiled = CompiledGraph(classifier_graph())
        diagnostics = learn_weights(compiled, LearningOptions(epochs=25, seed=0))
        assert diagnostics.epochs_run == 25
        assert len(diagnostics.gradient_norms) == 25
        assert len(diagnostics.weight_snapshots) >= 2
        assert np.isfinite(diagnostics.final_gradient_norm)

    def test_l2_shrinks_unobserved_weight(self):
        graph = classifier_graph()
        # a weight with no discriminative signal: equally often on pos and neg
        w_noise = graph.weight("noise")
        for i in range(10):
            graph.add_factor(FactorFunction.IS_TRUE,
                             [graph.variable_id(("pos", i))], w_noise)
            graph.add_factor(FactorFunction.IS_TRUE,
                             [graph.variable_id(("neg", i))], w_noise)
        compiled = CompiledGraph(graph)
        learn_weights(compiled, LearningOptions(epochs=80, l2=0.05, seed=0))
        noise = compiled.weight_values[compiled.weight_keys.index("noise")]
        good = compiled.weight_values[compiled.weight_keys.index("good")]
        assert abs(noise) < abs(good)

    def test_deterministic_under_seed(self):
        c1 = CompiledGraph(classifier_graph())
        c2 = CompiledGraph(classifier_graph())
        learn_weights(c1, LearningOptions(epochs=15, seed=5))
        learn_weights(c2, LearningOptions(epochs=15, seed=5))
        np.testing.assert_array_equal(c1.weight_values, c2.weight_values)


class TestSeedDeterminism:
    """Same seed -> bit-identical results, for both learner chains."""

    def test_clamped_chain_marginals_bit_identical(self):
        compiled = CompiledGraph(classifier_graph())
        runs = [GibbsSampler(compiled, seed=9, clamp_evidence=True)
                .marginals(num_samples=200, burn_in=20) for _ in range(2)]
        np.testing.assert_array_equal(runs[0].marginals, runs[1].marginals)
        assert runs[0].num_samples == runs[1].num_samples
        assert runs[0].burn_in == runs[1].burn_in

    def test_free_chain_marginals_bit_identical(self):
        compiled = CompiledGraph(classifier_graph())
        runs = [GibbsSampler(compiled, seed=9, clamp_evidence=False)
                .marginals(num_samples=200, burn_in=20) for _ in range(2)]
        np.testing.assert_array_equal(runs[0].marginals, runs[1].marginals)

    def test_learning_identical_on_the_reference_sweep(self, request):
        """sweep() and its scalar oracle run the same chain, so whole
        training runs must agree bit for bit."""
        chromatic = CompiledGraph(classifier_graph())
        reference = CompiledGraph(classifier_graph())
        d1 = learn_weights(chromatic, LearningOptions(epochs=20, seed=4))
        request.getfixturevalue("reference_sweeps")
        d2 = learn_weights(reference, LearningOptions(epochs=20, seed=4))
        np.testing.assert_array_equal(chromatic.weight_values,
                                      reference.weight_values)
        assert d1.gradient_norms == d2.gradient_norms

    def test_engine_is_not_an_option(self):
        with pytest.raises(TypeError):
            LearningOptions(engine="reference")


class TestWeightRefresh:
    """refresh_weights() must invalidate every cached weight gather."""

    @staticmethod
    def coupled_graph():
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("unary", 0.0))
        graph.add_factor(FactorFunction.EQUAL, [a, b], graph.weight("couple", 0.0))
        return graph

    def test_refresh_changes_subsequent_sweeps(self):
        refreshed_graph = CompiledGraph(self.coupled_graph())
        stale_graph = CompiledGraph(self.coupled_graph())
        refreshed = GibbsSampler(refreshed_graph, seed=2)
        stale = GibbsSampler(stale_graph, seed=2)
        w_refreshed = refreshed.initial_assignment()
        w_stale = stale.initial_assignment()
        for _ in range(3):
            refreshed.sweep(w_refreshed)
            stale.sweep(w_stale)
        np.testing.assert_array_equal(w_refreshed, w_stale)

        # both graphs get new weights; only one sampler refreshes its caches
        new_weights = np.array([8.0, 8.0])
        refreshed_graph.set_weights(new_weights)
        stale_graph.set_weights(new_weights)
        refreshed.refresh_weights()

        hits_refreshed = np.zeros(2)
        hits_stale = np.zeros(2)
        for _ in range(200):
            refreshed.sweep(w_refreshed)
            stale.sweep(w_stale)
            hits_refreshed += w_refreshed
            hits_stale += w_stale
        # with w=8 on both factors the refreshed chain pins (a, b) near True;
        # the stale unary cache keeps its chain mixing far more freely
        assert hits_refreshed[0] > 190
        assert hits_stale[0] < 150

    def test_refresh_updates_general_factor_cache(self):
        """The chromatic engine caches signed per-slot weights and a flip
        table; a refresh after a general-factor weight update must change
        the block deltas, and the table's rows once it is rebuilt."""
        compiled = CompiledGraph(self.coupled_graph())
        sampler = GibbsSampler(compiled, seed=0)
        kernel = sampler._kernels[0]
        others = np.array([True, False])[kernel.block.other_vars]
        chain = sampler.initial_assignment()
        before = kernel.deltas(others).copy()
        sampler.sweep(chain)
        sampler.sweep(chain)
        assert kernel.from_table
        rows_before = kernel._table.log_odds.copy()
        couple = compiled.weight_keys.index("couple")
        new_weights = compiled.weight_values.copy()
        new_weights[couple] = 5.0
        compiled.set_weights(new_weights)
        sampler.refresh_weights()
        after = kernel.deltas(others)
        assert not np.array_equal(before, after)
        sampler.sweep(chain)
        assert not kernel.from_table          # stale: the first sweep is direct
        sampler.sweep(chain)
        assert kernel.from_table
        table = kernel._table
        assert not np.array_equal(rows_before, table.log_odds)
        np.testing.assert_array_equal(table.log_odds[table.rows(others)], after)


class TestAdaGrad:
    def test_adagrad_separates_features(self):
        graph = classifier_graph()
        compiled = CompiledGraph(graph)
        learn_weights(compiled, LearningOptions(epochs=80, seed=0,
                                                optimizer="adagrad"))
        good = compiled.weight_values[compiled.weight_keys.index("good")]
        bad = compiled.weight_values[compiled.weight_keys.index("bad")]
        assert good > 0.5
        assert bad < -0.5

    def test_adagrad_deterministic(self):
        import numpy as np
        c1 = CompiledGraph(classifier_graph())
        c2 = CompiledGraph(classifier_graph())
        options = LearningOptions(epochs=20, seed=3, optimizer="adagrad")
        learn_weights(c1, options)
        learn_weights(c2, options)
        np.testing.assert_array_equal(c1.weight_values, c2.weight_values)

    def test_adagrad_steps_shrink_for_frequent_gradients(self):
        """After many epochs the adaptive step is small, so late weight
        movement is bounded even without explicit decay."""
        import numpy as np
        compiled = CompiledGraph(classifier_graph())
        learn_weights(compiled, LearningOptions(epochs=40, seed=0,
                                                optimizer="adagrad"))
        early = compiled.weight_values.copy()
        learn_weights(compiled, LearningOptions(epochs=5, seed=1,
                                                optimizer="adagrad"))
        drift = float(np.max(np.abs(compiled.weight_values - early)))
        assert drift < 1.0

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            LearningOptions(optimizer="adam")


class TestOptionValidation:
    @pytest.mark.parametrize("field, value", [
        ("epochs", -1),
        ("sweeps_per_epoch", 0),     # would learn from two never-advanced chains
        ("sweeps_per_epoch", -3),
        ("step_size", 0.0),
        ("step_size", -0.1),
        ("decay", 0.0),
        ("decay", 1.5),
        ("l2", -0.01),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearningOptions(**{field: value})

    def test_boundaries_accepted(self):
        options = LearningOptions(epochs=0, sweeps_per_epoch=1, decay=1.0, l2=0.0)
        diagnostics = learn_weights(CompiledGraph(classifier_graph()), options)
        assert diagnostics.epochs_run == 0


def joint_graph():
    """Labelled classifier variables coupled by every general function,
    through tied weights, one of them fixed."""
    rng = np.random.default_rng(7)
    graph = FactorGraph()
    features = [graph.weight(("f", k)) for k in range(5)]
    rules = {"imply": graph.weight("imply", 0.5),
             "and": graph.weight("and", 0.2),
             "or": graph.weight("or"),
             "equal": graph.weight("equal", 1.5, fixed=True)}
    variables = []
    for i in range(60):
        v = graph.variable(i)
        variables.append(v)
        for k in rng.choice(len(features), size=2, replace=False):
            graph.add_factor(FactorFunction.IS_TRUE, [v], features[k],
                             negated=[bool(rng.integers(2))])
        if i % 3 == 0:
            graph.set_evidence(i, bool(rng.integers(2)))
    for _ in range(40):
        a, b, c = (variables[m] for m in rng.choice(60, size=3, replace=False))
        negated = [bool(n) for n in rng.integers(2, size=3)]
        graph.add_factor(FactorFunction.IMPLY, [a, b, c], rules["imply"],
                         negated=negated)
        graph.add_factor(FactorFunction.AND, [a, c], rules["and"],
                         negated=negated[:2])
        graph.add_factor(FactorFunction.OR, [b, c, a], rules["or"])
        graph.add_factor(FactorFunction.EQUAL, [a, b], rules["equal"],
                         negated=negated[1:])
    return graph


def scalar_general_value_sums(compiled, assignment):
    """The learner's general-factor statistic as the scalar oracle computes
    it: one ``general_factor_value`` call per factor."""
    sums = np.zeros(compiled.num_weights, dtype=np.float64)
    for fi in range(compiled.num_general):
        sums[compiled.general_weight[fi]] += compiled.general_factor_value(
            fi, assignment)
    return sums


def scalar_unary_value_sums(compiled, assignment):
    sums = np.zeros(compiled.num_weights, dtype=np.float64)
    for var, weight, sign in zip(compiled.unary_var, compiled.unary_weight,
                                 compiled.unary_sign):
        sums[weight] += float(bool(assignment[var]) != (sign < 0))
    return sums


class TestKernelLearnerMatchesOracle:
    """The kernels change how the gradient statistics are computed, not what
    they are: a learner running on the scalar oracle learns the same bits."""

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    def test_weights_and_gradient_norms_bit_identical(self, optimizer,
                                                      monkeypatch):
        options = LearningOptions(epochs=12, seed=3, optimizer=optimizer,
                                  sweeps_per_epoch=2)
        kernel = CompiledGraph(joint_graph())
        kernel_run = learn_weights(kernel, options)

        monkeypatch.setattr(CompiledGraph, "general_value_sums",
                            scalar_general_value_sums)
        monkeypatch.setattr(CompiledGraph, "unary_value_sums",
                            scalar_unary_value_sums)
        oracle = CompiledGraph(joint_graph())
        oracle_run = learn_weights(oracle, options)

        assert oracle._value_kernel is None         # really ran the oracle
        np.testing.assert_array_equal(kernel.weight_values,
                                      oracle.weight_values)
        assert kernel_run.gradient_norms == oracle_run.gradient_norms
        assert kernel_run.gradient_norms[0] > 0
        fixed = kernel.weight_keys.index("equal")
        assert kernel.weight_values[fixed] == 1.5
