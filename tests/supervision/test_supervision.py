"""Tests for the overlap detector and manual-labelling comparator."""

import pytest

from repro.factorgraph import FactorFunction, FactorGraph
from repro.supervision import (apply_manual_labels, detect_supervision_overlap,
                               noisy_oracle)


def labelled_graph(num_positive=20, num_negative=20,
                   overlap_feature=True, coverage=1.0):
    """Evidence variables with a normal feature plus (optionally) a feature
    that duplicates the supervision rule."""
    graph = FactorGraph()
    normal = graph.weight("normal_feature")
    dup = graph.weight("kb_duplicate")
    for i in range(num_positive):
        v = graph.variable(("pos", i))
        graph.set_evidence(("pos", i), True)
        graph.add_factor(FactorFunction.IS_TRUE, [v], normal)
        if overlap_feature and i < int(num_positive * coverage):
            graph.add_factor(FactorFunction.IS_TRUE, [v], dup)
    for i in range(num_negative):
        v = graph.variable(("neg", i))
        graph.set_evidence(("neg", i), False)
        graph.add_factor(FactorFunction.IS_TRUE, [v], normal)
    return graph


class TestOverlapDetector:
    def test_duplicate_feature_flagged(self):
        warnings = detect_supervision_overlap(labelled_graph())
        assert [w.weight_key for w in warnings] == ["kb_duplicate"]
        assert warnings[0].severity == 1.0

    def test_normal_feature_not_flagged(self):
        warnings = detect_supervision_overlap(labelled_graph(overlap_feature=False))
        assert warnings == []

    def test_low_coverage_not_flagged(self):
        graph = labelled_graph(coverage=0.3)
        assert detect_supervision_overlap(graph) == []

    def test_coverage_threshold_tunable(self):
        graph = labelled_graph(coverage=0.85)
        assert detect_supervision_overlap(graph, min_coverage=0.8)
        assert not detect_supervision_overlap(graph, min_coverage=0.9)

    def test_feature_firing_on_negatives_not_flagged(self):
        graph = labelled_graph()
        dup = graph.weight("kb_duplicate")
        # the "duplicate" also fires on many negatives -> just a common feature
        for i in range(10):
            graph.add_factor(FactorFunction.IS_TRUE,
                             [graph.variable_id(("neg", i))], dup)
        assert detect_supervision_overlap(graph) == []

    def test_too_few_positives_silent(self):
        graph = labelled_graph(num_positive=2, num_negative=2)
        assert detect_supervision_overlap(graph) == []

    def test_describe(self):
        warning = detect_supervision_overlap(labelled_graph())[0]
        assert "kb_duplicate" in warning.describe()


class TestNoisyOracle:
    def test_zero_error_is_truth(self):
        oracle = noisy_oracle({"a", "b"}, error_rate=0.0)
        assert oracle("a") is True
        assert oracle("z") is False

    def test_deterministic_per_item(self):
        oracle = noisy_oracle({"a"}, error_rate=0.5, seed=1)
        first = oracle("a")
        assert all(oracle("a") == first for _ in range(10))

    def test_error_rate_approximate(self):
        truth = {f"t{i}" for i in range(500)}
        oracle = noisy_oracle(truth, error_rate=0.2, seed=0)
        wrong = sum(1 for item in truth if not oracle(item))
        assert 0.1 < wrong / 500 < 0.3


class TestApplyManualLabels:
    def test_budget_respected(self):
        graph = FactorGraph()
        keys = []
        for i in range(50):
            key = ("q", i)
            graph.variable(key)
            keys.append(key)
        applied = apply_manual_labels(graph, keys, lambda k: True, budget=10)
        assert applied == 10
        labelled = [v for v in graph.variables.values() if v.evidence is not None]
        assert len(labelled) == 10

    def test_missing_variables_skipped(self):
        graph = FactorGraph()
        graph.variable(("q", 0))
        applied = apply_manual_labels(graph, [("q", 0), ("q", 99)],
                                      lambda k: False, budget=10)
        assert applied == 1
