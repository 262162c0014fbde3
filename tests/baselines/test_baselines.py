"""Tests for the baseline systems."""

import numpy as np
import pytest

from repro.baselines import (SPOUSE_REGEX_RULES, RegexRule, RuleBasedExtractor,
                             SiloedPipeline, VertexProgrammingGibbs,
                             classify_candidates, extraction_precision,
                             surface_extract, train_logistic)
from repro.corpus import books as books_corpus
from repro.corpus import spouse as spouse_corpus
from repro.eval import precision_recall
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler
from repro.nlp.pipeline import Document


class TestRegexExtractor:
    def test_single_rule(self):
        rule = RegexRule("wife", r"(\w+) and his wife (\w+)")
        extractor = RuleBasedExtractor([rule])
        (_, out), = extractor.extract_per_rule(
            [Document("d", "Alan and his wife Beth left.")])
        assert out == {("alan", "beth")}

    def test_postprocess_none_dropped(self):
        rule = RegexRule("drop", r"(\w+) x (\w+)", lambda m: None)
        extractor = RuleBasedExtractor([rule])
        assert extractor.extract_per_rule([Document("d", "a x b")]) == [
            ("drop", set())]

    def test_per_rule_curve_is_cumulative(self):
        corpus = spouse_corpus.generate(seed=0)
        extractor = RuleBasedExtractor(SPOUSE_REGEX_RULES)
        curve = extractor.extract_per_rule(corpus.documents)
        sizes = [len(found) for _, found in curve]
        assert sizes == sorted(sizes)

    def test_early_rules_most_productive(self):
        corpus = spouse_corpus.generate(
            spouse_corpus.SpouseConfig(num_couples=30), seed=0)
        gold = spouse_corpus.gold_name_pairs(corpus)
        extractor = RuleBasedExtractor(SPOUSE_REGEX_RULES)
        curve = extractor.extract_per_rule(corpus.documents)
        recalls = [precision_recall(found, gold).recall for _, found in curve]
        gains = [recalls[0]] + [recalls[i] - recalls[i - 1]
                                for i in range(1, len(recalls))]
        # diminishing returns: the first half of the rules contributes far
        # more recall than the second half
        half = len(gains) // 2
        assert sum(gains[:half]) > 2 * sum(gains[half:])

    def test_rules_plateau_below_one(self):
        config = spouse_corpus.SpouseConfig(num_couples=30)
        corpus = spouse_corpus.generate(config, seed=0)
        gold = spouse_corpus.gold_name_pairs(corpus)
        extractor = RuleBasedExtractor(SPOUSE_REGEX_RULES)
        _, found = extractor.extract_per_rule(corpus.documents)[-1]
        pr = precision_recall(found, gold)
        assert pr.f1 < 1.0


class TestSiloed:
    @pytest.fixture(scope="class")
    def corpus(self):
        return books_corpus.generate(seed=1)

    def test_extractor_high_precision_not_perfect(self, corpus):
        precision = extraction_precision(corpus)
        assert 0.5 < precision < 1.0

    def test_extractor_finds_movies(self, corpus):
        extracted = surface_extract(corpus.documents)
        movie_titles = {t for (t,) in corpus.kb["MovieDict"]}
        assert any(title in movie_titles for title, _ in extracted)

    def test_strict_policy_low_recall(self, corpus):
        result = SiloedPipeline("strict").run(corpus)
        assert result.quality.precision > 0.9
        assert result.quality.recall < 0.8

    def test_trusting_policy_low_precision(self, corpus):
        result = SiloedPipeline("trusting").run(corpus)
        assert result.quality.recall > 0.9
        assert result.quality.precision < 1.0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SiloedPipeline("hopeful")


class TestVertexProgramming:
    def build_graph(self):
        graph = FactorGraph()
        a = graph.variable("a")
        b = graph.variable("b")
        c = graph.variable("c")
        graph.add_factor(FactorFunction.IS_TRUE, [a], graph.weight("wa", 1.0))
        graph.add_factor(FactorFunction.IMPLY, [a, b], graph.weight("wi", 2.0))
        graph.add_factor(FactorFunction.EQUAL, [b, c], graph.weight("we", 1.5))
        return graph

    def test_agrees_with_csr_sampler(self):
        graph = self.build_graph()
        vertex_engine = VertexProgrammingGibbs(graph, seed=0)
        m_vertex = vertex_engine.marginals(num_samples=4000, burn_in=300)
        csr_engine = GibbsSampler(CompiledGraph(graph), seed=1)
        m_csr = csr_engine.marginals(num_samples=4000, burn_in=300).marginals
        np.testing.assert_allclose(m_vertex, m_csr, atol=0.05)

    def test_evidence_clamped(self):
        graph = self.build_graph()
        graph.set_evidence("a", True)
        engine = VertexProgrammingGibbs(graph, seed=0)
        marginals = engine.marginals(num_samples=50, burn_in=5)
        assert marginals[0] == 1.0

    def test_sweep_counts(self):
        graph = self.build_graph()
        graph.set_evidence("a", False)
        engine = VertexProgrammingGibbs(graph, seed=0)
        assert engine.sweep() == 2


class TestLogistic:
    def make_examples(self):
        examples = []
        for i in range(40):
            examples.append(([f"good"], True))
            examples.append(([f"bad"], False))
        return examples

    def test_learns_separation(self):
        model = train_logistic(self.make_examples(), epochs=30)
        assert model.probability(["good"]) > 0.8
        assert model.probability(["bad"]) < 0.2

    def test_unknown_features_neutral(self):
        model = train_logistic(self.make_examples(), epochs=30)
        p = model.probability(["never_seen"])
        assert 0.2 < p < 0.8

    def test_classify_candidates(self):
        model = train_logistic(self.make_examples(), epochs=30)
        chosen = classify_candidates(model, {"x": ["good"], "y": ["bad"]})
        assert chosen == {"x"}

    def test_deterministic(self):
        m1 = train_logistic(self.make_examples(), epochs=10, seed=2)
        m2 = train_logistic(self.make_examples(), epochs=10, seed=2)
        np.testing.assert_array_equal(m1.weights, m2.weights)
