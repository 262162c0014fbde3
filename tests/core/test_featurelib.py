"""Tests for the Section-5.3 feature library."""

import pytest

from repro.core import STANDARD_TEMPLATES, FeatureLibrary, FeatureTemplate
from repro.eval.error_analysis import FeatureStat

SENTENCE = "Barack and his wife Michelle attended the gala ."


class TestTemplates:
    def test_standard_templates_cover_core_families(self):
        names = {t.name for t in STANDARD_TEMPLATES}
        assert {"between", "left", "right", "dist", "shape"} <= names

    def test_between_template(self):
        library = FeatureLibrary()
        features = library.udf(0, 4, SENTENCE)
        assert "between:and his wife" in features

    def test_bigram_template(self):
        library = FeatureLibrary()
        features = library.udf(0, 4, SENTENCE)
        assert "bet_bigram:his wife" in features

    def test_distance_template(self):
        library = FeatureLibrary()
        features = library.udf(0, 4, SENTENCE)
        assert "dist:4" in features

    def test_shape_template(self):
        library = FeatureLibrary()
        features = library.udf(0, 4, SENTENCE)
        # tokens are lowercased before templates run, so shapes are xxxx
        assert any(f.startswith("shape:") for f in features)

    def test_argument_order_invariant(self):
        library = FeatureLibrary()
        assert set(library.udf(0, 4, SENTENCE)) == set(library.udf(4, 0, SENTENCE))

    def test_custom_template(self):
        template = FeatureTemplate("always", lambda p1, p2, tokens: ["x"])
        library = FeatureLibrary(templates=[template])
        assert library.udf(0, 1, SENTENCE) == ["always:x"]


class TestDictionaries:
    def test_dictionary_feature_between(self):
        library = FeatureLibrary(templates=[],
                                 dictionaries={"kinship": {"wife", "husband"}})
        features = library.udf(0, 4, SENTENCE)
        assert "dict_kinship:between" in features

    def test_dictionary_feature_on_mentions(self):
        library = FeatureLibrary(templates=[],
                                 dictionaries={"names": {"barack"}})
        features = library.udf(0, 4, SENTENCE)
        assert "dict_kinship:m1" not in features
        assert "dict_names:m1" in features

    def test_dictionary_miss(self):
        library = FeatureLibrary(templates=[],
                                 dictionaries={"colors": {"teal"}})
        assert library.udf(0, 4, SENTENCE) == []


class TestPruning:
    def stats(self):
        return [
            FeatureStat("rule0:between:and his wife", 2.0, 30),
            FeatureStat("rule0:bet_word:and", 0.001, 30),
            FeatureStat("rule0:dist:4", -0.8, 30),
            FeatureStat("rule0:prefix:gala", 0.3, 0),
        ]

    def test_prune_by_weight(self):
        library = FeatureLibrary()
        kept = library.prune(self.stats(), min_weight=0.05)
        assert "between:and his wife" in kept
        assert "dist:4" in kept
        assert "bet_word:and" not in kept

    def test_prune_by_observations(self):
        library = FeatureLibrary()
        kept = library.prune(self.stats(), min_weight=0.05, min_observations=1)
        assert "prefix:gala" not in kept

    def test_pruned_udf_filters(self):
        library = FeatureLibrary()
        library.prune(self.stats(), min_weight=0.05)
        features = library.udf(0, 4, SENTENCE)
        assert "between:and his wife" in features
        assert all(not f.startswith("bet_word:") for f in features)


class TestEndToEnd:
    def test_library_drives_a_full_run(self):
        """The library's free features alone reach good spouse quality."""
        from repro.apps import spouse
        from repro.core.app import DeepDive
        from repro.corpus import spouse as spouse_corpus
        from repro.inference import LearningOptions

        corpus = spouse_corpus.generate(
            spouse_corpus.SpouseConfig(num_couples=25, num_distractor_pairs=25,
                                       num_sibling_pairs=8,
                                       sentences_per_pair=3), seed=17)
        app = DeepDive(spouse.PROGRAM, seed=0)
        library = FeatureLibrary()
        app.register_udf("spouse_features",
                         lambda p1, p2, c: library.udf(p1, p2, c))
        known_names = {name.lower() for name, _ in corpus.kb["NameEL"]}
        app.add_extractor("PersonCandidate",
                          spouse.person_extractor_factory(known_names))
        app.add_extractor("SpouseSentence", lambda s: [(s.key, s.text)])
        app.load_documents(corpus.documents)
        name_entities = {}
        for name, entity in corpus.kb["NameEL"]:
            name_entities.setdefault(name.lower(), []).append(entity)
        app.add_rows("EL", [(m, e) for (_, m, t, _)
                            in app.db["PersonCandidate"].distinct_rows()
                            for e in name_entities.get(t, ())])
        app.add_rows("Married", corpus.kb["Married"])
        app.add_rows("Sibling", corpus.kb["Sibling"])
        acquainted = []
        for a, b in corpus.metadata["distractors"][::2]:
            acquainted += [(a, b), (b, a)]
        app.add_rows("Acquainted", acquainted)
        result = app.run(threshold=0.8, holdout_fraction=0.1,
                         learning=LearningOptions(epochs=60, seed=0),
                         num_samples=200, burn_in=30,
                         compute_train_histogram=False)
        quality = spouse.evaluate(app, result, corpus)
        assert quality.f1 > 0.8
