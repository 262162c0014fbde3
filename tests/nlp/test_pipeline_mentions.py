"""Tests for the document pipeline and the mention-window features the
applications compute over its sentences."""

import pytest

from repro.apps.common import pair_features, window_features
from repro.datastore import Database
from repro.nlp import (Document, load_corpus, preprocess_document,
                       sentence_from_row, sentence_row)


@pytest.fixture
def sentence():
    doc = Document("d1", "B. Obama and his wife Michelle were married Oct. 3, 1992.")
    return preprocess_document(doc)[0]


class TestPipeline:
    def test_preprocess_produces_sentences(self):
        doc = Document("d1", "One sentence here. Another one here.")
        sentences = preprocess_document(doc)
        assert len(sentences) == 2
        assert sentences[0].sentence_id == 0
        assert sentences[1].sentence_id == 1

    def test_sentence_key_unique(self):
        doc = Document("d9", "A b. C d.")
        keys = [s.key for s in preprocess_document(doc)]
        assert len(set(keys)) == len(keys)

    def test_tokens_and_tags_aligned(self, sentence):
        assert len(sentence.tokens) == len(sentence.pos_tags)

    def test_html_document(self):
        doc = Document("d2", "<p>First para.</p><p>Second para.</p>")
        sentences = preprocess_document(doc)
        assert [s.text for s in sentences] == ["First para.", "Second para."]

    def test_load_corpus_populates_relations(self):
        db = Database()
        n = load_corpus(db, [Document("a", "One. Two."), Document("b", "Three.")])
        assert n == 3
        assert len(db["documents"]) == 2
        assert len(db["sentences"]) == 3

    def test_row_roundtrip(self, sentence):
        restored = sentence_from_row(sentence_row(sentence))
        assert restored == sentence
        assert hash(restored) == hash(sentence)
        assert restored.key == sentence.key


class TestSpanUtilities:
    """The between-phrase, window and distance features of
    ``repro.apps.common`` over a preprocessed sentence's tokens."""

    def positions(self, sentence, *words):
        tokens = list(sentence.tokens)
        return [tokens.index(word) for word in words]

    def test_phrase_between(self, sentence):
        obama, michelle = self.positions(sentence, "Obama", "Michelle")
        assert "between:and his wife" in pair_features(obama, michelle,
                                                       sentence.text)

    def test_phrase_between_is_symmetric(self, sentence):
        obama, michelle = self.positions(sentence, "Obama", "Michelle")
        assert pair_features(michelle, obama, sentence.text) \
            == pair_features(obama, michelle, sentence.text)

    def test_phrase_between_adjacent_empty(self, sentence):
        assert "between:" in pair_features(0, 1, sentence.text)

    def test_windows(self, sentence):
        michelle, = self.positions(sentence, "Michelle")
        features = window_features(michelle, sentence.text, size=2)
        assert {"l1:wife", "l2:his", "r1:were", "r2:married"} <= set(features)

    def test_window_clipped_at_start(self, sentence):
        features = window_features(0, sentence.text, size=3)
        assert features and not [f for f in features if f.startswith("l")]

    def test_token_distance(self, sentence):
        assert "dist:3" in pair_features(2, 5, sentence.text)
        assert "dist:3" in pair_features(5, 2, sentence.text)
