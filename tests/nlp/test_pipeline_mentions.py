"""Tests for the document pipeline and mention-span utilities."""

import pytest

from repro.datastore import Database
from repro.nlp import (Document, Span, load_corpus, parse_mention_id,
                       phrase_between, pos_window, preprocess_document,
                       sentence_from_row, sentence_row, token_distance,
                       window_after, window_before)


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

    def test_offsets_are_derived_from_the_text(self, sentence):
        assert len(sentence.offsets) == len(sentence.tokens)
        assert [sentence.text[start:end] for start, end in sentence.offsets] \
            == list(sentence.tokens)


class TestSpan:
    def test_mention_id_roundtrip(self):
        span = Span("doc:0", 2, 5)
        assert parse_mention_id(span.mention_id) == span

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span("s", 3, 3)

    def test_overlaps(self):
        a = Span("s", 0, 3)
        assert a.overlaps(Span("s", 2, 4))
        assert not a.overlaps(Span("s", 3, 4))
        assert not a.overlaps(Span("other", 0, 3))

    def test_text(self, sentence):
        tokens = list(sentence.tokens)
        obama = tokens.index("Obama")
        span = Span(sentence.key, obama, obama + 1)
        assert span.text(sentence) == "Obama"

    def test_length(self):
        assert Span("s", 1, 4).length == 3


class TestSpanUtilities:
    def test_phrase_between(self, sentence):
        # tokens: B . Obama and his wife Michelle were married ...
        tokens = list(sentence.tokens)
        obama = tokens.index("Obama")
        michelle = tokens.index("Michelle")
        left = Span(sentence.key, obama, obama + 1)
        right = Span(sentence.key, michelle, michelle + 1)
        assert phrase_between(sentence, left, right) == "and his wife"

    def test_phrase_between_is_symmetric(self, sentence):
        tokens = list(sentence.tokens)
        obama = tokens.index("Obama")
        michelle = tokens.index("Michelle")
        left = Span(sentence.key, obama, obama + 1)
        right = Span(sentence.key, michelle, michelle + 1)
        assert phrase_between(sentence, right, left) == phrase_between(sentence, left, right)

    def test_phrase_between_adjacent_empty(self, sentence):
        assert phrase_between(sentence, Span(sentence.key, 0, 1), Span(sentence.key, 1, 2)) == ""

    def test_windows(self, sentence):
        tokens = list(sentence.tokens)
        michelle = tokens.index("Michelle")
        span = Span(sentence.key, michelle, michelle + 1)
        assert window_before(sentence, span, 2) == ("his", "wife")
        assert window_after(sentence, span, 2) == ("were", "married")

    def test_window_clipped_at_start(self, sentence):
        span = Span(sentence.key, 0, 1)
        assert window_before(sentence, span, 3) == ()

    def test_pos_window_padded(self, sentence):
        span = Span(sentence.key, 0, 1)
        window = pos_window(sentence, span, 2)
        assert window[0] == "-" and window[1] == "-"
        assert len(window) == 4

    def test_token_distance(self):
        assert token_distance(Span("s", 0, 2), Span("s", 5, 6)) == 3
        assert token_distance(Span("s", 5, 6), Span("s", 0, 2)) == 3

    def test_token_distance_cross_sentence_raises(self):
        with pytest.raises(ValueError):
            token_distance(Span("a", 0, 1), Span("b", 2, 3))
