"""Unit tests for the POS tagger."""

from repro.nlp import tag, tag_token


class TestTagToken:
    def test_determiner(self):
        assert tag_token("the") == "DT"

    def test_preposition(self):
        assert tag_token("with") == "IN"

    def test_number(self):
        assert tag_token("1,200") == "CD"

    def test_ordinal(self):
        assert tag_token("3rd") == "CD"

    def test_currency_symbol(self):
        assert tag_token("$") == "SYM"

    def test_punctuation(self):
        assert tag_token(",") == "PUNCT"

    def test_capitalized_mid_sentence_is_nnp(self):
        assert tag_token("Obama") == "NNP"

    def test_common_verb(self):
        assert tag_token("married") == "VB"

    def test_ly_adverb(self):
        assert tag_token("quickly") == "RB"

    def test_noun_suffix(self):
        assert tag_token("information") == "NN"

    def test_adjective_suffix(self):
        assert tag_token("famous") == "JJ"

    def test_default_noun(self):
        assert tag_token("fox") == "NN"


class TestTagSentence:
    def test_sentence_initial_name_repaired(self):
        tags = tag(["Barack", "Obama", "married", "Michelle"])
        assert tags[0] == "NNP"
        assert tags[1] == "NNP"

    def test_full_sentence(self):
        tags = tag(["The", "gene", "regulates", "the", "phenotype"])
        assert tags == ["DT", "NN", "VB", "DT", "NN"]

    def test_empty(self):
        assert tag([]) == []

