"""The NLP row kernel against its scalar oracles.

``sentence_rows`` (and everything rebuilt on it) must equal the reference
composition ``strip_html -> split_sentences -> tokenize -> tag_token + repair
-> sentence_row`` written out below from the unconditional, object-building
forms of each step; the bounded tag memo must never change a tag.
"""

import html
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.nlp import htmlstrip, pos, sentences
from repro.nlp.pipeline import (Document, Sentence, preprocess_document,
                                preprocess_document_rows, sentence_row,
                                sentence_rows)
from repro.nlp.pos import tag, tag_token
from repro.nlp.tokenize import token_texts, tokenize


# ---------------------------------------------------------------- references
def reference_strip_html(raw):
    """Every substitution, every time (no fast paths)."""
    text = htmlstrip._SCRIPT_STYLE.sub(" ", raw)
    text = htmlstrip._COMMENT.sub(" ", text)
    text = htmlstrip._BLOCK_TAG.sub("\n", text)
    text = htmlstrip._ANY_TAG.sub(" ", text)
    text = html.unescape(text)
    text = htmlstrip._BLANK_RUNS.sub(" ", text)
    text = htmlstrip._NEWLINE_RUNS.sub("\n", text)
    return "\n".join(line.strip() for line in text.split("\n")).strip()


def reference_word_before(line, period_index):
    """The word a period ends, searched from the start of the line."""
    match = re.search(r"([A-Za-z][\w.]*)$", line[:period_index])
    return match.group(1) if match else None


def reference_tag(tokens):
    tags = [tag_token(text, is_sentence_initial=(i == 0))
            for i, text in enumerate(tokens)]
    if (len(tags) >= 2 and tags[1] == "NNP" and tokens[0][:1].isupper()
            and tags[0] in ("NN", "JJ", "VB")):
        tags[0] = "NNP"
    return tags


def reference_rows(doc_id, content):
    rows = []
    text = reference_strip_html(content)
    for index, sentence_text in enumerate(sentences.split_sentences(text)):
        tokens = [token.text for token in tokenize(sentence_text)]
        rows.append(sentence_row(Sentence(
            doc_id=doc_id, sentence_id=index, text=sentence_text,
            tokens=tuple(tokens), pos_tags=tuple(reference_tag(tokens)))))
    return rows


# ---------------------------------------------------------------- strategies
FRAGMENTS = st.sampled_from([
    # words, closed-class words, suffix cues, names
    "the", "The", "and", "married", "quickly", "information", "famous",
    "organize", "running", "Obama", "Barack", "Michelle", "Cats", "A", "I",
    "state-of-the-art", "don't", "BRCA1",
    # abbreviations and initials
    "Dr.", "Mr.", "et al.", "B. Obama", "e.g.", "i.e.", "Oct. 3", "Inc.",
    "U.S.A.", "x.Dr.",
    # numbers, ordinals, currency
    "3.14", "1,200.50", "12,345", "3rd", "22nd", "42", "$80", "€5", "50%",
    "No. 5", "v1.2.",
    # sentence enders
    ".", ". ", "! ", "? ", "...", ".\n", ". a", ". A",
    # HTML tags and entities
    "<p>", "</p>", "<br/>", "<b>", "</b>", "<div class='x'>", "</div>",
    "<script>var x = 1 < 2;</script>", "<style>p{}</style>",
    "<!-- note. -->", "<", ">", "&amp;", "&lt;", "&gt;", "&nbsp;", "&#10;",
    "&", "&bogus;",
    # unicode punctuation and letters
    "“", "”", "…", "—", "¿", "«", "é", "Éa.", "ß",
    # whitespace
    " ", "  ", "\t", "\n", "\n\n", " \n ", "\r\n", "\u00a0", "\u2003",
])

DOCUMENTS = st.one_of(
    st.lists(FRAGMENTS, max_size=40).map("".join),
    st.lists(st.one_of(FRAGMENTS, st.text(max_size=6)), max_size=25
             ).map(" ".join),
    st.sampled_from(["", " ", "\n", " \t\n ", "\n\n\n"]),
)


# --------------------------------------------------------------- equivalence
class TestRowKernel:
    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_rows_equal_reference_composition(self, content):
        expected = reference_rows("d", content)
        assert sentence_rows("d", content) == expected
        doc = Document("d", content)
        assert preprocess_document_rows(doc) == expected
        assert [sentence_row(s) for s in preprocess_document(doc)] == expected

    def test_empty_and_whitespace_documents_have_no_rows(self):
        for content in ("", " ", "\n \t \n", "<p></p>", "<!-- only -->"):
            assert sentence_rows("d", content) == []
            assert reference_rows("d", content) == []

    def test_sentence_initial_capital_before_nnp_is_repaired(self):
        (row,) = sentence_rows("d", "Barack Obama married Michelle Obama.")
        assert row[5][:2] == ("NNP", "NNP")
        assert row == reference_rows(
            "d", "Barack Obama married Michelle Obama.")[0]

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_strip_html_fast_paths_change_nothing(self, content):
        assert htmlstrip.strip_html(content) == reference_strip_html(content)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FRAGMENTS, max_size=12).map("".join))
    def test_word_before_period_matches_whole_line_search(self, line):
        for index, char in enumerate(line):
            if char != ".":
                continue
            found = sentences._WORD_BEFORE.search(
                line, line.rfind(" ", 0, index) + 1, index)
            assert (found.group() if found else None) \
                == reference_word_before(line, index)

    @given(st.one_of(DOCUMENTS, st.text(max_size=80)))
    def test_token_texts_are_the_tokenizer_surface_strings(self, text):
        assert token_texts(text) == [token.text for token in tokenize(text)]

    def test_counters_fire_on_row_and_sentence_paths(self):
        doc = Document("d", "One two. Three four five.")
        for run in (preprocess_document_rows, preprocess_document):
            collector = obs.Collector()
            with obs.installed(collector):
                run(doc)
            metrics = collector.metrics
            assert metrics.counter_total("nlp.documents") == 1
            assert metrics.histogram("nlp.sentences_per_doc").count == 1
            assert metrics.histogram("nlp.tokens_per_doc").count == 1


# ------------------------------------------------------------- bounded memo
TOKENS = st.one_of(
    st.sampled_from(["the", "The", "Obama", "married", "quickly", "$", ",",
                     "3rd", "1,200", "Cats", "famous", "nation", "I", "A"]),
    st.text(alphabet="abcdesilyngtzSAB.,$19-'", min_size=1, max_size=6))


class TestTagMemo:
    def test_eviction_never_changes_a_tag(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(pos, "_MEMO_CAP", cap)
        monkeypatch.setattr(pos, "_MEMO", ({}, {}))
        words = [f"Word{i}ly" for i in range(cap + 1)]
        # just under, at, and just over the cap (index 0 is the initial memo)
        for count, resident in ((cap - 1, cap - 2), (cap, cap - 1),
                                (cap + 1, cap)):
            pos._MEMO[False].clear()
            assert tag(words[:count]) == reference_tag(words[:count])
            assert len(pos._MEMO[False]) == resident
        # one more distinct token than the memo holds: cleared, then refilled
        assert tag(["x"] + words) == reference_tag(["x"] + words)
        assert len(pos._MEMO[False]) == 1
        assert tag(["x"] + words) == reference_tag(["x"] + words)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(TOKENS, max_size=9), max_size=12))
    def test_memo_is_bounded_and_transparent(self, token_lists):
        cap = 5
        saved_cap, saved_memo = pos._MEMO_CAP, pos._MEMO
        pos._MEMO_CAP, pos._MEMO = cap, ({}, {})
        try:
            for tokens in token_lists:
                assert tag(tokens) == reference_tag(tokens)
                assert len(pos._MEMO[False]) <= cap
                assert len(pos._MEMO[True]) <= cap
        finally:
            pos._MEMO_CAP, pos._MEMO = saved_cap, saved_memo

    def test_full_memos_stay_under_a_megabyte(self):
        memos = ({f"Token{i:07d}": "NNP" for i in range(pos._MEMO_CAP)},
                 {f"Token{i:07d}": "NN" for i in range(pos._MEMO_CAP)})
        footprint = sum(sys.getsizeof(memo) + sum(map(sys.getsizeof, memo))
                        for memo in memos)
        assert footprint < 1 << 20
