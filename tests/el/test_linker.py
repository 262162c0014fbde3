"""Tests for the entity-linking substrate.

The linker's ranking of one text and ``link_mentions`` are checked against
the scalar oracle in ``tests/el/oracle.py`` over generated alias tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.el import AliasTable, EntityLinker, link_mentions, normalize
from tests.el.oracle import (LinkCandidate, reference_link,
                             reference_link_mentions)


def link(linker, text, top=None):
    """``linker``'s ranked candidates for one mention text."""
    return [LinkCandidate(entity, score, method) for score, entity, method
            in linker._ranked(text, overlap=True)[:top]]


@pytest.fixture
def table():
    table = AliasTable()
    table.add_many([
        ("E_obama", "Barack Obama"),
        ("E_obama", "B. Obama"),
        ("E_obama", "President Obama"),
        ("E_michelle", "Michelle Obama"),
        ("E_springfield_il", "Springfield"),
        ("E_springfield_ma", "Springfield"),
    ])
    return table


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize("B. Obama!") == "b obama"

    def test_whitespace_collapsed(self):
        assert normalize("  a   b ") == "a b"


class TestAliasTable:
    def test_exact_lookup(self, table):
        assert link_mentions([("m1", "Barack Obama")], EntityLinker(table),
                             min_score=1.0) == [("m1", "E_obama")]

    def test_ambiguous_alias(self, table):
        rows = link_mentions([("m1", "springfield")], EntityLinker(table),
                             min_score=0.9)
        assert rows == [("m1", "E_springfield_il"),
                        ("m1", "E_springfield_ma")]


class TestEntityLinker:
    def test_exact_match_scores_one(self, table):
        linker = EntityLinker(table)
        candidates = link(linker, "Barack Obama")
        assert candidates[0].entity == "E_obama"
        assert candidates[0].score == 1.0
        assert candidates[0].method == "exact"

    def test_normalized_match(self, table):
        linker = EntityLinker(table)
        candidates = link(linker, "barack obama")
        assert candidates[0].entity == "E_obama"
        assert candidates[0].method == "normalized"

    def test_token_overlap_match(self, table):
        linker = EntityLinker(table)
        candidates = link(linker, "Obama")
        entities = {c.entity for c in candidates}
        assert "E_obama" in entities
        assert all(c.method == "overlap" for c in candidates)

    def test_no_match(self, table):
        assert link(EntityLinker(table), "Zebra") == []

    def test_ambiguity_preserved(self, table):
        candidates = link(EntityLinker(table), "Springfield")
        assert {c.entity for c in candidates} == {
            "E_springfield_il", "E_springfield_ma"}

    def test_top_limits(self, table):
        assert len(link(EntityLinker(table), "Springfield", top=1)) == 1

    def test_min_overlap_threshold(self, table):
        strict = EntityLinker(table, min_overlap=0.9)
        # "Obama" vs "Barack Obama": jaccard 1/2 -> filtered when strict
        assert all(c.method != "overlap" for c in link(strict, "Obama"))

    def test_ranking_deterministic(self, table):
        linker = EntityLinker(table)
        assert link(linker, "Springfield") == link(linker, "Springfield")


class TestLinkMentions:
    def test_bulk_linking(self, table):
        linker = EntityLinker(table)
        rows = link_mentions([("m1", "Barack Obama"), ("m2", "Zebra"),
                              ("m3", "Springfield")], linker)
        assert ("m1", "E_obama") in rows
        assert all(mid != "m2" for mid, _ in rows)
        springfield_rows = [r for r in rows if r[0] == "m3"]
        assert len(springfield_rows) == 2

    def test_min_score_filters(self, table):
        linker = EntityLinker(table)
        rows = link_mentions([("m1", "Obama")], linker, min_score=0.99)
        assert rows == []

    def test_overlap_tops_out_at_min_score_boundary(self):
        """Equal token sets in another order overlap at exactly 0.8: a
        ``min_score`` of 0.8 keeps the row, anything above drops it."""
        table = AliasTable()
        table.add("E_smith", "Smith, Ann")
        linker = EntityLinker(table)
        assert link(linker, "Ann Smith") == [
            LinkCandidate("E_smith", 0.8, "overlap")]
        assert link_mentions([("m1", "Ann Smith")], linker,
                             min_score=0.8) == [("m1", "E_smith")]
        assert link_mentions([("m1", "Ann Smith")], linker,
                             min_score=0.8000001) == []


class TestEmptyNormalizedForm:
    """A mention or alias that normalizes to nothing is no name to match
    on: only an identical alias links it."""

    @pytest.fixture
    def punctuation(self):
        table = AliasTable()
        table.add_many([("E_bang", "!!!"), ("E_dash", "-"),
                        ("E_obama", "Barack Obama")])
        return table

    @pytest.mark.parametrize("text", ["?", "", "...", " - "])
    def test_links_nothing(self, punctuation, text):
        assert link(EntityLinker(punctuation), text) == []

    def test_identical_alias_still_links(self, punctuation):
        assert link(EntityLinker(punctuation), "!!!") == [
            LinkCandidate("E_bang", 1.0, "exact")]

    def test_link_mentions_emits_no_rows(self, punctuation):
        rows = link_mentions([("m1", "?"), ("m2", ""), ("m3", "Barack Obama")],
                             EntityLinker(punctuation), min_score=0.0)
        assert rows == [("m3", "E_obama")]


# ------------------------------------------------------------ oracle property
FIRST = ["Ann", "Bob", "Carl", "Dana"]
LAST = ["Smith", "Jones", "Lee", "O'Neil"]
VARIANTS = ["{f} {l}", "{f}", "{l}", "{l}, {f}", "{i}. {l}", "{f}-{l}",
            "{f} {m} {l}", "  {f}   {l}!"]
CASES = [str, str.upper, str.lower]
PUNCTUATION = ["!!!", "-", "...", "?", ""]


def _variant(template, case, first, last, middle):
    return case(template.format(f=first, l=last, i=first[0], m=middle))


@st.composite
def alias_tables(draw):
    """(entity, alias) pairs: entities share first and last names, aliases
    vary in case, punctuation and token count, one entity has many aliases
    and an alias may normalize to nothing."""
    pairs = []
    for index in range(draw(st.integers(1, 6))):
        entity = f"E{index}"
        first, last = draw(st.sampled_from(FIRST)), draw(st.sampled_from(LAST))
        middle = draw(st.sampled_from(FIRST))
        count = draw(st.integers(8, 14) if index == 0 else st.integers(1, 3))
        for _ in range(count):
            pairs.append((entity, _variant(draw(st.sampled_from(VARIANTS)),
                                           draw(st.sampled_from(CASES)),
                                           first, last, middle)))
        if draw(st.booleans()):
            pairs.append((entity, draw(st.sampled_from(PUNCTUATION))))
    return pairs


@st.composite
def linking_cases(draw):
    pairs = draw(alias_tables())
    names = [alias for _, alias in pairs] + PUNCTUATION + [
        _variant(template, case, first, last, "Bob")
        for template in VARIANTS[:4] for case in CASES
        for first in FIRST[:2] for last in LAST]
    texts = draw(st.lists(st.sampled_from(names), min_size=1, max_size=12))
    mentions = [(f"m{i}", text) for i, text in enumerate(texts + texts[:3])]
    return (pairs, mentions,
            draw(st.sampled_from([0, 0.4, 0.8, 0.8000001, 0.85, 1])),
            draw(st.sampled_from([None, 1, 2])))


def expected_link(pairs, text, top):
    """The oracle's ranking, minus the normalized matches it makes for an
    empty normalized form."""
    ranked = reference_link(pairs, text)
    if not normalize(text):
        ranked = [c for c in ranked if c.method == "exact"]
    return ranked[:top]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(linking_cases())
def test_linker_equals_scalar_oracle(case):
    pairs, mentions, min_score, top = case
    table = AliasTable()
    table.add_many(pairs)
    linker = EntityLinker(table)
    for _, text in mentions:
        assert link(linker, text, top=top) == expected_link(pairs, text, top)
    expected_rows = [(mention_id, candidate.entity)
                     for mention_id, text in mentions
                     for candidate in expected_link(pairs, text, top)
                     if candidate.score >= min_score]
    assert link_mentions(mentions, linker, min_score=min_score,
                         top=top) == expected_rows
    if all(normalize(text) for _, text in mentions):
        assert expected_rows == reference_link_mentions(
            pairs, mentions, min_score=min_score, top=top)
