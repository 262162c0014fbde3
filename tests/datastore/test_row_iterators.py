"""The row-iterator protocol: streaming reads over relations and views."""

import pytest

from repro.datastore import Database, Schema
from repro.datastore.segments import SegmentedRelation
from repro.nlp.pipeline import (Document, iter_corpus_rows, load_corpus,
                                preprocess_document,
                                preprocess_document_rows, sentence_row)


SCHEMA = Schema.of(k="text", n="int")


class TestRelationIterRows:
    def test_matches_dunder_iter_with_multiplicity(self):
        db = Database()
        relation = db.create("r", SCHEMA)
        relation.insert(("a", 1), count=3)
        relation.insert(("b", 2))
        assert sorted(relation.iter_rows()) == sorted(relation)
        assert len(list(relation.iter_rows())) == 4

    def test_is_lazy(self):
        db = Database()
        relation = db.create("r", SCHEMA)
        relation.insert_many((f"k{i}", i) for i in range(10))
        iterator = relation.iter_rows()
        assert next(iter(iterator)) is not None   # consumable, not a list
        assert not isinstance(iterator, list)

    def test_streams_into_insert_many(self):
        db = Database()
        source = db.create("src", SCHEMA)
        source.insert_many((f"k{i}", i) for i in range(50))
        sink = db.create("dst", SCHEMA)
        assert sink.insert_many(source.iter_rows()) == 50
        assert sorted(sink) == sorted(source)

    def test_segmented_relation_streams_by_segment(self, tmp_path):
        relation = SegmentedRelation("seg", SCHEMA, directory=tmp_path,
                                     segment_rows=8)
        relation.insert_many((f"k{i}", i) for i in range(30))
        assert sorted(relation.iter_rows()) == sorted(
            (f"k{i}", i) for i in range(30))


class TestViewIterVisible:
    def make_view(self):
        from repro.datastore.plan import Scan

        db = Database()
        base = db.create("base", SCHEMA)
        base.insert_many((f"k{i}", i) for i in range(6))
        view = db.views.define("v", Scan("base"))
        return db, base, view

    def test_matches_visible_rows(self):
        _db, base, view = self.make_view()
        assert sorted(view.iter_visible()) == sorted(base)

    def test_retracted_rows_are_invisible(self):
        db, base, view = self.make_view()
        db.views.apply_changes(deletes={"base": [("k0", 0)]})
        assert ("k0", 0) not in set(view.iter_visible())
        assert len(list(view.iter_visible())) == 5


class TestCorpusRowStreaming:
    DOCS = [Document(f"d{i}", f"The plum tree number {i} grew. It thrived.")
            for i in range(4)]

    def test_rows_match_object_pipeline(self):
        for doc in self.DOCS:
            rows = preprocess_document_rows(doc)
            expected = [sentence_row(s) for s in preprocess_document(doc)]
            assert rows == expected

    def test_iter_corpus_rows_sequential_is_lazy_and_identical(self):
        lazy = iter_corpus_rows(self.DOCS)
        assert not isinstance(lazy, list)
        assert list(lazy) == [preprocess_document_rows(d) for d in self.DOCS]

    def test_load_corpus_contents_unchanged(self):
        streamed = Database()
        load_corpus(streamed, self.DOCS)
        reference = Database()
        if "sentences" not in reference:
            from repro.nlp.pipeline import DOCUMENT_SCHEMA, SENTENCE_SCHEMA
            reference.create("documents", DOCUMENT_SCHEMA)
            reference.create("sentences", SENTENCE_SCHEMA)
        for doc in self.DOCS:
            reference["documents"].insert((doc.doc_id, doc.content))
            for sentence in preprocess_document(doc):
                reference["sentences"].insert(sentence_row(sentence))
        assert sorted(streamed["sentences"]) == sorted(
            reference["sentences"])
        assert sorted(streamed["documents"]) == sorted(
            reference["documents"])

    def test_relations_byte_identical(self):
        """The streamed load (one document per chunk) yields the same rows,
        in the same order, as the one-shot load."""
        one_shot, streamed = Database(), Database()
        loaded = load_corpus(one_shot, self.DOCS)
        assert load_corpus(streamed, iter(self.DOCS), chunk_docs=1) == loaded
        assert list(streamed["sentences"]) == list(one_shot["sentences"])
        assert list(streamed["documents"]) == list(one_shot["documents"])

    def test_bulk_load_single_version_bump(self):
        """load_corpus bulk-inserts, not row at a time."""
        db = Database()
        load_corpus(db, self.DOCS)
        sentences = db["sentences"]
        assert len(list(sentences)) > len(self.DOCS)
        # insert_many bumps the relation version once for the whole batch
        assert sentences._version == 1
        assert db["documents"]._version == 1
