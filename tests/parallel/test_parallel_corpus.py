"""Parallel corpus loading: byte-identical relations, fallback safety."""

import pytest

import repro.parallel
from repro.datastore import Database
from repro.nlp.pipeline import (Document, load_corpus, preprocess_corpus,
                                preprocess_document)


def documents(count=17):
    return [Document(f"doc{i}",
                     f"<p>Alpha {i} studies beta. Gamma {i} runs the "
                     f"experiment quickly. Delta wins.</p>")
            for i in range(count)]


class TestPreprocessCorpus:
    def test_parallel_matches_sequential(self):
        docs = documents()
        sequential = [preprocess_document(d) for d in docs]
        for workers in (2, 4):
            assert preprocess_corpus(docs, workers=workers,
                                     pool_min_work=0) == sequential

    def test_single_document_stays_sequential(self):
        docs = documents(count=1)
        assert preprocess_corpus(docs, workers=4, pool_min_work=0) \
            == [preprocess_document(docs[0])]

    def test_small_corpus_stays_sequential(self, monkeypatch):
        """Adaptive dispatch: below the work threshold, no pool is touched."""
        docs = documents(count=5)
        monkeypatch.setattr(repro.parallel, "get_pool",
                            lambda *a, **k: pytest.fail("pool dispatched"))
        assert preprocess_corpus(docs, workers=2, pool_min_work=10 ** 9) \
            == [preprocess_document(d) for d in docs]

    def test_pool_failure_falls_back(self, monkeypatch):
        docs = documents(count=5)
        monkeypatch.setattr(repro.parallel, "get_pool",
                            lambda *args, **kwargs: None)
        assert preprocess_corpus(docs, workers=2, pool_min_work=0) \
            == [preprocess_document(d) for d in docs]


class TestLoadCorpus:
    def test_relations_byte_identical(self):
        """Satellite: parallel load_corpus yields the same rows, same order."""
        docs = documents()
        db_seq, db_par = Database(), Database()
        rows_seq = load_corpus(db_seq, docs, workers=0)
        rows_par = load_corpus(db_par, docs, workers=2, pool_min_work=0)
        assert rows_seq == rows_par
        assert list(db_seq["sentences"]) == list(db_par["sentences"])
        assert list(db_seq["documents"]) == list(db_par["documents"])

    def test_defaults_resolve_from_database_config(self, monkeypatch):
        """load_corpus reads the pool knobs off db.config when not passed."""
        captured = {}

        def fake_iter_rows(docs, **kwargs):
            captured.update(kwargs)
            return [[pipeline.sentence_row(s) for s in preprocess_document(d)]
                    for d in docs]

        import repro.nlp.pipeline as pipeline
        monkeypatch.setattr(pipeline, "iter_corpus_rows", fake_iter_rows)
        from repro.obs import EngineConfig
        db = Database(config=EngineConfig(workers=3, parallel_mode="fork",
                                          pool_min_work=7))
        load_corpus(db, documents(count=2))
        assert captured == {"workers": 3, "parallel_mode": "fork",
                            "pool_min_work": 7, "pool_owner": None}

    def test_bulk_load_single_version_bump(self):
        """Satellite: sequential load_corpus bulk-inserts, not row at a time."""
        docs = documents(count=6)
        db = Database()
        load_corpus(db, docs, workers=0)
        sentences = db["sentences"]
        assert len(list(sentences)) > 6
        # insert_many bumps the relation version once for the whole batch
        assert sentences._version == 1
        assert db["documents"]._version == 1
