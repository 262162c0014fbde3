"""Tests for CSV and JSON persistence."""

import io

import pytest

from repro.datastore import Database, Relation, Schema
from repro.datastore.io import (database_from_dict, database_to_dict,
                                dump_database, load_database, read_csv,
                                relation_to_csv_text, write_csv)


def sample_relation():
    relation = Relation("mixed", Schema.of(
        name="text", age="int", score="float", active="bool", tags="array"))
    relation.insert(("alice", 30, 1.5, True, ("a", "b")))
    relation.insert(("bob", None, None, False, ()))
    relation.insert(("alice", 30, 1.5, True, ("a", "b")))  # duplicate
    return relation


class TestCsv:
    def test_roundtrip(self):
        relation = sample_relation()
        text = relation_to_csv_text(relation)
        restored = read_csv(io.StringIO(text), relation.schema)
        assert sorted(restored) == sorted(relation)

    def test_multiplicity_preserved(self):
        relation = sample_relation()
        restored = read_csv(io.StringIO(relation_to_csv_text(relation)),
                            relation.schema)
        assert restored.count(("alice", 30, 1.5, True, ("a", "b"))) == 2

    def test_header_written(self):
        text = relation_to_csv_text(sample_relation())
        assert text.splitlines()[0] == "name,age,score,active,tags"

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_csv(io.StringIO("x,y\n1,2\n"), Schema.of(a="int", b="int"))

    def test_empty_stream(self):
        relation = read_csv(io.StringIO(""), Schema.of(a="int"))
        assert len(relation) == 0

    def test_write_returns_count(self):
        buffer = io.StringIO()
        assert write_csv(sample_relation(), buffer) == 3


class TestJsonDatabase:
    def make_db(self):
        db = Database()
        db.create("people", name="text", age="int")
        db.insert("people", [("alice", 30), ("bob", 25)])
        db.create("tags", item="text", labels="array")
        db.insert("tags", [("x", ("t1", "t2"))])
        return db

    def test_roundtrip(self):
        db = self.make_db()
        restored = database_from_dict(database_to_dict(db))
        assert restored.names() == db.names()
        for name in db.names():
            assert sorted(restored[name]) == sorted(db[name])
            assert restored[name].schema == db[name].schema

    def test_stream_roundtrip(self):
        db = self.make_db()
        buffer = io.StringIO()
        dump_database(db, buffer)
        buffer.seek(0)
        restored = load_database(buffer)
        assert sorted(restored["people"]) == sorted(db["people"])

    def test_subset_of_relations(self):
        db = self.make_db()
        data = database_to_dict(db, relations=["people"])
        assert set(data["relations"]) == {"people"}

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            database_from_dict({"version": 99, "relations": {}})


class TestMutationVersionRoundTrip:
    """Dump/load preserves relation mutation counters so incremental
    machinery (DRed views, columnar caches) resumes correctly."""

    def test_counters_round_trip(self):
        db = Database()
        db.create("people", name="text", age="int")
        db.insert("people", [("alice", 30), ("bob", 25)])
        db["people"].delete(("bob", 25))
        before = db["people"].mutation_version
        assert before > 0
        restored = database_from_dict(database_to_dict(db))
        assert restored["people"].mutation_version == before

    @pytest.mark.parametrize("version", [1, 2, 4, "3", None])
    def test_other_versions_are_refused(self, version):
        """v1/v2 (expanded rows) lost their reader with their last writer;
        anything but the current format raises, naming the one it reads."""
        db = Database()
        db.create("people", name="text")
        db.insert("people", [("alice",)])
        data = database_to_dict(db)
        assert data["version"] == 3
        data["version"] = version
        with pytest.raises(ValueError, match="reads version 3 only"):
            database_from_dict(data)

    def test_writer_takes_no_version(self):
        with pytest.raises(TypeError):
            database_to_dict(Database(), version=2)

    def test_counter_cannot_rewind(self):
        relation = Relation("r", Schema.of(a="int"))
        relation.insert((1,))
        with pytest.raises(ValueError, match="rewind"):
            relation.restore_mutation_version(0)

    def test_restored_database_resumes_dred_deltas(self):
        """A DRed view defined over a restored database absorbs a delta and
        lands on the same state as the never-dumped original."""
        from repro.datastore.plan import Scan, Select

        def build(db):
            db.views.define(
                "adults", Select(Scan("people"), lambda row: row["age"] >= 18))

        original = Database()
        original.create("people", name="text", age="int")
        original.insert("people", [("alice", 30), ("kid", 7)])

        restored = database_from_dict(database_to_dict(original))
        build(original)
        build(restored)
        for db in (original, restored):
            db.views.apply_changes(inserts={"people": [("carol", 41)]},
                                   deletes={"people": [("alice", 30)]})
        assert sorted(restored.views["adults"].visible_rows()) == \
            sorted(original.views["adults"].visible_rows()) == [("carol", 41)]
        assert restored["people"].mutation_version == \
            original["people"].mutation_version
