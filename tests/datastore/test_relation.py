"""Unit tests for the bag-semantics tuple store."""

import pytest

from repro.datastore import Relation, Schema


@pytest.fixture
def people():
    relation = Relation("people", Schema.of(name="text", age="int"))
    relation.insert(("alice", 30))
    relation.insert(("bob", 25))
    relation.insert(("alice", 30))  # duplicate -> multiplicity 2
    return relation


class TestBasics:
    def test_len_counts_multiplicity(self, people):
        assert len(people) == 3

    def test_distinct_count(self, people):
        assert people.distinct_count == 2

    def test_iter_repeats_duplicates(self, people):
        rows = list(people)
        assert rows.count(("alice", 30)) == 2

    def test_contains(self, people):
        assert ("bob", 25) in people
        assert ("carol", 1) not in people

    def test_count(self, people):
        assert people.count(("alice", 30)) == 2
        assert people.count(("zed", 0)) == 0

    def test_insert_validates(self, people):
        from repro.datastore.schema import SchemaError
        with pytest.raises(SchemaError):
            people.insert(("too", "many", "cols"))

    def test_insert_count_must_be_positive(self, people):
        with pytest.raises(ValueError):
            people.insert(("x", 1), count=0)


class TestDelete:
    def test_delete_decrements(self, people):
        assert people.delete(("alice", 30)) == 1
        assert people.count(("alice", 30)) == 1

    def test_delete_removes_at_zero(self, people):
        people.delete(("alice", 30), count=2)
        assert ("alice", 30) not in people

    def test_delete_absent_returns_zero(self, people):
        assert people.delete(("nobody", 1)) == 0

    def test_delete_caps_at_present(self, people):
        assert people.delete(("bob", 25), count=10) == 1

    def test_clear(self, people):
        people.clear()
        assert len(people) == 0


class TestIndexes:
    def test_lookup_builds_index(self, people):
        rows = list(people.lookup(["name"], ["alice"]))
        assert rows == [("alice", 30), ("alice", 30)]

    def test_lookup_miss(self, people):
        assert list(people.lookup(["name"], ["zed"])) == []

    def test_index_stays_consistent_after_insert(self, people):
        list(people.lookup(["age"], [25]))  # force index creation
        people.insert(("dan", 25))
        assert sorted(people.lookup(["age"], [25])) == [("bob", 25), ("dan", 25)]

    def test_index_stays_consistent_after_delete(self, people):
        list(people.lookup(["age"], [30]))
        people.delete(("alice", 30), count=2)
        assert list(people.lookup(["age"], [30])) == []

    def test_multicolumn_lookup(self, people):
        assert list(people.lookup(["name", "age"], ["bob", 25])) \
            == [("bob", 25)]


class TestConveniences:
    def test_copy_is_independent(self, people):
        clone = people.copy("clone")
        clone.insert(("erin", 1))
        assert ("erin", 1) not in people
        assert clone.count(("alice", 30)) == 2
