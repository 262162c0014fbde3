"""Unit tests for the relational-algebra operators."""

import pytest

from repro.datastore import Relation, Schema, SchemaError
from repro.datastore import query as Q


@pytest.fixture
def emp():
    relation = Relation("emp", Schema.of(name="text", dept="text", salary="int"))
    relation.insert_many([
        ("alice", "eng", 100),
        ("bob", "eng", 90),
        ("carol", "sales", 80),
        ("dan", "sales", 80),
    ])
    return relation


@pytest.fixture
def dept():
    relation = Relation("dept", Schema.of(dept="text", floor="int"))
    relation.insert_many([("eng", 3), ("sales", 1)])
    return relation


class TestSelectProject:
    def test_select(self, emp):
        out = Q.select(emp, lambda r: r["salary"] > 85)
        assert sorted(name for name, _, _ in out) == ["alice", "bob"]

    def test_select_preserves_counts(self, emp):
        emp.insert(("alice", "eng", 100))
        out = Q.select(emp, lambda r: r["name"] == "alice")
        assert len(out) == 2

    def test_project_bag(self, emp):
        out = Q.project(emp, ["dept"])
        assert len(out) == 4
        assert out.count(("eng",)) == 2

    def test_project_distinct(self, emp):
        out = Q.project(emp, ["dept"], distinct=True)
        assert len(out) == 2

    def test_project_reorders(self, emp):
        out = Q.project(emp, ["salary", "name"])
        assert out.schema.names == ("salary", "name")

    def test_rename(self, emp):
        out = Q.rename(emp, {"name": "employee"})
        assert "employee" in out.schema

    def test_extend(self, emp):
        out = Q.extend(emp, "double_salary", "int", lambda r: r["salary"] * 2)
        assert ("alice", "eng", 100, 200) in out


class TestJoin:
    def test_natural_join(self, emp, dept):
        out = Q.join(emp, dept)
        assert out.schema.names == ("name", "dept", "salary", "floor")
        assert ("alice", "eng", 100, 3) in out
        assert len(out) == 4

    def test_explicit_on(self, emp, dept):
        renamed = Q.rename(dept, {"dept": "department"})
        out = Q.join(emp, renamed, on=[("dept", "department")])
        assert ("carol", "sales", 80, 1) in out

    def test_join_multiplicities_multiply(self, emp, dept):
        dept.insert(("eng", 3))  # count 2 now
        out = Q.join(emp, dept)
        assert out.count(("alice", "eng", 100, 3)) == 2

    def test_join_empty_result(self, emp):
        other = Relation("other", Schema.of(dept="text", x="int"))
        out = Q.join(emp, other)
        assert len(out) == 0

    def test_join_missing_column_raises(self, emp, dept):
        with pytest.raises(SchemaError):
            Q.join(emp, dept, on=[("nope", "dept")])

    def test_self_join_conflict_prefix(self, emp):
        out = Q.join(emp, emp, on=[("dept", "dept")])
        assert "r_name" in out.schema
        # eng has 2 employees -> 4 pairs; sales likewise.
        assert len(out) == 8


class TestSetOps:
    def test_union_adds_counts(self, emp):
        out = Q.union(emp, emp)
        assert out.count(("bob", "eng", 90)) == 2

    def test_union_schema_mismatch(self, emp, dept):
        with pytest.raises(SchemaError):
            Q.union(emp, dept)

    def test_difference(self, emp):
        minus = Relation("minus", emp.schema)
        minus.insert(("bob", "eng", 90))
        out = Q.difference(emp, minus)
        assert ("bob", "eng", 90) not in out
        assert len(out) == 3

    def test_difference_floors_at_zero(self, emp):
        minus = Relation("minus", emp.schema)
        minus.insert(("bob", "eng", 90), count=5)
        out = Q.difference(emp, minus)
        assert out.count(("bob", "eng", 90)) == 0

    def test_distinct(self, emp):
        emp.insert(("alice", "eng", 100))
        out = Q.distinct(emp)
        assert out.count(("alice", "eng", 100)) == 1


class TestAggregate:
    def test_count(self, emp):
        out = Q.aggregate(emp, ["dept"], {"n": ("count", "*")})
        assert ("eng", 2) in out
        assert ("sales", 2) in out

    def test_sum_avg_min_max(self, emp):
        out = Q.aggregate(emp, ["dept"], {
            "total": ("sum", "salary"),
            "mean": ("avg", "salary"),
            "lo": ("min", "salary"),
            "hi": ("max", "salary"),
        })
        assert ("eng", 190, 95.0, 90, 100) in out

    def test_global_aggregate(self, emp):
        out = Q.aggregate(emp, [], {"n": ("count", "*")})
        assert list(out) == [(4,)]

    def test_unknown_function_raises(self, emp):
        with pytest.raises(SchemaError):
            Q.aggregate(emp, ["dept"], {"x": ("median", "salary")})

    def test_aggregate_skips_nulls(self):
        relation = Relation("r", Schema.of(k="text", v="int"))
        relation.insert(("a", 1))
        relation.insert(("a", None))
        out = Q.aggregate(relation, ["k"], {"total": ("sum", "v")})
        assert ("a", 1) in out
