"""Unit tests for schemas and column typing."""

import pytest

from repro.datastore import Column, ColumnType, Schema, SchemaError
from repro.datastore.types import TypeError_, coerce


class TestColumnType:
    def test_coerce_text(self):
        assert coerce("abc", ColumnType.TEXT) == "abc"

    def test_coerce_int(self):
        assert coerce(5, ColumnType.INT) == 5

    def test_coerce_int_rejects_bool(self):
        with pytest.raises(TypeError_):
            coerce(True, ColumnType.INT)

    def test_coerce_float_widens_int(self):
        value = coerce(3, ColumnType.FLOAT)
        assert value == 3.0
        assert isinstance(value, float)

    def test_coerce_bool(self):
        assert coerce(True, ColumnType.BOOL) is True

    def test_coerce_bool_rejects_int(self):
        with pytest.raises(TypeError_):
            coerce(1, ColumnType.BOOL)

    def test_coerce_array_from_list(self):
        assert coerce([1, 2], ColumnType.ARRAY) == (1, 2)

    def test_coerce_array_rejects_scalar(self):
        with pytest.raises(TypeError_):
            coerce("abc", ColumnType.ARRAY)

    def test_none_is_allowed_everywhere(self):
        for ctype in ColumnType:
            assert coerce(None, ctype) is None

    def test_wrong_type_raises(self):
        with pytest.raises(TypeError_):
            coerce("abc", ColumnType.INT)


class TestSchema:
    def test_of_builds_columns(self):
        schema = Schema.of(doc_id="text", position="int")
        assert schema.names == ("doc_id", "position")
        assert schema.arity == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Column("a", ColumnType.INT), Column("a", ColumnType.TEXT)))

    def test_invalid_column_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name", ColumnType.INT)

    def test_position_and_contains(self):
        schema = Schema.of(a="int", b="text")
        assert schema.position("b") == 1
        assert "a" in schema
        assert "z" not in schema

    def test_position_missing_raises(self):
        with pytest.raises(SchemaError):
            Schema.of(a="int").position("b")

    def test_validate_row_coerces(self):
        schema = Schema.of(a="int", b="array")
        assert schema.validate_row([1, [2, 3]]) == (1, (2, 3))

    def test_validate_row_arity_mismatch(self):
        with pytest.raises(SchemaError):
            Schema.of(a="int").validate_row([1, 2])

    def test_row_dict(self):
        schema = Schema.of(a="int", b="text")
        assert schema.row_dict((1, "x")) == {"a": 1, "b": "x"}

    def test_project_reorders(self):
        schema = Schema.of(a="int", b="text", c="float")
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_rename(self):
        schema = Schema.of(a="int", b="text").rename({"a": "x"})
        assert schema.names == ("x", "b")

    def test_concat_prefixes_conflicts(self):
        left = Schema.of(a="int", b="text")
        right = Schema.of(b="text", c="int")
        assert left.concat(right).names == ("a", "b", "r_b", "c")

    def test_equality_is_structural(self):
        assert Schema.of(a="int") == Schema.of(a="int")
        assert Schema.of(a="int") != Schema.of(a="text")


def per_cell(schema, row):
    """The validator's contract: arity check, then ``coerce`` cell by cell."""
    if len(row) != schema.arity:
        raise SchemaError(f"row arity {len(row)} != schema arity "
                          f"{schema.arity} ({schema.names})")
    return tuple(coerce(value, column.type)
                 for value, column in zip(row, schema.columns))


def outcome(validate, row):
    try:
        return validate(row)
    except (SchemaError, TypeError_) as error:
        return type(error), str(error)


class TestCompiledValidator:
    SCHEMA = Schema.of(t="text", i="int", f="float", b="bool", a="array")
    CLEAN = ("x", 1, 1.5, True, ("p", "q"))
    ROWS = [
        CLEAN,
        list(CLEAN),
        (None, None, None, None, None),
        ("x", 1, 2, False, ["p", "q"]),        # int -> float, list -> tuple
        ("x", True, 1.5, True, ()),            # bool in INT
        ("x", 1, True, True, ()),              # bool in FLOAT
        ("x", 1, 1.5, 1, ()),                  # non-bool in BOOL
        ("x", 1, 1.5, None, "pq"),             # str in ARRAY
        (1, 1, 1.5, True, ()),                 # int in TEXT
        ("x", 1.0, 1.5, True, ()),             # float in INT
        ("x", 1, "1.5", True, ()),             # str in FLOAT
        ("x", 1, 1.5, True),                   # short
        CLEAN + (0,),                          # long
        (),
    ]

    def test_equals_per_cell_coerce(self):
        for row in self.ROWS:
            expected = outcome(lambda r: per_cell(self.SCHEMA, r), row)
            got = outcome(self.SCHEMA.validate_row, row)
            assert got == expected
            # 2 == 2.0: the cell types must agree too
            assert list(map(type, got)) == list(map(type, expected))

    def test_clean_tuple_is_returned_untouched(self):
        assert self.SCHEMA.validate_row(self.CLEAN) is self.CLEAN

    def test_subclass_values_are_kept_like_coerce_keeps_them(self):
        class Name(str):
            pass
        row = (Name("x"), 1, 1.5, True, ())
        stored = self.SCHEMA.validate_row(row)
        assert stored == row and type(stored[0]) is Name

    def test_insert_paths_store_the_callers_tuple(self):
        from repro.datastore import Relation
        relation = Relation("r", self.SCHEMA)
        relation.insert_many([self.CLEAN])
        relation.insert_counted([(self.CLEAN, 2)])
        (stored,) = relation.distinct_rows()
        assert stored is self.CLEAN
        assert relation.count(self.CLEAN) == 3
        with pytest.raises(TypeError_, match="bool is not a valid INT"):
            relation.insert_many([("x", True, 1.5, True, ())])
        with pytest.raises(SchemaError, match="arity"):
            relation.insert_counted([(("x",), 1)])
