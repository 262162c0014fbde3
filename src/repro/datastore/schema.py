"""Relation schemas: named, typed column lists.

A :class:`Schema` describes one relation.  Schemas are immutable value
objects; equality is structural, which lets DRed delta relations assert that
they mirror their base relation's schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.datastore.types import PYTHON_TYPES, ColumnType, coerce


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that do not fit a schema."""


@dataclass(frozen=True)
class Column:
    """One named, typed column of a relation."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        # dots are allowed for alias-qualified names ("e.salary"), which the
        # SQL layer creates when it joins relations
        if not self.name or not self.name.replace("_", "").replace(".", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered list of :class:`Column` with unique names."""

    columns: tuple[Column, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    #: the compiled row validator: the exact cell types of a row that needs
    #: no coercion (``bool`` is not ``int`` here, ``None`` is not exact)
    _exact: tuple[type, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_exact",
                           tuple(PYTHON_TYPES[c.type] for c in self.columns))

    @classmethod
    def of(cls, **column_types: ColumnType | str) -> "Schema":
        """Build a schema from keyword arguments, e.g. ``Schema.of(doc_id='text')``."""
        columns = []
        for name, ctype in column_types.items():
            if isinstance(ctype, str):
                ctype = ColumnType(ctype)
            columns.append(Column(name, ctype))
        return cls(tuple(columns))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    def position(self, name: str) -> int:
        """Return the index of column ``name``; raise :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column {name!r} in schema {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def validate_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Coerce and validate one row against this schema; return the stored tuple.

        A tuple whose cells already have exactly the column types is returned
        as is (the same object); any other row goes cell by cell through
        :func:`~repro.datastore.types.coerce`.
        """
        if row.__class__ is tuple and tuple(map(type, row)) == self._exact:
            return row
        return self._coerce_row(row)

    def _coerce_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        if len(row) != self.arity:
            raise SchemaError(f"row arity {len(row)} != schema arity {self.arity} ({self.names})")
        return tuple(coerce(value, col.type) for value, col in zip(row, self.columns))

    def row_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Return ``row`` as a column-name -> value mapping."""
        return dict(zip(self.names, row))

    def project(self, names: Iterable[str]) -> "Schema":
        """Return a new schema containing only ``names``, in the given order."""
        return Schema(tuple(self.columns[self.position(n)] for n in names))

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with columns renamed per ``mapping`` (others kept)."""
        return Schema(tuple(Column(mapping.get(c.name, c.name), c.type) for c in self.columns))

    def concat(self, other: "Schema", prefix_conflicts: str = "r_") -> "Schema":
        """Concatenate two schemas, prefixing right-side name conflicts."""
        taken = set(self.names)
        right = []
        for column in other.columns:
            name = column.name
            while name in taken:
                name = prefix_conflicts + name
            taken.add(name)
            right.append(Column(name, column.type))
        return Schema(self.columns + tuple(right))
