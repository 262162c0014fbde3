"""Column types for the relational datastore.

DeepDive stores everything -- documents, sentences, candidates, features,
evidence labels, and inferred marginals -- in relations.  The datastore is
deliberately small: typed columns, tuple rows, and enough relational algebra
to ground DDlog rules.  This module defines the column type vocabulary and
the validation helpers used by :mod:`repro.datastore.schema`.
"""

from __future__ import annotations

import enum
from typing import Any


class ColumnType(enum.Enum):
    """The value domain of a relation column."""

    TEXT = "text"
    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    # JSON-ish payloads (token lists, POS tag lists).  Stored as tuples so
    # rows remain hashable; see :func:`coerce`.
    ARRAY = "array"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: the Python class a non-null value of each column type is stored as
PYTHON_TYPES = {
    ColumnType.TEXT: str,
    ColumnType.INT: int,
    ColumnType.FLOAT: float,
    ColumnType.BOOL: bool,
    ColumnType.ARRAY: tuple,
}


class TypeError_(TypeError):
    """Raised when a value cannot be coerced to its declared column type."""


def coerce(value: Any, column_type: ColumnType) -> Any:
    """Coerce ``value`` to ``column_type``, raising :class:`TypeError_` on failure.

    ``None`` is allowed in every column (SQL-style NULL).  Lists are coerced
    to tuples for ``ARRAY`` columns so that whole rows stay hashable, which
    the join and distinct operators rely on.
    """
    if value is None:
        return None
    if column_type is ColumnType.ARRAY:
        if isinstance(value, tuple):
            return value
        if isinstance(value, list):
            return tuple(value)
        raise TypeError_(f"expected list/tuple for ARRAY column, got {type(value).__name__}")
    if column_type is ColumnType.FLOAT and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if column_type is ColumnType.BOOL and not isinstance(value, bool):
        raise TypeError_(f"expected bool, got {type(value).__name__}")
    expected = PYTHON_TYPES[column_type]
    if isinstance(value, bool) and column_type is ColumnType.INT:
        raise TypeError_("bool is not a valid INT value")
    if not isinstance(value, expected):
        raise TypeError_(f"expected {expected.__name__} for {column_type} column, got {type(value).__name__}")
    return value
