"""Columnar execution backend: vectorized kernels over dictionary-encoded columns.

The row engine in :mod:`repro.datastore.query` evaluates operators one tuple
at a time over dict-keyed ``Counter``s -- fine for tiny deltas, but after PR 1
made inference fast, E1 shows candidate generation + grounding dominating the
end-to-end runtime.  The same column-not-row layout insight that powered the
chromatic Gibbs engine applies to the datastore (DeepDive's and DimmWitted's
access-method lesson): this module stores a relation as per-column ``numpy``
code arrays plus a parallel multiplicity vector, and implements the full
operator set as vectorized kernels.

Layout
------
* :class:`InternPool` dictionary-encodes every cell value into a dense
  ``int64`` code.  Codes are *type-exact*: ``1``, ``1.0`` and ``True`` get
  distinct codes so decoding is lossless, which is why joins and set
  operations only take the code path when both sides' column types match
  (the planner guard in :func:`columnar_supported`).
* :class:`ColumnStore` holds one ``int64`` code array per column plus a
  ``counts`` vector -- bag semantics without ``range(count)`` expansion.

Kernels
-------
Selection is a boolean mask (vectorized when the plan carries a structured
condition, per-distinct-row otherwise); projection is a column slice plus a
group-compact; equi-join matches interned key codes with a sort +
``searchsorted`` pass; union/difference/distinct group rows by lexicographic
sort of their code matrix; aggregation uses segmented reductions
(``np.bincount`` / ``np.minimum.reduceat``) with count-weighted sums.

NULL semantics match the row engine: ``None`` equals ``None`` (so joins and
equality selections match NULL keys, as ``Counter`` hashing does), while
*ordered* comparisons involving NULL are false (SQL-style; the row-engine
comparison closures implement the same rule).
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.datastore.relation import Relation, Row
from repro.datastore.schema import Schema, SchemaError
from repro.datastore.types import ColumnType

Predicate = Callable[[dict[str, Any]], bool]

_NUMERIC_TYPES = (ColumnType.INT, ColumnType.FLOAT, ColumnType.BOOL)


class InternPool:
    """Bidirectional value <-> dense ``int64`` code mapping.

    Keys are type-exact (``(type, value)`` tuples, with a bare fast path for
    strings) so that decoding returns the object that was encoded; plain
    value keys would collapse ``1``/``1.0``/``True`` the way ``dict`` hashing
    does and corrupt typed columns on the way back out.
    """

    def __init__(self) -> None:
        self._codes: dict[Any, int] = {}
        self.values: list[Any] = []
        self._object_cache: np.ndarray | None = None
        self._numeric_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def _key(value: Any) -> Any:
        return value if value.__class__ is str else (value.__class__, value)

    def code(self, value: Any) -> int:
        """Intern ``value`` and return its code."""
        key = self._key(value)
        found = self._codes.get(key)
        if found is not None:
            return found
        found = len(self.values)
        self._codes[key] = found
        self.values.append(value)
        return found

    def lookup(self, value: Any) -> int:
        """Code of ``value`` or -1 if it was never interned."""
        return self._codes.get(self._key(value), -1)

    def encode_column(self, values: Iterable[Any]) -> np.ndarray:
        """Codes of ``values``, interning new ones in order of appearance.

        Whole-column dictionary passes: no per-cell Python call.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        known = self._codes
        if set(map(type, values)) <= {str}:
            keys = values
        else:
            keys = [self._key(value) for value in values]
        fresh = list(filterfalse(known.__contains__, dict.fromkeys(keys)))
        if fresh:
            start = len(self.values)
            known.update(zip(fresh, range(start, start + len(fresh))))
            self.values.extend(key if key.__class__ is str else key[1]
                               for key in fresh)
        return np.fromiter(map(known.__getitem__, keys), dtype=np.int64,
                           count=len(keys))

    # ----------------------------------------------------------- decode views
    def object_array(self) -> np.ndarray:
        """``code -> value`` as an object ndarray (cached until the pool grows)."""
        cached = self._object_cache
        if cached is None or len(cached) != len(self.values):
            cached = np.empty(len(self.values), dtype=object)
            cached[:] = self.values
            self._object_cache = cached
        return cached

    def numeric_array(self) -> np.ndarray:
        """``code -> float64`` view (NaN for None and non-numeric values)."""
        cached = self._numeric_cache
        if cached is None or len(cached) != len(self.values):
            cached = np.fromiter(
                (float(v) if isinstance(v, (int, float, bool)) else np.nan
                 for v in self.values),
                dtype=np.float64, count=len(self.values))
            self._numeric_cache = cached
        return cached


#: Process-wide default pool.  Relations cache their encoding against it, so
#: repeated plan evaluations over the same base data encode once.
DEFAULT_POOL = InternPool()


class ColumnStore:
    """A relation snapshot in columnar form.

    ``codes`` is an ``(arity, n)`` ``int64`` matrix of interned cell codes and
    ``counts`` an ``(n,)`` multiplicity vector.  Rows need not be distinct;
    :meth:`compact` groups duplicates (kernels that can introduce duplicates
    call it before handing results on).
    """

    __slots__ = ("schema", "codes", "counts", "pool")

    def __init__(self, schema: Schema, codes: np.ndarray, counts: np.ndarray,
                 pool: InternPool) -> None:
        self.schema = schema
        self.codes = codes
        self.counts = counts
        self.pool = pool

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_relation(cls, relation: Relation,
                      pool: InternPool | None = None) -> "ColumnStore":
        pool = DEFAULT_POOL if pool is None else pool
        rows = list(relation.distinct_rows())
        counts = np.fromiter((c for _, c in relation.counted_rows()),
                             dtype=np.int64, count=len(rows))
        return cls._from_rows(relation.schema, rows, counts, pool)

    @classmethod
    def from_counted_rows(cls, schema: Schema,
                          counted: Iterable[tuple[Row, int]],
                          pool: InternPool | None = None) -> "ColumnStore":
        pool = DEFAULT_POOL if pool is None else pool
        pairs = list(counted)
        rows, counts = zip(*pairs) if pairs else ((), ())
        return cls._from_rows(schema, rows,
                              np.array(counts, dtype=np.int64), pool)

    @classmethod
    def _from_rows(cls, schema: Schema, rows: Sequence[Row],
                   counts: np.ndarray, pool: InternPool) -> "ColumnStore":
        arity = schema.arity
        n = len(rows)
        codes = np.empty((arity, n), dtype=np.int64)
        for j, column in enumerate(zip(*rows)):
            codes[j] = pool.encode_column(column)
        return cls(schema, codes, counts, pool)

    # ----------------------------------------------------------------- basics
    @property
    def num_rows(self) -> int:
        return self.codes.shape[1]

    def column_values(self, position: int) -> np.ndarray:
        """Decoded object array for one column."""
        return self.pool.object_array()[self.codes[position]]

    def column_numeric(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """``(float64 values, null mask)`` for a numeric column."""
        values = self.pool.numeric_array()[self.codes[position]]
        # lookup returns -1 when None was never interned: matches no code
        nulls = self.codes[position] == self.pool.lookup(None)
        return values, nulls

    def rows(self) -> list[Row]:
        """All distinct physical rows as Python tuples (one bulk decode pass)."""
        if self.num_rows == 0:
            return []
        objects = self.pool.object_array()
        return list(zip(*(objects[self.codes[j]]
                          for j in range(self.codes.shape[0])))) \
            if self.codes.shape[0] else [()] * self.num_rows

    def to_counts(self) -> dict[Row, int]:
        """Materialize as a ``row -> count`` dict (duplicates summed)."""
        rows, counts = self.rows(), self.counts.tolist()
        out = dict(zip(rows, counts))
        if len(out) == len(rows) and self.counts.all():
            return out              # compact, the usual case: one pass
        out = {}
        for row, count in zip(rows, counts):
            out[row] = out.get(row, 0) + count
        return {row: count for row, count in out.items() if count != 0}

    def to_relation(self, name: str) -> Relation:
        return Relation.from_counts(name, self.schema, self.to_counts(),
                                    validate=False)

    # ------------------------------------------------------------- compaction
    def compact(self) -> "ColumnStore":
        """Group duplicate rows, summing counts (drops zero-count rows)."""
        if self.num_rows <= 1:
            if self.num_rows == 1 and self.counts[0] == 0:
                return ColumnStore(self.schema, self.codes[:, :0],
                                   self.counts[:0], self.pool)
            return self
        group_ids, n_groups, order = row_groups(self.codes)
        if n_groups == self.num_rows:
            keep = self.counts != 0
            if keep.all():
                return self
            return ColumnStore(self.schema, self.codes[:, keep],
                               self.counts[keep], self.pool)
        counts = np.bincount(group_ids, weights=self.counts,
                             minlength=n_groups).astype(np.int64)
        # representative row per group: first occurrence in sort order
        sorted_gids = group_ids[order]
        starts = np.searchsorted(sorted_gids, np.arange(n_groups), side="left")
        first = order[starts]
        keep = counts != 0
        return ColumnStore(self.schema, self.codes[:, first][:, keep],
                           counts[keep], self.pool)


# ------------------------------------------------------------------ grouping
def row_groups(codes: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Group identical columns of an ``(arity, n)`` code matrix.

    Returns ``(group_ids, n_groups, sort_order)`` where rows with equal codes
    across every column share a group id.  Uses a lexicographic sort of the
    code matrix -- the row-ID sort that powers distinct/union/difference.
    """
    n = codes.shape[1]
    if n == 0:
        return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    if codes.shape[0] == 0:
        return np.zeros(n, dtype=np.int64), 1, np.arange(n, dtype=np.int64)
    order = np.lexsort(codes[::-1])
    sorted_codes = codes[:, order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    if n > 1:
        np.any(sorted_codes[:, 1:] != sorted_codes[:, :-1], axis=0,
               out=boundary[1:])
    gid_sorted = np.cumsum(boundary) - 1
    group_ids = np.empty(n, dtype=np.int64)
    group_ids[order] = gid_sorted
    return group_ids, int(gid_sorted[-1]) + 1, order


def _concat(left: ColumnStore, right: ColumnStore) -> tuple[np.ndarray, np.ndarray]:
    codes = np.concatenate([left.codes, right.codes], axis=1)
    counts = np.concatenate([left.counts, right.counts])
    return codes, counts


# -------------------------------------------------------------------- kernels
def select_mask(store: ColumnStore, mask: np.ndarray) -> ColumnStore:
    return ColumnStore(store.schema, store.codes[:, mask], store.counts[mask],
                       store.pool)


def condition_mask(store: ColumnStore, condition: tuple) -> np.ndarray:
    """Vectorized boolean mask for a structured ``(op, left, right)`` condition.

    Operand specs are ``("col", name)`` or ``("const", value)``.  Equality on
    non-numeric columns compares interned codes; numeric columns compare by
    value (so INT/FLOAT cross-type equality behaves like Python ``==``).
    Ordered comparisons with NULL are false.
    """
    op, left, right = condition
    left_numeric = _operand_numericness(store, left)
    right_numeric = _operand_numericness(store, right)
    if op in ("==", "!=") and not (left_numeric and right_numeric):
        left_codes = _operand_codes(store, left)
        right_codes = _operand_codes(store, right)
        equal = left_codes == right_codes
        return equal if op == "==" else ~equal
    left_values, left_null = _operand_values(store, left, left_numeric)
    right_values, right_null = _operand_values(store, right, right_numeric)
    either_null = left_null | right_null
    if op == "==":
        return (~either_null & (left_values == right_values)) \
            | (left_null & right_null)
    if op == "!=":
        return ~((~either_null & (left_values == right_values))
                 | (left_null & right_null))
    comparator = {"<": np.less, "<=": np.less_equal,
                  ">": np.greater, ">=": np.greater_equal}[op]
    mask = np.zeros(store.num_rows, dtype=bool)
    valid = ~either_null
    if valid.any():
        if left_numeric and right_numeric:
            with np.errstate(invalid="ignore"):
                mask[valid] = comparator(left_values[valid], right_values[valid])
        else:
            mask[valid] = comparator(left_values[valid], right_values[valid])
    return mask


def _operand_numericness(store: ColumnStore, spec: tuple) -> bool:
    kind, payload = spec
    if kind == "col":
        return store.schema.columns[store.schema.position(payload)].type \
            in _NUMERIC_TYPES
    return isinstance(payload, (int, float, bool))


def _operand_codes(store: ColumnStore, spec: tuple) -> np.ndarray:
    kind, payload = spec
    if kind == "col":
        return store.codes[store.schema.position(payload)]
    return np.full(store.num_rows, store.pool.lookup(payload), dtype=np.int64)


def _operand_values(store: ColumnStore, spec: tuple,
                    numeric: bool) -> tuple[np.ndarray, np.ndarray]:
    kind, payload = spec
    if kind == "col":
        position = store.schema.position(payload)
        if numeric:
            return store.column_numeric(position)
        values = store.column_values(position)
        nulls = store.codes[position] == store.pool.lookup(None)
        return values, nulls
    if payload is None:
        return (np.full(store.num_rows, np.nan),
                np.ones(store.num_rows, dtype=bool))
    if numeric:
        return (np.full(store.num_rows, float(payload)),
                np.zeros(store.num_rows, dtype=bool))
    values = np.empty(store.num_rows, dtype=object)
    values[:] = payload
    return values, np.zeros(store.num_rows, dtype=bool)


def select(store: ColumnStore, predicate: Predicate,
           condition: tuple | None = None) -> ColumnStore:
    if store.num_rows == 0:
        return store
    if condition is not None:
        return select_mask(store, condition_mask(store, condition))
    names = store.schema.names
    mask = np.fromiter(
        (bool(predicate(dict(zip(names, row)))) for row in store.rows()),
        dtype=bool, count=store.num_rows)
    return select_mask(store, mask)


def project(store: ColumnStore, columns: Sequence[str],
            distinct: bool = False) -> ColumnStore:
    positions = [store.schema.position(c) for c in columns]
    out = ColumnStore(store.schema.project(columns), store.codes[positions],
                      store.counts, store.pool).compact()
    if distinct:
        return ColumnStore(out.schema, out.codes,
                           np.ones(out.num_rows, dtype=np.int64), out.pool)
    return out


def rename(store: ColumnStore, mapping: dict[str, str]) -> ColumnStore:
    return ColumnStore(store.schema.rename(mapping), store.codes, store.counts,
                       store.pool)


def extend(store: ColumnStore, schema: Schema,
           fn: Callable[[dict[str, Any]], Any]) -> ColumnStore:
    """Append a computed column (necessarily per-row: the UDF is opaque)."""
    names = store.schema.names
    column_type = schema.columns[-1].type
    from repro.datastore.types import coerce
    code = store.pool.code
    new_codes = np.fromiter(
        (code(coerce(fn(dict(zip(names, row))), column_type))
         for row in store.rows()),
        dtype=np.int64, count=store.num_rows)
    codes = np.concatenate([store.codes, new_codes[None, :]], axis=0)
    return ColumnStore(schema, codes, store.counts, store.pool)


def join(left: ColumnStore, right: ColumnStore,
         on: Sequence[tuple[str, str]], schema: Schema | None = None,
         ) -> ColumnStore:
    """Equi-join via int-coded key matching (sort + ``searchsorted``).

    Output schema follows the row engine: all left columns, then right
    columns minus the join keys.  Key codes are matched exactly, which equals
    value equality because the planner only routes joins with matching column
    types here (see :func:`columnar_supported`).
    """
    if left.pool is not right.pool:
        raise ValueError("columnar join requires both sides share one pool")
    left_positions = [left.schema.position(a) for a, _ in on]
    right_positions = [right.schema.position(b) for _, b in on]
    right_keys = {b for _, b in on}
    keep = [c for c in right.schema.names if c not in right_keys]
    keep_positions = [right.schema.position(c) for c in keep]
    if schema is None:
        schema = left.schema.concat(right.schema.project(keep))

    nl, nr = left.num_rows, right.num_rows
    if nl == 0 or nr == 0:
        return ColumnStore(schema, np.empty((schema.arity, 0), dtype=np.int64),
                           np.empty(0, dtype=np.int64), left.pool)
    if on:
        stacked = np.concatenate(
            [left.codes[left_positions], right.codes[right_positions]], axis=1)
        group_ids, _, _ = row_groups(stacked)
        left_groups, right_groups = group_ids[:nl], group_ids[nl:]
    else:  # cross product
        left_groups = np.zeros(nl, dtype=np.int64)
        right_groups = np.zeros(nr, dtype=np.int64)
    order = np.argsort(right_groups, kind="stable")
    sorted_right = right_groups[order]
    starts = np.searchsorted(sorted_right, left_groups, side="left")
    ends = np.searchsorted(sorted_right, left_groups, side="right")
    fanout = ends - starts
    total = int(fanout.sum())
    if total == 0:
        return ColumnStore(schema, np.empty((schema.arity, 0), dtype=np.int64),
                           np.empty(0, dtype=np.int64), left.pool)
    left_index = np.repeat(np.arange(nl), fanout)
    # per-pair offset into each left row's [start, end) match range
    offsets = np.arange(total) - np.repeat(np.cumsum(fanout) - fanout, fanout)
    right_index = order[np.repeat(starts, fanout) + offsets]

    codes = np.empty((schema.arity, total), dtype=np.int64)
    codes[:left.schema.arity] = left.codes[:, left_index]
    for out_pos, src in enumerate(keep_positions):
        codes[left.schema.arity + out_pos] = right.codes[src, right_index]
    counts = left.counts[left_index] * right.counts[right_index]
    return ColumnStore(schema, codes, counts, left.pool)


def union(left: ColumnStore, right: ColumnStore) -> ColumnStore:
    codes, counts = _concat(left, right)
    return ColumnStore(left.schema, codes, counts, left.pool).compact()


def difference(left: ColumnStore, right: ColumnStore) -> ColumnStore:
    """Bag difference: left counts minus right counts, floored at zero."""
    left = left.compact()
    if right.num_rows == 0:
        return left
    codes = np.concatenate([left.codes, right.codes], axis=1)
    group_ids, n_groups, _ = row_groups(codes)
    left_groups = group_ids[:left.num_rows]
    right_totals = np.bincount(group_ids[left.num_rows:],
                               weights=right.counts,
                               minlength=n_groups).astype(np.int64)
    remaining = left.counts - right_totals[left_groups]
    keep = remaining > 0
    return ColumnStore(left.schema, left.codes[:, keep], remaining[keep],
                       left.pool)


def distinct(store: ColumnStore) -> ColumnStore:
    out = store.compact()
    return ColumnStore(out.schema, out.codes,
                       np.ones(out.num_rows, dtype=np.int64), out.pool)


def aggregate(store: ColumnStore, group_by: Sequence[str],
              aggregates: dict[str, tuple[str, str]],
              schema: Schema) -> ColumnStore:
    """Group-by aggregation via segmented reduction, count-weighted.

    ``schema`` is the output schema (group columns then aggregate columns),
    computed by the dispatcher so row and columnar backends agree exactly.
    """
    group_positions = [store.schema.position(c) for c in group_by]
    group_ids, n_groups, order = row_groups(store.codes[group_positions])
    if store.num_rows == 0:
        return ColumnStore(schema, np.empty((schema.arity, 0), dtype=np.int64),
                           np.empty(0, dtype=np.int64), store.pool)
    sorted_gids = group_ids[order]
    group_starts = np.searchsorted(sorted_gids, np.arange(n_groups), "left")
    representative = order[group_starts]

    out_columns: list[np.ndarray] = [store.codes[p, representative]
                                     for p in group_positions]
    counts = store.counts.astype(np.float64)
    pool = store.pool
    for out_name, (fn, input_column) in aggregates.items():
        if fn == "count":
            totals = np.bincount(group_ids, weights=counts, minlength=n_groups)
            out_columns.append(pool.encode_column(
                int(v) for v in totals.tolist()))
            continue
        position = store.schema.position(input_column)
        column_type = store.schema.columns[position].type
        if column_type in _NUMERIC_TYPES:
            values, nulls = store.column_numeric(position)
            valid = ~nulls
            weights = np.where(valid, counts, 0.0)
            nonnull = np.bincount(group_ids, weights=weights,
                                  minlength=n_groups)
            if fn in ("sum", "avg"):
                sums = np.bincount(group_ids,
                                   weights=np.where(valid, values, 0.0) * weights,
                                   minlength=n_groups)
                if fn == "avg":
                    with np.errstate(invalid="ignore", divide="ignore"):
                        result = np.where(nonnull > 0, sums / nonnull, np.nan)
                    decoded = [float(v) if n > 0 else None
                               for v, n in zip(result, nonnull)]
                else:
                    decoded = [_narrow(s, column_type, "sum") if n > 0 else None
                               for s, n in zip(sums, nonnull)]
            else:  # min / max
                fill = np.inf if fn == "min" else -np.inf
                padded = np.where(valid, values, fill)[order]
                reducer = np.minimum if fn == "min" else np.maximum
                extrema = reducer.reduceat(padded, group_starts)
                decoded = [_narrow(v, column_type, fn) if n > 0 else None
                           for v, n in zip(extrema, nonnull)]
        else:
            # TEXT/ARRAY columns: per-group Python reduction (counts do not
            # change min/max; sum/avg are invalid for these types anyway)
            if fn in ("sum", "avg"):
                raise SchemaError(
                    f"aggregate {fn!r} is not defined for {column_type} column "
                    f"{input_column!r}")
            values = store.column_values(position)[order]
            reducer = min if fn == "min" else max
            decoded = []
            boundaries = list(group_starts) + [store.num_rows]
            for g in range(n_groups):
                observed = [v for v in values[boundaries[g]:boundaries[g + 1]]
                            if v is not None]
                decoded.append(reducer(observed) if observed else None)
        out_columns.append(pool.encode_column(decoded))

    codes = np.vstack(out_columns) if out_columns else \
        np.empty((0, n_groups), dtype=np.int64)
    return ColumnStore(schema, codes.astype(np.int64),
                       np.ones(n_groups, dtype=np.int64), pool)


def _narrow(value: float, column_type: ColumnType, fn: str) -> Any:
    """Bring a float64 accumulator back to the column's Python type.

    Sums stay integral for INT/BOOL columns (Python's ``sum`` of ints/bools
    is an int); min/max of a BOOL column is a bool.
    """
    if column_type is ColumnType.FLOAT:
        return float(value)
    if column_type is ColumnType.BOOL and fn in ("min", "max"):
        return bool(value)
    return int(value)


# ------------------------------------------------------------ planner guards
def columnar_supported(left_schema: Schema, right_schema: Schema,
                       on: Sequence[tuple[str, str]]) -> bool:
    """Joins take the code path only when every key pair's types match.

    Type-exact interning means ``1`` (INT) and ``1.0`` (FLOAT) carry different
    codes; comparing such columns by code would miss Python-equal pairs, so
    mixed-type joins stay on the row engine.
    """
    for left_name, right_name in on:
        left_type = left_schema.columns[left_schema.position(left_name)].type
        right_type = right_schema.columns[right_schema.position(right_name)].type
        if left_type is not right_type:
            return False
    return True
