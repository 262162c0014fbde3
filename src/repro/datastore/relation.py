"""Relations: bag-semantics tuple stores with hash indexes.

DeepDive's datastore holds every intermediate product of the pipeline in
relations.  A :class:`Relation` stores rows with *bag semantics* (each row has
a multiplicity count), which is exactly what the DRed incremental view
maintenance algorithm of Gupta, Mumick & Subrahmanian needs: a delta relation
is "the same schema plus a count", and here every relation carries counts.

Hash indexes are created lazily per column set and kept consistent by the
insert/delete paths.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.datastore.schema import Schema, SchemaError

Row = tuple[Any, ...]


class Relation:
    """A named, schema'd multiset of rows with lazy hash indexes."""

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[Any]] = ()) -> None:
        self.name = name
        self.schema = schema
        self._counts: Counter[Row] = Counter()
        self._indexes: dict[tuple[int, ...], dict[tuple[Any, ...], Counter[Row]]] = {}
        self._total = 0            # cached sum of multiplicities
        self._version = 0          # bumped on every mutation (cache keys)
        self._columnar: tuple[int, Any] | None = None   # (version, ColumnStore)
        for row in rows:
            self.insert(row)

    @classmethod
    def from_counts(cls, name: str, schema: Schema,
                    counts: Mapping[Row, int] | Iterable[tuple[Row, int]],
                    validate: bool = True) -> "Relation":
        """Bulk-construct a relation from ``row -> count`` data.

        The public constructor path for query backends: results computed as
        count bags (row or columnar) become relations without per-row insert
        and index bookkeeping.  ``validate=False`` skips schema coercion for
        rows that already passed through it (e.g. decoded columnar output).
        """
        items = counts.items() if isinstance(counts, Mapping) else counts
        relation = cls(name, schema)
        bag = relation._counts
        if validate:
            validate_row = schema.validate_row
            for row, count in items:
                if count <= 0:
                    raise ValueError(
                        f"from_counts needs positive counts, got {count} for {row!r}")
                bag[validate_row(row)] += count
        else:
            for row, count in items:
                bag[row] += count
        relation._total = sum(bag.values())
        return relation

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        """Number of rows, counting multiplicity (cached, O(1))."""
        return self._total

    def __iter__(self) -> Iterator[Row]:
        """Iterate rows with multiplicity (a row with count 3 appears 3 times)."""
        for row, count in self._counts.items():
            for _ in range(count):
                yield row

    def __contains__(self, row: Sequence[Any]) -> bool:
        return self.schema.validate_row(row) in self._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, arity={self.schema.arity}, rows={len(self)})"

    @property
    def distinct_count(self) -> int:
        return len(self._counts)

    @property
    def mutation_version(self) -> int:
        """Monotonic counter bumped on every mutation.

        Caches across the engine (columnar encodings, DRed view inputs) key
        on it, so a database restored from a dump must resume from the
        persisted counter — restarting at zero could alias a stale cache
        entry for an object at the same address.  Persistence round-trips it
        via :meth:`restore_mutation_version`.
        """
        return self._version

    def restore_mutation_version(self, version: int) -> None:
        """Fast-forward the mutation counter (dump/load restore path only)."""
        if version < self._version:
            raise ValueError(
                f"cannot rewind mutation version of {self.name!r} from "
                f"{self._version} to {version}")
        self._version = version

    def count(self, row: Sequence[Any]) -> int:
        """Multiplicity of ``row`` (0 if absent)."""
        return self._counts.get(self.schema.validate_row(row), 0)

    def distinct_rows(self) -> Iterator[Row]:
        """Iterate each distinct row once, ignoring multiplicity."""
        return iter(self._counts)

    def counted_rows(self) -> Iterator[tuple[Row, int]]:
        """Iterate ``(row, count)`` pairs."""
        return iter(self._counts.items())

    def iter_rows(self) -> Iterator[Row]:
        """Stream rows with multiplicity — the row-iterator protocol.

        Equivalent to ``iter(self)``, but spelled as a method so bulk
        consumers can accept "anything with ``iter_rows``": a
        :class:`~repro.datastore.ivm.MaterializedView` answers it with its
        visible rows, and a ``SegmentedRelation`` streams segment by
        segment, so piping ``iter_rows()`` into ``insert_many`` never
        materializes the source relation as a list.
        """
        return iter(self)

    def counts_copy(self) -> Counter[Row]:
        """An independent ``row -> count`` Counter snapshot (one C-level copy)."""
        return Counter(self._counts)

    # ---------------------------------------------------------------- updates
    def insert(self, row: Sequence[Any], count: int = 1) -> Row:
        """Insert ``row`` with multiplicity ``count``; return the stored tuple."""
        if count <= 0:
            raise ValueError(f"insert count must be positive, got {count}")
        stored = self.schema.validate_row(row)
        self._counts[stored] += count
        self._total += count
        self._version += 1
        for key_positions, index in self._indexes.items():
            key = tuple(stored[i] for i in key_positions)
            index.setdefault(key, Counter())[stored] += count
        return stored

    def insert_many(self, rows: Iterable[Sequence[Any]],
                    validate: bool = True) -> int:
        """Insert every row in ``rows`` (multiplicity 1 each); return the
        number inserted.

        ``validate=False`` skips schema coercion for rows that already passed
        through it (e.g. materialized-view output consumed by the grounder);
        counts, version and any live hash indexes are maintained in one pass.
        """
        if validate:
            rows = [self.schema.validate_row(row) for row in rows]
        elif not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            return 0
        self._counts.update(rows)
        self._total += len(rows)
        self._version += 1
        for key_positions, index in self._indexes.items():
            for stored in rows:
                key = tuple(stored[i] for i in key_positions)
                index.setdefault(key, Counter())[stored] += 1
        return len(rows)

    def insert_counted(self, counted: Iterable[tuple[Sequence[Any], int]],
                       validate: bool = True) -> int:
        """Insert ``(row, count)`` pairs in one pass (a single version bump).

        The bulk path for restoring persisted bags: multiplicities land
        directly in the Counter instead of being expanded row-by-row.
        Returns the total multiplicity inserted.
        """
        added = 0
        for row, count in counted:
            if count <= 0:
                raise ValueError(
                    f"insert count must be positive, got {count}")
            stored = self.schema.validate_row(row) if validate else row
            self._counts[stored] += count
            added += count
            for key_positions, index in self._indexes.items():
                key = tuple(stored[i] for i in key_positions)
                index.setdefault(key, Counter())[stored] += count
        if added:
            self._total += added
            self._version += 1
        return added

    def delete(self, row: Sequence[Any], count: int = 1) -> int:
        """Remove up to ``count`` copies of ``row``; return how many were removed."""
        if count <= 0:
            raise ValueError(f"delete count must be positive, got {count}")
        stored = self.schema.validate_row(row)
        present = self._counts.get(stored, 0)
        removed = min(count, present)
        if removed == 0:
            return 0
        if removed == present:
            del self._counts[stored]
        else:
            self._counts[stored] = present - removed
        self._total -= removed
        self._version += 1
        for key_positions, index in self._indexes.items():
            key = tuple(stored[i] for i in key_positions)
            bucket = index.get(key)
            if bucket is not None:
                if bucket[stored] <= removed:
                    del bucket[stored]
                else:
                    bucket[stored] -= removed
                if not bucket:
                    del index[key]
        return removed

    def clear(self) -> None:
        """Remove all rows (indexes are kept but emptied)."""
        self._counts.clear()
        self._total = 0
        self._version += 1
        for index in self._indexes.values():
            index.clear()

    # ---------------------------------------------------------------- lookups
    def _index_for(self, columns: Sequence[str]) -> dict[tuple[Any, ...], Counter[Row]]:
        positions = tuple(self.schema.position(c) for c in columns)
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row, count in self._counts.items():
                key = tuple(row[i] for i in positions)
                index.setdefault(key, Counter())[row] += count
            self._indexes[positions] = index
        return index

    def lookup(self, columns: Sequence[str], values: Sequence[Any]) -> Iterator[Row]:
        """Yield rows (with multiplicity) where ``columns`` equal ``values``.

        Builds (and caches) a hash index on ``columns`` the first time.
        """
        if len(columns) != len(values):
            raise SchemaError("lookup columns and values must have equal length")
        bucket = self._index_for(columns).get(tuple(values))
        if bucket is None:
            return
        for row, count in bucket.items():
            for _ in range(count):
                yield row

    def copy(self, name: str | None = None) -> "Relation":
        """Deep-enough copy: shares row tuples (immutable) but not counts/indexes."""
        clone = Relation(name or self.name, self.schema)
        clone._counts = Counter(self._counts)
        clone._total = self._total
        return clone

    # ---------------------------------------------------------- columnar view
    def columnar(self, pool=None):
        """This relation dictionary-encoded as a :class:`ColumnStore`.

        The encoding is cached against the relation's mutation version, so
        repeated plan evaluations over unchanged base data encode once.  Only
        encodings against the default pool are cached.
        """
        from repro.datastore import columnar as C

        if pool is None or pool is C.DEFAULT_POOL:
            cached = self._columnar
            if cached is not None and cached[0] == self._version:
                return cached[1]
            store = C.ColumnStore.from_relation(self, C.DEFAULT_POOL)
            self._columnar = (self._version, store)
            return store
        return C.ColumnStore.from_relation(self, pool)
