"""Stateful incremental plan evaluation: true delta-time view maintenance.

The textbook delta rules in :mod:`repro.datastore.plan` are correct but
re-evaluate join siblings from scratch, making "incremental" maintenance as
expensive as full recomputation.  This module implements the production
version: every Join node materializes hash indexes of both children's
current outputs (keyed on the join columns), so absorbing a delta costs
O(|delta| x match fan-out) hash probes -- the actual DRed economics of paper
Section 4.1.

Initial load is the grounding hot path (the paper's "DeepDive always runs
DRed -- except on initial load"), so when the base relations are large enough
the node tree is built *columnar*: each node computes its initial output as a
:class:`~repro.datastore.columnar.ColumnStore` via the vectorized kernels,
and join indexes are bulk-built from lexsort-grouped key codes instead of
per-row ``Counter`` bumps.  Delta application stays row-at-a-time for small
deltas and switches to the join kernel when a delta is comparable in size to
the indexed side (bulk regrounds).

Space/time trade-off: join inputs are materialized once per join node.  For
DeepDive-style rule bodies (small dimension tables joined to large candidate
relations) this is the same trade PostgreSQL's matviews make.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.datastore import columnar as C
from repro.datastore import query as Q
from repro.datastore.ivm import SignedDelta
from repro.datastore.plan import (Extend, Join, Plan, Project, Rename, Scan,
                                  Select, Union)
from repro.datastore.relation import Row
from repro.datastore.schema import Schema
from repro.obs.config import EngineConfig


class IncrementalEvaluator:
    """Maintains one plan's output incrementally from base-relation deltas.

    Construction evaluates the plan once (initial load) and builds join
    indexes bottom-up -- on the columnar path when the backend picks it.
    :meth:`apply` consumes a dict of base-relation signed deltas and returns
    the signed delta of the plan output, updating all internal state.

    ``store_cache`` (optional, ``id(plan node) -> ColumnStore``) shares
    initial-load kernel results between evaluators built over the same
    unchanged database: DDlog expansion inlines each derived relation's plan
    *by object* into every consumer view, so the candidate-generation
    subtree (UDF extends included) is computed once, not once per view.
    Callers must not mutate base relations while a cache is live.
    """

    def __init__(self, plan: Plan, db,
                 store_cache: dict[int, C.ColumnStore] | None = None) -> None:
        self.plan = plan
        schemas: dict[int, Schema] = {}
        self.schema = _derive_schemas(plan, db, schemas)
        config = getattr(db, "config", None)
        columnar = _columnar_build(plan, db, schemas, config)
        with obs.span("dred.build",
                      backend="columnar" if columnar else "row") as span:
            self._root = _build(plan, db, schemas, columnar,
                                store_cache if columnar else None)
            if columnar:
                self._current: Counter[Row] = Counter(
                    self._root.store.to_counts())
                self._root.store = None
            else:
                self._current = Counter(self._root.output())
            span.set(rows_out=len(self._current))

    def current(self) -> Counter:
        """The plan's current output as a row -> count bag (copy)."""
        return Counter(self._current)

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        """Absorb base deltas; return the output delta."""
        out = self._root.apply(deltas)
        current = self._current
        for row, count in out.items():
            new = current[row] + count
            if new:
                current[row] = new
            else:
                del current[row]
        return out


def _derive_schemas(plan: Plan, db, schemas: dict[int, Schema]) -> Schema:
    """The output schema of ``plan``, derived children first with every
    node's schema recorded in ``schemas`` by node id: one derivation per
    node per build, where ``Plan.schema`` would re-walk each subtree."""
    schema = schemas.get(id(plan))
    if schema is None:
        schema = schemas[id(plan)] = plan.output_schema(
            db, *(_derive_schemas(child, db, schemas)
                  for child in plan.inputs()))
    return schema


# ------------------------------------------------------------ backend choice
def _columnar_build(plan: Plan, db, schemas: dict[int, Schema],
                    config: EngineConfig | None = None) -> bool:
    """Should the initial load run on the columnar kernels?

    Follows the query-layer policy: the owning database's
    :class:`EngineConfig` decides; in auto mode the columnar path is taken
    when the base relations are collectively big enough to amortize
    encoding.  Either way every join in the plan must pass the type guard
    (code equality == value equality).
    """
    backend = Q.current_backend(config)
    if backend == "row":
        return False
    if backend != "columnar":
        total = sum(db[name].distinct_count for name in plan.base_relations())
        if total < Q.COLUMNAR_MIN_ROWS:
            return False
    return _joins_supported(plan, schemas)


def _joins_supported(plan: Plan, schemas: dict[int, Schema]) -> bool:
    if isinstance(plan, Scan):
        return True
    if isinstance(plan, (Select, Project, Rename, Extend)):
        return _joins_supported(plan.child, schemas)
    if isinstance(plan, Join):
        return (C.columnar_supported(schemas[id(plan.left)],
                                     schemas[id(plan.right)], plan.on)
                and _joins_supported(plan.left, schemas)
                and _joins_supported(plan.right, schemas))
    if isinstance(plan, Union):
        return all(_joins_supported(child, schemas)
                   for child in plan.children)
    return False


def _bulk_index(store: C.ColumnStore,
                positions: list[int]) -> dict[tuple, dict[Row, int]]:
    """Key -> (row -> count) hash index built from a compact store.

    Key tuples are decoded in one C-speed ``zip`` over the key columns
    (single-column keys skip the tuple entirely, matching ``_JoinNode``'s
    scalar-key convention).  Duplicate physical rows accumulate, so join
    outputs need no compaction pass before being indexed.
    """
    index: dict[Any, dict[Row, int]] = {}
    n = store.num_rows
    if n == 0:
        return index
    rows = store.rows()
    counts = store.counts.tolist()
    if len(positions) == 1:
        keys = store.column_values(positions[0]).tolist()
    elif positions:
        objects = store.pool.object_array()
        keys = list(zip(*(objects[store.codes[p]] for p in positions)))
    else:
        keys = [()] * n
    for key, row, count in zip(keys, rows, counts):
        bucket = index.get(key)
        if bucket is None:
            index[key] = {row: count}
        else:
            bucket[row] = bucket.get(row, 0) + count
    return index


def _index_store(index: dict[Any, dict[Row, int]],
                 schema: Schema) -> C.ColumnStore:
    """Flatten a hash index back into a ColumnStore (for the delta kernel)."""
    counted: list[tuple[Row, int]] = []
    push = counted.extend
    for bucket in index.values():
        push(bucket.items())
    return C.ColumnStore.from_counted_rows(schema, counted)


# --------------------------------------------------------------------- nodes
class _Node:
    schema: Schema
    #: Columnar snapshot of the node's initial output; parents consume it
    #: during the bottom-up build and release it (set to None) afterwards.
    store: C.ColumnStore | None = None

    def output(self) -> Counter:
        raise NotImplementedError

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        raise NotImplementedError

    def touches(self, relations: set[str]) -> bool:
        raise NotImplementedError


class _ScanNode(_Node):
    """Reads a base relation; on the row path it mirrors the contents as
    local state so later deltas do not depend on when the caller mutates the
    base relation.  On the columnar path the snapshot *is* the store (parents
    consume it during the build), so no mirror is kept -- deltas are forwarded
    without the multiplicity guard, which the base relation enforces anyway.
    """

    def __init__(self, plan: Scan, db, schema: Schema,
                 columnar: bool) -> None:
        self.relation = plan.relation
        self.schema = schema
        if columnar:
            # shared with the relation's cache; kernels never mutate stores
            self.store = db[plan.relation].columnar()
            self._rows: Counter[Row] | None = None
        else:
            self._rows = db[plan.relation].counts_copy()

    def output(self) -> Counter:
        if self._rows is None:  # pragma: no cover - columnar parents use .store
            raise RuntimeError("columnar scan node has no row mirror")
        return self._rows

    def touches(self, relations: set[str]) -> bool:
        return self.relation in relations

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        delta = deltas.get(self.relation)
        out = SignedDelta(self.schema)
        if delta is None:
            return out
        rows = self._rows
        if rows is None:
            for row, count in delta.items():
                out.add(row, count)
            return out
        for row, count in delta.items():
            new = rows[row] + count
            if new < 0:
                raise ValueError(
                    f"negative multiplicity for {row!r} in {self.relation}")
            if new == 0:
                del rows[row]
            else:
                rows[row] = new
            out.add(row, count)
        return out


class _MapNode(_Node):
    """Stateless row-wise nodes: Select / Project / Rename / Extend."""

    def __init__(self, plan: Plan, schema: Schema, child: _Node,
                 columnar: bool,
                 cache: dict[int, C.ColumnStore] | None = None) -> None:
        self.child = child
        self.schema = schema
        if isinstance(plan, Select):
            predicate = plan.predicate
            child_schema = child.schema

            def transform(row: Row) -> Row | None:
                return row if predicate(child_schema.row_dict(row)) else None
        elif isinstance(plan, Project):
            positions = [child.schema.position(c) for c in plan.columns]

            def transform(row: Row) -> Row | None:
                return tuple(row[i] for i in positions)
        elif isinstance(plan, Rename):
            def transform(row: Row) -> Row | None:
                return row
        elif isinstance(plan, Extend):
            fn = plan.fn
            child_schema = child.schema
            out_schema = self.schema

            def transform(row: Row) -> Row | None:
                return out_schema.validate_row(
                    row + (fn(child_schema.row_dict(row)),))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unsupported map node {type(plan).__name__}")
        self._transform = transform
        if columnar:
            cached = None if cache is None else cache.get(id(plan))
            if cached is None:
                store = child.store
                if isinstance(plan, Select):
                    cached = C.select(store, plan.predicate, plan.condition)
                elif isinstance(plan, Project):
                    cached = C.project(store, plan.columns)
                elif isinstance(plan, Rename):
                    cached = C.ColumnStore(self.schema, store.codes,
                                           store.counts, store.pool)
                else:
                    cached = C.extend(store, self.schema, plan.fn)
                if cache is not None:
                    cache[id(plan)] = cached
            self.store = cached
            child.store = None

    def output(self) -> Counter:
        result: Counter = Counter()
        for row, count in self.child.output().items():
            mapped = self._transform(row)
            if mapped is not None:
                result[mapped] += count
        return result

    def touches(self, relations: set[str]) -> bool:
        return self.child.touches(relations)

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        child_delta = self.child.apply(deltas)
        out = SignedDelta(self.schema)
        for row, count in child_delta.items():
            mapped = self._transform(row)
            if mapped is not None:
                out.add(mapped, count)
        return out


class _JoinNode(_Node):
    """Equi-join with materialized hash indexes of both children."""

    def __init__(self, plan: Join, schema: Schema, left: _Node,
                 right: _Node, columnar: bool,
                 cache: dict[int, C.ColumnStore] | None = None) -> None:
        self.left = left
        self.right = right
        self.schema = schema
        self._on = list(plan.on)
        self._left_positions = [left.schema.position(a) for a, _ in plan.on]
        self._right_positions = [right.schema.position(b) for _, b in plan.on]
        right_keys = {b for _, b in plan.on}
        self._keep_positions = [right.schema.position(c)
                                for c in right.schema.names
                                if c not in right_keys]
        self._kernel_ok = C.columnar_supported(left.schema, right.schema,
                                               plan.on)
        # single-column joins use the bare value as the index key
        if len(self._left_positions) == 1:
            left_at = self._left_positions[0]
            right_at = self._right_positions[0]
            self._left_key = lambda row: row[left_at]
            self._right_key = lambda row: row[right_at]
        else:
            left_positions = self._left_positions
            right_positions = self._right_positions
            self._left_key = lambda row: tuple(row[i] for i in left_positions)
            self._right_key = lambda row: tuple(row[i] for i in right_positions)
        self._left_index: dict[Any, dict[Row, int]] = {}
        self._right_index: dict[Any, dict[Row, int]] = {}
        self._left_size = 0
        self._right_size = 0
        #: (left_store, right_store) whose indexes are built on first apply;
        #: initial load (the hot path) never probes them, so building eagerly
        #: would bill pure delta-time state to the load.
        self._pending: tuple[C.ColumnStore, C.ColumnStore] | None = None
        if columnar:
            left_store, right_store = left.store, right.store
            cached = None if cache is None else cache.get(id(plan))
            if cached is None:
                cached = C.join(left_store, right_store, self._on,
                                schema=self.schema)
                if cache is not None:
                    cache[id(plan)] = cached
            self.store = cached
            self._pending = (left_store, right_store)
            self._left_size = left_store.num_rows
            self._right_size = right_store.num_rows
            left.store = None
            right.store = None
        else:
            for row, count in left.output().items():
                self._left_size += self._bump(
                    self._left_index, self._left_key(row), row, count)
            for row, count in right.output().items():
                self._right_size += self._bump(
                    self._right_index, self._right_key(row), row, count)

    _left_key: Callable[[Row], Any]
    _right_key: Callable[[Row], Any]

    @staticmethod
    def _bump(index: dict[Any, dict[Row, int]], key: Any, row: Row,
              count: int) -> int:
        """Fold one signed row into an index; return the distinct-row delta."""
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = {}
        before = len(bucket)
        new = bucket.get(row, 0) + count
        if new == 0:
            del bucket[row]
            if not bucket:
                del index[key]
        else:
            bucket[row] = new
        return len(bucket) - before

    def _combine(self, left_row: Row, right_row: Row) -> Row:
        return left_row + tuple(right_row[i] for i in self._keep_positions)

    def _ensure_indexes(self) -> None:
        if self._pending is not None:
            left_store, right_store = self._pending
            self._pending = None
            self._left_index = _bulk_index(left_store, self._left_positions)
            self._right_index = _bulk_index(right_store,
                                            self._right_positions)

    def output(self) -> Counter:
        self._ensure_indexes()
        result: Counter = Counter()
        for key, left_bucket in self._left_index.items():
            right_bucket = self._right_index.get(key)
            if not right_bucket:
                continue
            for left_row, left_count in left_bucket.items():
                for right_row, right_count in right_bucket.items():
                    result[self._combine(left_row, right_row)] += \
                        left_count * right_count
        return result

    def touches(self, relations: set[str]) -> bool:
        return self.left.touches(relations) or self.right.touches(relations)

    def _use_kernel(self, delta_len: int, side_size: int) -> bool:
        """Kernel path pays off only in the bulk-reground regime: the side
        index must be flattened back into a store per apply, an O(side) cost
        that is amortized only when the delta is at least side-sized.  Small
        and medium deltas stay on O(|delta|) hash probes."""
        return (self._kernel_ok and delta_len >= Q.COLUMNAR_MIN_ROWS
                and delta_len >= side_size)

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        left_delta = self.left.apply(deltas)
        right_delta = self.right.apply(deltas)
        out = SignedDelta(self.schema)
        if left_delta or right_delta:
            self._ensure_indexes()
            if obs.enabled():
                obs.observe("dred.join_delta_rows",
                            len(left_delta) + len(right_delta))

        # d(L >< R) = dL >< R_before  +  L_after >< dR
        if left_delta:
            if self._use_kernel(len(left_delta), self._right_size):
                delta_store = C.ColumnStore.from_counted_rows(
                    self.left.schema, list(left_delta.items()))
                result = C.join(delta_store,
                                _index_store(self._right_index,
                                             self.right.schema),
                                self._on, schema=self.schema)
                out.add_counted(result.rows(), result.counts.tolist())
            else:
                for row, count in left_delta.items():
                    bucket = self._right_index.get(self._left_key(row))
                    if bucket:
                        for right_row, right_count in bucket.items():
                            out.add(self._combine(row, right_row),
                                    count * right_count)
            for row, count in left_delta.items():
                self._left_size += self._bump(
                    self._left_index, self._left_key(row), row, count)

        if right_delta:
            if self._use_kernel(len(right_delta), self._left_size):
                delta_store = C.ColumnStore.from_counted_rows(
                    self.right.schema, list(right_delta.items()))
                result = C.join(_index_store(self._left_index,
                                             self.left.schema),
                                delta_store, self._on, schema=self.schema)
                out.add_counted(result.rows(), result.counts.tolist())
            else:
                for row, count in right_delta.items():
                    bucket = self._left_index.get(self._right_key(row))
                    if bucket:
                        for left_row, left_count in bucket.items():
                            out.add(self._combine(left_row, row),
                                    count * left_count)
            for row, count in right_delta.items():
                self._right_size += self._bump(
                    self._right_index, self._right_key(row), row, count)
        return out


class _UnionNode(_Node):
    def __init__(self, plan: Union, schema: Schema, children: list[_Node],
                 columnar: bool,
                 cache: dict[int, C.ColumnStore] | None = None) -> None:
        self.children = children
        self.schema = schema
        if columnar:
            cached = None if cache is None else cache.get(id(plan))
            if cached is None:
                stores = [child.store for child in children]
                codes = np.concatenate([s.codes for s in stores], axis=1)
                counts = np.concatenate([s.counts for s in stores])
                cached = C.ColumnStore(self.schema, codes, counts,
                                       stores[0].pool).compact()
                if cache is not None:
                    cache[id(plan)] = cached
            self.store = cached
            for child in children:
                child.store = None

    def output(self) -> Counter:
        result: Counter = Counter()
        for child in self.children:
            result.update(child.output())
        return result

    def touches(self, relations: set[str]) -> bool:
        return any(child.touches(relations) for child in self.children)

    def apply(self, deltas: dict[str, SignedDelta]) -> SignedDelta:
        out = SignedDelta(self.schema)
        for child in self.children:
            for row, count in child.apply(deltas).items():
                out.add(row, count)
        return out


def _build(plan: Plan, db, schemas: dict[int, Schema], columnar: bool,
           cache: dict[int, C.ColumnStore] | None = None) -> _Node:
    """The node tree of ``plan``; each node takes its schema from
    ``schemas`` (see :func:`_derive_schemas`)."""
    schema = schemas[id(plan)]
    if isinstance(plan, Scan):
        return _ScanNode(plan, db, schema, columnar)
    if isinstance(plan, (Select, Project, Rename, Extend)):
        return _MapNode(plan, schema,
                        _build(plan.child, db, schemas, columnar, cache),
                        columnar, cache)
    if isinstance(plan, Join):
        return _JoinNode(plan, schema,
                         _build(plan.left, db, schemas, columnar, cache),
                         _build(plan.right, db, schemas, columnar, cache),
                         columnar, cache)
    if isinstance(plan, Union):
        return _UnionNode(plan, schema,
                          [_build(c, db, schemas, columnar, cache)
                           for c in plan.children],
                          columnar, cache)
    raise TypeError(f"cannot incrementally evaluate {type(plan).__name__}")
