"""Relational algebra over :class:`~repro.datastore.relation.Relation`.

Grounding compiles DDlog rule bodies into joins over these operators, so the
operator set mirrors what DeepDive executes as SQL: selection, projection,
renaming, equi-join (hash join), union/difference under bag semantics,
distinct, and group-by aggregation.

All operators return *new* relations and never mutate their inputs.

Two execution backends implement every operator:

* the **columnar engine** (:mod:`repro.datastore.columnar`) -- vectorized
  kernels over dictionary-encoded numpy columns;
* the **row engine** (the ``_*_rows`` functions below) -- tuple-at-a-time
  over dict-keyed counts: the path for inputs too small to amortize
  encoding, the fallback for joins whose key types the kernels cannot
  compare by code, and the oracle the columnar kernels are tested against.

Each public operator dispatches between them from its ``config`` (an
:class:`~repro.obs.config.EngineConfig`, normally the owning database's;
the process default when omitted).  ``datastore_backend="auto"`` picks the
columnar engine when an input relation has at least
:data:`COLUMNAR_MIN_ROWS` distinct rows; ``"row"`` / ``"columnar"`` force
one -- through the config object and no other way.  The default config is
built once at import by ``EngineConfig.from_env()`` -- this module never
touches the environment itself, and mutating it afterwards has no effect on
dispatch.  The two backends are bag-equivalent (see
``tests/property/test_query_backends.py``).

When an enabled :mod:`repro.obs` collector is installed, every dispatch
records the backend chosen and the input/output cardinalities
(``datastore.<op>`` counters, ``datastore.rows_in``/``rows_out``
histograms).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro import obs
from repro.datastore.relation import Relation, Row
from repro.datastore.schema import Column, Schema, SchemaError
from repro.datastore.types import ColumnType
from repro.obs.config import EngineConfig

Predicate = Callable[[dict[str, Any]], bool]

#: ``auto`` mode's size crossover, in distinct rows: inputs at least this big
#: take the columnar kernels (operators here, DRed view builds and bulk
#: delta joins in :mod:`repro.datastore.incremental`).  Measured on the
#: spouse workload: below ~tens of rows, encode/decode overhead beats
#: vectorization.
COLUMNAR_MIN_ROWS = 48

#: Process default, frozen at import time; the env fallback is read exactly
#: once, inside ``EngineConfig.from_env`` (see ``repro/obs/config.py``).
_default_config: EngineConfig = EngineConfig.from_env()


def active_config() -> EngineConfig:
    """The process-default :class:`EngineConfig` for unconfigured callers."""
    return _default_config


def current_backend(config: EngineConfig | None = None) -> str:
    """``config``'s backend mode (the process default's when omitted):
    ``auto``, ``row``, or ``columnar``."""
    return (config or _default_config).datastore_backend


def _pick(config: EngineConfig | None, *relations: Relation) -> str:
    mode = current_backend(config)
    if mode == "auto":
        largest = max((r.distinct_count for r in relations), default=0)
        return "columnar" if largest >= COLUMNAR_MIN_ROWS else "row"
    return mode


def _memory_budget(config: EngineConfig | None) -> int | None:
    """The effective spill budget in bytes (``None`` = never spill)."""
    return (config or _default_config).memory_budget


def _record(op: str, engine: str, inputs: tuple[Relation, ...],
            result: Relation) -> Relation:
    """Note one dispatch decision on the active metrics registry."""
    obs.count(f"datastore.{op}", engine=engine)
    obs.observe("datastore.rows_in",
                sum(r.distinct_count for r in inputs), op=op)
    obs.observe("datastore.rows_out", result.distinct_count, op=op)
    return result


# ============================================================== public ops
def select(relation: Relation, predicate: Predicate, name: str | None = None,
           condition: tuple | None = None,
           config: EngineConfig | None = None) -> Relation:
    """Rows of ``relation`` whose dict form satisfies ``predicate``.

    ``condition`` optionally carries the predicate in structured form
    ``(op, operand, operand)`` (operands ``("col", name)`` / ``("const", v)``)
    so the columnar backend can evaluate it as a vectorized mask.
    """
    out_name = name or f"select({relation.name})"
    engine = _pick(config, relation)
    if engine == "columnar":
        from repro.datastore import columnar as C
        out = C.select(relation.columnar(), predicate,
                       condition).to_relation(out_name)
    else:
        out = _select_rows(relation, predicate, out_name)
    if obs.enabled():
        _record("select", engine, (relation,), out)
    return out


def project(relation: Relation, columns: Sequence[str], name: str | None = None,
            distinct: bool = False,
            config: EngineConfig | None = None) -> Relation:
    """Project ``relation`` onto ``columns`` (bag semantics unless ``distinct``)."""
    out_name = name or f"project({relation.name})"
    engine = _pick(config, relation)
    if engine == "columnar":
        from repro.datastore import columnar as C
        out = C.project(relation.columnar(), columns,
                        distinct=distinct).to_relation(out_name)
    else:
        out = _project_rows(relation, columns, out_name, distinct)
    if obs.enabled():
        _record("project", engine, (relation,), out)
    return out


def rename(relation: Relation, mapping: dict[str, str],
           name: str | None = None,
           config: EngineConfig | None = None) -> Relation:
    """Rename columns of ``relation`` per ``mapping``."""
    out = Relation.from_counts(name or relation.name,
                               relation.schema.rename(mapping),
                               relation.counted_rows(), validate=False)
    return out


def extend(relation: Relation, column: str, column_type: str,
           fn: Callable[[dict[str, Any]], Any], name: str | None = None,
           config: EngineConfig | None = None) -> Relation:
    """Append a computed column ``column`` = ``fn(row_dict)`` to every row."""
    new_schema = Schema(relation.schema.columns
                        + (Column(column, ColumnType(column_type)),))
    out = Relation(name or relation.name, new_schema)
    for row, count in relation.counted_rows():
        out.insert(row + (fn(relation.schema.row_dict(row)),), count)
    return out


def join(left: Relation, right: Relation, on: Sequence[tuple[str, str]] | None = None,
         name: str | None = None,
         config: EngineConfig | None = None) -> Relation:
    """Equi-join ``left`` and ``right``.

    ``on`` is a list of ``(left_column, right_column)`` pairs; if ``None``,
    a natural join on shared column names is performed.  The output schema is
    the concatenation of both schemas with right-side join columns dropped
    (natural-join style) and remaining right-side conflicts prefixed ``r_``.
    """
    if on is None:
        shared = [c for c in left.schema.names if c in right.schema]
        on = [(c, c) for c in shared]
    for column in (pair[0] for pair in on):
        left.schema.position(column)
    for column in (pair[1] for pair in on):
        right.schema.position(column)
    out_name = name or f"join({left.name},{right.name})"

    engine = _pick(config, left, right)
    out = None
    if engine == "columnar":
        from repro.datastore import columnar as C
        if C.columnar_supported(left.schema, right.schema, on):
            left_store, right_store = left.columnar(), right.columnar()
            budget = _memory_budget(config)
            from repro.datastore import spill
            if spill.should_spill(budget, left_store, right_store):
                out = spill.spill_join(left_store, right_store, on,
                                       budget, out_name)
                engine = "columnar-spill"
            else:
                out = C.join(left_store, right_store,
                             on).to_relation(out_name)
        else:
            engine = "row"
    if out is None:
        out = _join_rows(left, right, on, out_name)
    if obs.enabled():
        _record("join", engine, (left, right), out)
    return out


def union(left: Relation, right: Relation, name: str | None = None,
          config: EngineConfig | None = None) -> Relation:
    """Bag union (counts add); schemas must match positionally by type."""
    _require_compatible(left, right)
    out_name = name or f"union({left.name},{right.name})"
    engine = _pick(config, left, right)
    if engine == "columnar":
        from repro.datastore import columnar as C
        out = C.union(left.columnar(), right.columnar()).to_relation(out_name)
    else:
        out = left.copy(out_name)
        for row, count in right.counted_rows():
            out.insert(row, count)
    if obs.enabled():
        _record("union", engine, (left, right), out)
    return out


def difference(left: Relation, right: Relation, name: str | None = None,
               config: EngineConfig | None = None) -> Relation:
    """Bag difference (counts subtract, floored at zero)."""
    _require_compatible(left, right)
    out_name = name or f"diff({left.name},{right.name})"
    engine = _pick(config, left, right)
    if engine == "columnar":
        from repro.datastore import columnar as C
        out = C.difference(left.columnar(),
                           right.columnar()).to_relation(out_name)
    else:
        counts = {}
        for row, count in left.counted_rows():
            remaining = count - right.count(row)
            if remaining > 0:
                counts[row] = remaining
        out = Relation.from_counts(out_name, left.schema, counts,
                                   validate=False)
    if obs.enabled():
        _record("difference", engine, (left, right), out)
    return out


def distinct(relation: Relation, name: str | None = None,
             config: EngineConfig | None = None) -> Relation:
    """Set-semantics version of ``relation`` (every count becomes 1)."""
    out_name = name or f"distinct({relation.name})"
    engine = _pick(config, relation)
    if engine == "columnar":
        from repro.datastore import columnar as C
        store = relation.columnar()
        budget = _memory_budget(config)
        from repro.datastore import spill
        if spill.should_spill(budget, store):
            out = spill.spill_distinct(store, budget, out_name)
            engine = "columnar-spill"
        else:
            out = C.distinct(store).to_relation(out_name)
    else:
        out = Relation.from_counts(
            out_name, relation.schema,
            dict.fromkeys(relation.distinct_rows(), 1), validate=False)
    if obs.enabled():
        _record("distinct", engine, (relation,), out)
    return out


def aggregate(relation: Relation, group_by: Sequence[str],
              aggregates: dict[str, tuple[str, str]],
              name: str | None = None,
              config: EngineConfig | None = None) -> Relation:
    """Group-by aggregation.

    ``aggregates`` maps output column name to ``(function, input_column)``
    where function is one of ``count``, ``sum``, ``min``, ``max``, ``avg``.
    For ``count`` the input column is ignored (``'*'`` by convention).
    Output columns are the group-by columns followed by the aggregates.
    """
    schema, agg_specs = _aggregate_schema(relation.schema, group_by, aggregates)
    out_name = name or f"agg({relation.name})"
    engine = _pick(config, relation)
    if engine == "columnar":
        from repro.datastore import columnar as C
        store = relation.columnar()
        budget = _memory_budget(config)
        from repro.datastore import spill
        if spill.should_spill(budget, store):
            out = spill.spill_aggregate(store, group_by, aggregates,
                                        schema, budget, out_name)
            engine = "columnar-spill"
        else:
            out = C.aggregate(store, group_by, aggregates,
                              schema).to_relation(out_name)
    else:
        out = _aggregate_rows(relation, group_by, agg_specs, schema, out_name)
    if obs.enabled():
        _record("aggregate", engine, (relation,), out)
    return out


# ======================================= row engine: small inputs and oracle
def _select_rows(relation: Relation, predicate: Predicate, name: str) -> Relation:
    counts = {}
    row_dict = relation.schema.row_dict
    for row, count in relation.counted_rows():
        if predicate(row_dict(row)):
            counts[row] = count
    return Relation.from_counts(name, relation.schema, counts, validate=False)


def _project_rows(relation: Relation, columns: Sequence[str], name: str,
                  distinct: bool) -> Relation:
    schema = relation.schema.project(columns)
    positions = [relation.schema.position(c) for c in columns]
    counts: dict[Row, int] = {}
    for row, count in relation.counted_rows():
        projected = tuple(row[i] for i in positions)
        counts[projected] = counts.get(projected, 0) + count
    if distinct:
        counts = dict.fromkeys(counts, 1)
    return Relation.from_counts(name, schema, counts, validate=False)


def _join_rows(left: Relation, right: Relation,
               on: Sequence[tuple[str, str]], name: str) -> Relation:
    left_keys = [pair[0] for pair in on]
    right_keys = [pair[1] for pair in on]
    keep_right = [c for c in right.schema.names if c not in right_keys]
    schema = left.schema.concat(right.schema.project(keep_right))
    keep_positions = [right.schema.position(c) for c in keep_right]
    counts: dict[Row, int] = {}

    # Build on the smaller relation to keep the hash table small.
    build, probe, build_keys, probe_keys, build_is_left = (
        (left, right, left_keys, right_keys, True)
        if left.distinct_count <= right.distinct_count
        else (right, left, right_keys, left_keys, False)
    )
    build_positions = [build.schema.position(c) for c in build_keys]
    probe_positions = [probe.schema.position(c) for c in probe_keys]
    table: dict[tuple[Any, ...], list[tuple[Row, int]]] = {}
    for row, count in build.counted_rows():
        table.setdefault(tuple(row[i] for i in build_positions), []).append((row, count))
    for probe_row, probe_count in probe.counted_rows():
        matches = table.get(tuple(probe_row[i] for i in probe_positions))
        if not matches:
            continue
        for build_row, build_count in matches:
            left_row, right_row = (build_row, probe_row) if build_is_left else (probe_row, build_row)
            combined = left_row + tuple(right_row[i] for i in keep_positions)
            counts[combined] = counts.get(combined, 0) + probe_count * build_count
    return Relation.from_counts(name, schema, counts, validate=False)


def _aggregate_schema(schema: Schema, group_by: Sequence[str],
                      aggregates: dict[str, tuple[str, str]],
                      ) -> tuple[Schema, list[tuple[str, str, int | None]]]:
    """Shared output-schema/spec computation so both backends agree."""
    agg_specs: list[tuple[str, str, int | None]] = []
    out_columns = list(schema.project(group_by).columns)
    for out_name, (fn, input_column) in aggregates.items():
        if fn not in ("count", "sum", "min", "max", "avg"):
            raise SchemaError(f"unknown aggregate function {fn!r}")
        position = None if fn == "count" else schema.position(input_column)
        if fn in ("sum", "avg") and schema.columns[position].type in (
                ColumnType.TEXT, ColumnType.ARRAY):
            raise SchemaError(
                f"aggregate {fn!r} is not defined for "
                f"{schema.columns[position].type} column {input_column!r}")
        agg_specs.append((out_name, fn, position))
        if fn == "count":
            ctype = ColumnType.INT
        elif fn == "avg":
            ctype = ColumnType.FLOAT
        else:
            ctype = schema.columns[position].type
        out_columns.append(Column(out_name, ctype))
    return Schema(tuple(out_columns)), agg_specs


def _aggregate_rows(relation: Relation, group_by: Sequence[str],
                    agg_specs: list[tuple[str, str, int | None]],
                    schema: Schema, name: str) -> Relation:
    """Count-weighted row-engine aggregation.

    Bag multiplicities contribute directly to count/sum/avg accumulators --
    no ``range(count)`` expansion, so cost is O(distinct rows), not
    O(total multiplicity).
    """
    group_positions = [relation.schema.position(c) for c in group_by]

    # per group: [count_total, then per agg (sum_acc, weight) or (extreme,)]
    groups: dict[tuple[Any, ...], list] = {}
    for row, count in relation.counted_rows():
        key = tuple(row[i] for i in group_positions)
        state = groups.get(key)
        if state is None:
            state = groups[key] = [0] + [[None, 0] for _ in agg_specs]
        state[0] += count
        for slot, (_, fn, position) in enumerate(agg_specs, start=1):
            if fn == "count":
                continue
            value = row[position]
            if value is None:
                continue
            acc = state[slot]
            if fn in ("sum", "avg"):
                acc[0] = value * count if acc[0] is None else acc[0] + value * count
                acc[1] += count
            elif fn == "min":
                acc[0] = value if acc[0] is None else min(acc[0], value)
            else:  # max
                acc[0] = value if acc[0] is None else max(acc[0], value)

    counts: dict[Row, int] = {}
    for key, state in groups.items():
        values: list[Any] = []
        for slot, (_, fn, _position) in enumerate(agg_specs, start=1):
            if fn == "count":
                values.append(state[0])
            elif fn == "avg":
                total, weight = state[slot]
                values.append(None if weight == 0 else total / weight)
            else:
                values.append(state[slot][0])
        counts[schema.validate_row(key + tuple(values))] = 1
    return Relation.from_counts(name, schema, counts, validate=False)


def _require_compatible(left: Relation, right: Relation) -> None:
    left_types = tuple(c.type for c in left.schema.columns)
    right_types = tuple(c.type for c in right.schema.columns)
    if left_types != right_types:
        raise SchemaError(
            f"incompatible schemas for set operation: {left.schema.names} vs {right.schema.names}")
