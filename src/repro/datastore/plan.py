"""Query plans: a small relational-algebra AST with incremental evaluation.

DeepDive grounds DDlog rules via SQL views and keeps them fresh with the
DRed/counting incremental view maintenance algorithm (Gupta, Mumick &
Subrahmanian).  A :class:`Plan` node can do two things:

* ``evaluate(db)`` -- compute the full result over a database snapshot, and
* ``delta(db_before, db_after, deltas)`` -- compute a *signed delta* of the
  result given signed deltas of the base relations, without recomputing the
  whole view.

The delta rules are the classical ones; for a join the delta is

    d(R >< S) = dR >< S_before  +  R_after >< dS

which handles simultaneous changes to both sides exactly (the second term
uses the *post*-change left side, so the cross term dR >< dS is counted once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.datastore import query as Q
from repro.datastore.ivm import SignedDelta
from repro.datastore.relation import Relation
from repro.datastore.schema import Schema


class Database:
    """A named collection of base relations (defined in database.py; see there).

    Imported lazily by plans to avoid a cycle; this forward declaration is
    only for type checkers.
    """


@dataclass(frozen=True)
class Plan:
    """Base class for plan nodes."""

    def evaluate(self, db: "Database") -> Relation:
        raise NotImplementedError

    def schema(self, db: "Database") -> Schema:
        """The output schema, derived over the whole subtree.  A caller that
        already holds the inputs' schemas derives one node with
        :meth:`output_schema` instead."""
        return self.output_schema(
            db, *(child.schema(db) for child in self.inputs()))

    def inputs(self) -> tuple["Plan", ...]:
        """The child plans, in order."""
        raise NotImplementedError

    def output_schema(self, db: "Database", *inputs: Schema) -> Schema:
        """This node's schema given its :meth:`inputs`' schemas, in order."""
        raise NotImplementedError

    def base_relations(self) -> set[str]:
        """Names of the base relations this plan reads."""
        raise NotImplementedError

    def delta(self, db_before: "Database", db_after: "Database",
              deltas: dict[str, SignedDelta]) -> SignedDelta:
        """Signed delta of this plan's result, given base-relation deltas."""
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(Plan):
    """Read a base relation by name."""

    relation: str

    def evaluate(self, db) -> Relation:
        return db[self.relation]

    def inputs(self) -> tuple[Plan, ...]:
        return ()

    def output_schema(self, db, *inputs: Schema) -> Schema:
        return db[self.relation].schema

    def base_relations(self) -> set[str]:
        return {self.relation}

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        existing = deltas.get(self.relation)
        if existing is not None:
            return existing
        return SignedDelta(db_before[self.relation].schema)


@dataclass(frozen=True)
class Select(Plan):
    """Filter rows by a predicate over the row dict.

    ``condition`` optionally mirrors the predicate in structured form
    ``(op, operand, operand)`` with operands ``("col", name)`` or
    ``("const", value)``; when present, the columnar backend evaluates the
    selection as a vectorized mask instead of calling the closure per row.
    The DDlog compiler emits it for comparisons, constant bindings, and
    repeated-variable equalities.
    """

    child: Plan
    predicate: Callable[[dict[str, Any]], bool]
    condition: tuple | None = None

    def evaluate(self, db) -> Relation:
        return Q.select(self.child.evaluate(db), self.predicate,
                        condition=self.condition,
                        config=getattr(db, "config", None))

    def inputs(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_schema(self, db, child: Schema) -> Schema:
        return child

    def base_relations(self) -> set[str]:
        return self.child.base_relations()

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        child_delta = self.child.delta(db_before, db_after, deltas)
        out = SignedDelta(child_delta.schema)
        for row, count in child_delta.items():
            if self.predicate(child_delta.schema.row_dict(row)):
                out.add(row, count)
        return out


@dataclass(frozen=True)
class Project(Plan):
    """Project onto named columns (bag semantics; distinct is the view's job)."""

    child: Plan
    columns: tuple[str, ...]

    def evaluate(self, db) -> Relation:
        return Q.project(self.child.evaluate(db), self.columns,
                         config=getattr(db, "config", None))

    def inputs(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_schema(self, db, child: Schema) -> Schema:
        return child.project(self.columns)

    def base_relations(self) -> set[str]:
        return self.child.base_relations()

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        child_delta = self.child.delta(db_before, db_after, deltas)
        positions = [child_delta.schema.position(c) for c in self.columns]
        out = SignedDelta(child_delta.schema.project(self.columns))
        for row, count in child_delta.items():
            out.add(tuple(row[i] for i in positions), count)
        return out


@dataclass(frozen=True)
class Rename(Plan):
    """Rename columns per a mapping."""

    child: Plan
    mapping: tuple[tuple[str, str], ...]

    def evaluate(self, db) -> Relation:
        return Q.rename(self.child.evaluate(db), dict(self.mapping))

    def inputs(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_schema(self, db, child: Schema) -> Schema:
        return child.rename(dict(self.mapping))

    def base_relations(self) -> set[str]:
        return self.child.base_relations()

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        child_delta = self.child.delta(db_before, db_after, deltas)
        out = SignedDelta(child_delta.schema.rename(dict(self.mapping)))
        for row, count in child_delta.items():
            out.add(row, count)
        return out


@dataclass(frozen=True)
class Extend(Plan):
    """Append a computed column to each row."""

    child: Plan
    column: str
    column_type: str
    fn: Callable[[dict[str, Any]], Any]

    def evaluate(self, db) -> Relation:
        return Q.extend(self.child.evaluate(db), self.column, self.column_type, self.fn)

    def inputs(self) -> tuple[Plan, ...]:
        return (self.child,)

    def output_schema(self, db, child: Schema) -> Schema:
        from repro.datastore.schema import Column
        from repro.datastore.types import ColumnType

        return Schema(child.columns
                      + (Column(self.column, ColumnType(self.column_type)),))

    def base_relations(self) -> set[str]:
        return self.child.base_relations()

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        child_delta = self.child.delta(db_before, db_after, deltas)
        out = SignedDelta(self.output_schema(db_before, child_delta.schema))
        for row, count in child_delta.items():
            out.add(row + (self.fn(child_delta.schema.row_dict(row)),), count)
        return out


@dataclass(frozen=True)
class Join(Plan):
    """Equi-join of two plans on ``(left_column, right_column)`` pairs."""

    left: Plan
    right: Plan
    on: tuple[tuple[str, str], ...]

    def evaluate(self, db) -> Relation:
        return Q.join(self.left.evaluate(db), self.right.evaluate(db),
                      list(self.on), config=getattr(db, "config", None))

    def inputs(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def output_schema(self, db, left: Schema, right: Schema) -> Schema:
        right_keys = [pair[1] for pair in self.on]
        keep = [c for c in right.names if c not in right_keys]
        return left.concat(right.project(keep))

    def base_relations(self) -> set[str]:
        return self.left.base_relations() | self.right.base_relations()

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        left_delta = self.left.delta(db_before, db_after, deltas)
        right_delta = self.right.delta(db_before, db_after, deltas)
        out = SignedDelta(self.output_schema(db_before, left_delta.schema,
                                             right_delta.schema))
        if left_delta:
            right_before = self.right.evaluate(db_before)
            self._join_into(out, left_delta.items(), right_before.counted_rows(),
                            left_delta.schema, right_before.schema)
        if right_delta:
            left_after = self.left.evaluate(db_after)
            self._join_into(out, left_after.counted_rows(), right_delta.items(),
                            left_after.schema, right_delta.schema)
        return out

    def _join_into(self, out: SignedDelta, left_rows, right_rows,
                   left_schema: Schema, right_schema: Schema) -> None:
        left_positions = [left_schema.position(a) for a, _ in self.on]
        right_positions = [right_schema.position(b) for _, b in self.on]
        right_keys = [pair[1] for pair in self.on]
        keep_positions = [right_schema.position(c) for c in right_schema.names
                          if c not in right_keys]
        table: dict[tuple[Any, ...], list[tuple[tuple, int]]] = {}
        for row, count in right_rows:
            table.setdefault(tuple(row[i] for i in right_positions), []).append((row, count))
        for row, count in left_rows:
            for right_row, right_count in table.get(tuple(row[i] for i in left_positions), ()):  # noqa: E501
                out.add(row + tuple(right_row[i] for i in keep_positions), count * right_count)


@dataclass(frozen=True)
class Union(Plan):
    """Bag union of plans with identical schemas."""

    children: tuple[Plan, ...]

    def evaluate(self, db) -> Relation:
        result = self.children[0].evaluate(db)
        for child in self.children[1:]:
            result = Q.union(result, child.evaluate(db))
        return result

    def inputs(self) -> tuple[Plan, ...]:
        return self.children

    def output_schema(self, db, *inputs: Schema) -> Schema:
        return inputs[0]

    def base_relations(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.base_relations()
        return names

    def delta(self, db_before, db_after, deltas) -> SignedDelta:
        out = SignedDelta(self.children[0].schema(db_before))
        for child in self.children:
            for row, count in child.delta(db_before, db_after, deltas).items():
                out.add(row, count)
        return out


def chain_joins(plans: Sequence[Plan], ons: Sequence[Sequence[tuple[str, str]]]) -> Plan:
    """Left-deep join tree over ``plans`` with ``ons[i]`` joining plan ``i+1``."""
    if not plans:
        raise ValueError("chain_joins needs at least one plan")
    if len(ons) != len(plans) - 1:
        raise ValueError("need exactly len(plans)-1 join conditions")
    result = plans[0]
    for plan, on in zip(plans[1:], ons):
        result = Join(result, plan, tuple(tuple(pair) for pair in on))
    return result
