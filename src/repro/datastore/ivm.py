"""DRed-style incremental view maintenance with derivation counting.

Section 4.1 of the paper: DeepDive keeps a delta relation ``R^d`` per user
relation, carrying a ``count`` column that records the number of derivations
of each tuple, and runs *delta rules* to propagate changes into the grounded
factor-graph views.  This module implements that machinery:

* :class:`SignedDelta` -- a multiset of rows with signed counts (insertions
  positive, deletions negative), the unit of change propagation.
* :class:`MaterializedView` -- a view result stored with derivation counts.
  A row is *visible* while its derivation count is positive, which is exactly
  the counting variant of DRed (sufficient here because DDlog rule bodies are
  non-recursive).
* :class:`ViewSet` -- applies base-relation change batches and propagates
  them through every registered view, reporting visible insertions and
  deletions per view so the grounder can patch the factor graph.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Any, Iterable, Iterator, Sequence

from repro import obs
from repro.datastore.relation import Relation, Row
from repro.datastore.schema import Schema


class SignedDelta:
    """Rows with signed multiplicities; the change unit for DRed propagation."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._counts: Counter[Row] = Counter()

    def add(self, row: Sequence[Any], count: int) -> None:
        """Accumulate ``count`` (may be negative) derivations of ``row``."""
        stored = self.schema.validate_row(row)
        new = self._counts[stored] + count
        if new == 0:
            del self._counts[stored]
        else:
            self._counts[stored] = new

    def add_counted(self, rows: Iterable[Row],
                    counts: Iterable[int]) -> None:
        """Bulk-accumulate already-validated rows (columnar kernel output)."""
        bag = self._counts
        for row, count in zip(rows, counts):
            new = bag[row] + count
            if new == 0:
                del bag[row]
            else:
                bag[row] = new

    def items(self) -> Iterator[tuple[Row, int]]:
        return iter(self._counts.items())

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def insertions(self) -> Iterator[tuple[Row, int]]:
        """Rows with positive net count."""
        return ((row, count) for row, count in self._counts.items() if count > 0)

    def deletions(self) -> Iterator[tuple[Row, int]]:
        """Rows with negative net count (count reported negative)."""
        return ((row, count) for row, count in self._counts.items() if count < 0)

    @classmethod
    def from_changes(cls, schema: Schema, inserts: Iterable[Sequence[Any]] = (),
                     deletes: Iterable[Sequence[Any]] = ()) -> "SignedDelta":
        delta = cls(schema)
        for row in inserts:
            delta.add(row, 1)
        for row in deletes:
            delta.add(row, -1)
        return delta


class MaterializedView:
    """A plan result materialized with per-row derivation counts.

    ``visible`` is the set-semantics face of the view: rows whose derivation
    count is positive.  ``apply`` folds in a signed delta and returns the rows
    that became visible and the rows that ceased to be visible -- the events
    the incremental grounder consumes.
    """

    def __init__(self, name: str, plan, db, build_cache=None) -> None:
        from repro.datastore.incremental import IncrementalEvaluator

        self.name = name
        self.plan = plan
        with obs.span("dred.materialize", view=name) as sp:
            self._evaluator = IncrementalEvaluator(plan, db,
                                                   store_cache=build_cache)
            self.schema = self._evaluator.schema
            self._derivations: Counter[Row] = self._evaluator.current()
            sp.set(rows=len(self._derivations))

    # ------------------------------------------------------------------ reads
    def visible(self) -> Relation:
        """The view's current contents under set semantics."""
        counts = {row: 1 for row, count in self._derivations.items() if count > 0}
        return Relation.from_counts(self.name, self.schema, counts,
                                    validate=False)

    def visible_rows(self) -> list[Row]:
        """Visible rows as a list -- the bulk read the grounder consumes."""
        return list(self.iter_visible())

    def iter_visible(self) -> Iterator[Row]:
        """Stream visible rows without building the list.

        The row-iterator protocol for views: bulk loads (grounder initial
        load, shard rebalance) consume this so a large derived view is
        never resident twice — once in the derivation counter and once as
        a materialized list.
        """
        for row, count in self._derivations.items():
            if count > 0:
                yield row

    def iter_rows(self) -> Iterator[Row]:
        """Protocol alias: a view's rows are its visible rows (set semantics)."""
        return self.iter_visible()

    def derivation_count(self, row: Sequence[Any]) -> int:
        return self._derivations.get(self.schema.validate_row(row), 0)

    def __len__(self) -> int:
        return sum(1 for count in self._derivations.values() if count > 0)

    # ---------------------------------------------------------------- updates
    def absorb(self, base_deltas: dict[str, "SignedDelta"],
               ) -> tuple[list[Row], list[Row]]:
        """Propagate base-relation deltas through the stateful evaluator."""
        return self.apply(self._evaluator.apply(base_deltas))

    def apply(self, delta: SignedDelta) -> tuple[list[Row], list[Row]]:
        """Fold ``delta`` into the derivation counts.

        Returns ``(appeared, disappeared)``: rows that transitioned from
        invisible to visible and vice versa.
        """
        if obs.enabled():
            obs.observe("dred.delta_rows", len(delta), view=self.name)
        appeared: list[Row] = []
        disappeared: list[Row] = []
        for row, count in delta.items():
            before = self._derivations[row]
            after = before + count
            if after < 0:
                raise ValueError(
                    f"view {self.name}: derivation count of {row!r} would go negative "
                    f"({before} + {count}); base deltas are inconsistent")
            if after == 0:
                del self._derivations[row]
            else:
                self._derivations[row] = after
            if before <= 0 < after:
                appeared.append(row)
            elif after <= 0 < before:
                disappeared.append(row)
        return appeared, disappeared


class ViewSet:
    """Registered views over a database, maintained incrementally.

    The paper: "DeepDive always runs DRed -- except on initial load."  That
    is this class's contract: construction materializes every view fully
    (initial load); :meth:`apply_changes` afterwards runs only delta rules.
    """

    def __init__(self, db) -> None:
        # the database owns its view set: a weak back-reference keeps the
        # pair free of a cycle, so a dropped database is freed at once
        self._db = weakref.ref(db)
        self._views: dict[str, MaterializedView] = {}

    def define(self, name: str, plan, build_cache=None) -> MaterializedView:
        """Materialize ``plan`` as view ``name`` over the current database.

        ``build_cache`` (an ``id(plan node) -> ColumnStore`` dict) may be
        shared across several ``define`` calls made over an unchanged
        database to reuse columnar initial-load results for plan subtrees
        that appear (by object identity) in more than one view.
        """
        if name in self._views:
            raise ValueError(f"view {name!r} already defined")
        view = MaterializedView(name, plan, self._db(), build_cache)
        self._views[name] = view
        return view

    def __getitem__(self, name: str) -> MaterializedView:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return list(self._views)

    def apply_changes(self, inserts: dict[str, list[Sequence[Any]]] | None = None,
                      deletes: dict[str, list[Sequence[Any]]] | None = None,
                      ) -> dict[str, tuple[list[Row], list[Row]]]:
        """Apply base-relation changes and propagate through all views.

        ``inserts``/``deletes`` map base relation names to row lists.  Base
        relations are updated in place; each affected view receives its delta.
        Returns per-view ``(appeared, disappeared)`` row lists.
        """
        inserts = inserts or {}
        deletes = deletes or {}
        touched = set(inserts) | set(deletes)

        db = self._db()
        deltas: dict[str, SignedDelta] = {}
        for relation_name in touched:
            relation = db[relation_name]
            delta = SignedDelta.from_changes(
                relation.schema, inserts.get(relation_name, ()), deletes.get(relation_name, ()))
            deltas[relation_name] = delta
            for row in inserts.get(relation_name, ()):
                relation.insert(row)
            for row in deletes.get(relation_name, ()):
                if relation.delete(row) == 0:
                    raise ValueError(
                        f"delete of absent row {row!r} from base relation {relation_name!r}")

        events: dict[str, tuple[list[Row], list[Row]]] = {}
        for name, view in self._views.items():
            if not (view.plan.base_relations() & touched):
                continue
            appeared, disappeared = view.absorb(deltas)
            if appeared or disappeared:
                events[name] = (appeared, disappeared)
        return events
