"""A named collection of relations plus registered incremental views."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.datastore.ivm import ViewSet
from repro.datastore.relation import Relation
from repro.datastore.schema import Schema
from repro.obs.config import EngineConfig


class DatabaseError(KeyError):
    """Raised when a relation name cannot be resolved."""


class Database:
    """All DeepDive state lives in one of these: documents, sentences,
    candidates, features, evidence, and inferred marginals are all relations.

    ``views`` hosts DRed-maintained materialized views (used by incremental
    grounding); plain relations are updated directly via :meth:`insert`.

    ``config`` binds an :class:`EngineConfig` to the database: plan
    evaluation and view maintenance consult it for backend choice and the
    columnar dispatch threshold.  ``None`` defers to the process default.
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        self.config = config
        self.views = ViewSet(self)

    # ------------------------------------------------------------------- DDL
    def create(self, name: str, schema: Schema | None = None, /,
               **column_types: str) -> Relation:
        """Create an empty relation ``name`` with ``schema`` (or kwargs form).

        ``name`` and ``schema`` are positional-only so columns may be called
        ``name`` or ``schema`` (``db.create("people", name="text")``).
        """
        if name in self._relations:
            raise DatabaseError(f"relation {name!r} already exists")
        if schema is None:
            if not column_types:
                raise ValueError("create() needs a schema or column keyword arguments")
            schema = Schema.of(**column_types)
        relation = Relation(name, schema)
        self._relations[name] = relation
        return relation

    def create_segmented(self, name: str, schema: Schema | None = None, /,
                         directory=None, segment_rows: int | None = None,
                         **column_types: str):
        """Create a disk-backed :class:`SegmentedRelation` named ``name``.

        ``directory`` is where sealed segment files live (required);
        ``segment_rows`` defaults to the database config's knob.  The
        relation participates in queries/views exactly like an in-memory
        one, but its frozen prefix stays on disk (see
        :mod:`repro.datastore.segments`).
        """
        from repro.datastore.segments import SegmentedRelation

        if name in self._relations:
            raise DatabaseError(f"relation {name!r} already exists")
        if directory is None:
            raise ValueError("create_segmented() needs a directory for "
                             "the segment files")
        if schema is None:
            if not column_types:
                raise ValueError("create_segmented() needs a schema or "
                                 "column keyword arguments")
            schema = Schema.of(**column_types)
        if segment_rows is None:
            config = self.config
            if config is None:
                from repro.datastore.query import active_config
                config = active_config()
            segment_rows = config.segment_rows
        relation = SegmentedRelation(name, schema, directory,
                                     segment_rows=segment_rows)
        self._relations[name] = relation
        return relation

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise DatabaseError(f"no relation {name!r} (have {sorted(self._relations)})") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> list[str]:
        return sorted(self._relations)

    # ------------------------------------------------------------------- DML
    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows directly into a base relation (no view propagation)."""
        return self[name].insert_many(rows)

    def snapshot(self, names: Iterable[str] | None = None) -> "Database":
        """A copy of this database; used as the pre-state for delta rules.

        If ``names`` is given, only those relations are deep-copied and the
        rest are *shared* -- safe for delta evaluation because only the named
        relations are about to change.
        """
        copy_names = set(self._relations if names is None else names)
        snap = Database.__new__(Database)
        snap._relations = {
            name: (relation.copy() if name in copy_names else relation)
            for name, relation in self._relations.items()
        }
        snap.config = self.config
        snap.views = ViewSet(snap)
        return snap

    def stats(self) -> dict[str, int]:
        """Row counts per relation; part of the 'commodity statistics' the
        error-analysis document reports (Section 5.2)."""
        return {name: len(relation) for name, relation in sorted(self._relations.items())}
