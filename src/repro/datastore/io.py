"""Datastore persistence: a whole database as one JSON-compatible dict.

:func:`database_to_dict` and :func:`database_from_dict` round-trip every
relation with its schema, rows, multiplicities and mutation-version counter.
Serving checkpoints store the same relation *parts* as segment files
(:mod:`repro.serve.checkpoint`) and restore through
:func:`database_from_dict`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.datastore.database import Database
from repro.datastore.relation import Relation
from repro.datastore.schema import Schema


#: The one JSON database format this build writes and reads.  Each relation
#: is stored columnar: one or more *parts*, each a local interning pool plus
#: per-column int64 code lists and a multiplicity vector -- every distinct
#: row is written once and dump/restore moves codes in bulk instead of
#: decoding Python rows -- plus its mutation-version counter, so a restored
#: database resumes IVM/DRed cache keying where the dumped one left off.
DATABASE_FORMAT_VERSION = 3


def relation_parts(relation: Relation) -> list[dict]:
    """``relation`` as v3 *parts*: ``{pool, codes, counts}`` dicts.

    A :class:`~repro.datastore.segments.SegmentedRelation` contributes one
    part per sealed segment (codes copied straight out of the mmap, no row
    decode) plus its tail; an in-memory relation becomes a single part
    encoded against a fresh local pool.  Tuple values (ARRAY columns) are
    stored as JSON lists; :func:`counts_from_parts` restores them.
    """
    from repro.datastore.segments import encode_value

    parts = []
    for store in _relation_stores(relation):
        parts.append({
            "pool": [encode_value(v) for v in store.pool.values],
            "codes": [np.asarray(store.codes[j]).tolist()
                      for j in range(store.codes.shape[0])],
            "counts": np.asarray(store.counts).tolist(),
        })
    return parts


def _relation_stores(relation: Relation):
    from repro.datastore import columnar as C
    from repro.datastore.segments import SegmentedRelation

    if isinstance(relation, SegmentedRelation):
        yield from relation.iter_stores()
    else:
        yield C.ColumnStore.from_counted_rows(
            relation.schema, relation.counted_rows(), C.InternPool())


def counts_from_parts(parts: Iterable[dict]) -> dict:
    """Merge v3 parts back into one ``row -> count`` bag.

    Tolerant of both JSON lists and numpy arrays for codes/counts, so
    in-process callers (checkpoint manifests) can hand over arrays without
    a ``tolist`` round-trip.
    """
    from repro.datastore.segments import decode_value

    counts: dict[tuple, int] = {}
    for part in parts:
        values = [decode_value(v) for v in part["pool"]]
        objects = np.empty(len(values), dtype=object)
        objects[:] = values
        columns = [objects[np.asarray(codes, dtype=np.int64)]
                   for codes in part["codes"]]
        multiplicities = np.asarray(part["counts"], dtype=np.int64).tolist()
        for row, count in zip(zip(*columns), multiplicities):
            counts[row] = counts.get(row, 0) + count
    return counts


def database_to_dict(db: Database,
                     relations: Iterable[str] | None = None) -> dict:
    """Serialize ``db`` (or a subset of relations) to a JSON-compatible dict."""
    names = list(relations) if relations is not None else db.names()
    payload = {"version": DATABASE_FORMAT_VERSION, "relations": {}}
    for name in names:
        relation = db[name]
        payload["relations"][name] = {
            "schema": [[c.name, c.type.value] for c in relation.schema.columns],
            "mutation_version": relation.mutation_version,
            "parts": relation_parts(relation),
        }
    return payload


def database_from_dict(data: dict) -> Database:
    """Inverse of :func:`database_to_dict`.

    Restored relations resume the persisted mutation-version counters, so
    incremental machinery (DRed views, columnar caches) keyed on them
    behaves exactly as it would have over the original database.  Any
    other format version, older or newer, is refused rather than misread.
    """
    version = data.get("version")
    if version != DATABASE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported database format version {version!r}; "
            f"this build reads version {DATABASE_FORMAT_VERSION} only")
    db = Database()
    for name, item in data["relations"].items():
        schema = Schema.of(**{column: type_name
                              for column, type_name in item["schema"]})
        relation = db.create(name, schema)
        # one bulk insert (a single version bump) so the persisted counter —
        # which counted at least one mutation per stored row batch — can
        # always be restored exactly
        relation.insert_counted(counts_from_parts(item["parts"]).items())
        persisted = item["mutation_version"]
        if persisted > relation.mutation_version:
            relation.restore_mutation_version(persisted)
    return db

