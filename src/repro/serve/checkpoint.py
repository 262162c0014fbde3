"""Checkpoints: periodic durable images of the whole serving state.

A checkpoint bounds recovery time (replay = WAL tail only, not the full
history) and is the only way learned weights survive a restart — the
factor-graph columns carry them, while re-grounding alone would reset every
weight to its initial value.

A checkpoint (format 3) is one small JSON document plus content-addressed
segment files in the manager's ``segments/`` directory, all in the one
segment format relations use (:func:`~repro.datastore.segments.write_segment`):

* the datastore is a *segment manifest*: relation data is sealed once into
  segment files (hard-linked straight from a
  :class:`~repro.datastore.segments.SegmentedRelation`'s own directory when
  the filesystem allows), and a relation whose mutation version hasn't moved
  since the last save is re-referenced without re-encoding a single row;
* every :class:`ArrayTable` in the payload — the factor-graph columns and
  the chain state — is an int64 code matrix written as segments, split by
  id range every :data:`CHUNK_IDS` ids, with its row keys (if any) in each
  segment's pool; a chunk whose content did not change since the last save
  has the same digest and is re-referenced, not rewritten;
* everything else (grounder bookkeeping, the publish cursor) stays JSON in
  the document, encoded once with ``json.dumps``.

A ``checkpoint-<lsn>.refs.json`` sidecar lists every segment digest the
checkpoint references.  Retention prunes segment files by *refcount*: a
segment is deleted only when no retained checkpoint's sidecar lists it.

Writes are atomic (temp file + ``os.replace``) and durable before
:meth:`CheckpointManager.save` returns: the segments directory is fsynced
before the document is renamed into place, the checkpoint directory after.
A crash mid-checkpoint leaves the previous checkpoint intact; loads verify
the format version and refuse anything else rather than guessing.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.serve.wal import fsync_directory

#: The one checkpoint format this build writes and reads: a JSON document
#: whose database is a segment manifest (or, for callers that pass no
#: ``database=``, an inline ``datastore.io`` dump) and whose array tables
#: are segment references.  Formats 1 and 2 are refused.
CHECKPOINT_FORMAT_VERSION = 3

SEGMENTS_DIRNAME = "segments"

#: Array tables are split into one segment per this many ids (of the
#: table's first field), so a save rewrites only the id ranges that changed.
CHUNK_IDS = 4096

#: The key marking a stored :class:`ArrayTable` in a checkpoint document
#: (``$`` keeps it apart from relation names, which are identifiers).
_TABLE_MARK = "$array_table"

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})\.json$")
_LEFTOVER_RE = re.compile(
    r"^checkpoint-(\d{12})\.(?:json\.tmp|refs\.json(?:\.tmp)?)$")
_SEGMENT_RE = re.compile(r"^seg-([0-9a-f]{40})\.seg$")


class CheckpointError(ValueError):
    """Raised for unreadable or unsupported checkpoint payloads."""


@dataclass(frozen=True)
class CheckpointInfo:
    """A checkpoint on disk: its path and the LSN it covers."""

    path: pathlib.Path
    lsn: int


class ArrayTable(NamedTuple):
    """Rows a checkpoint stores as segments instead of JSON.

    ``codes`` is an ``(len(fields), n)`` int64 matrix, one row per field;
    the first field is an id the table is chunked by.  Floats go in by bit
    pattern (``values.view(np.int64)``).  ``keys``, when given, holds one
    hashable key per row and is stored in the segments' pools.
    """

    fields: tuple[str, ...]
    codes: np.ndarray
    keys: Sequence[Any] | None = None

    def column(self, name: str) -> np.ndarray:
        return self.codes[self.fields.index(name)]


class CheckpointManager:
    """Save/load/prune checkpoints in one service directory."""

    def __init__(self, directory: str | os.PathLike,
                 keep: int = 2) -> None:
        self.directory = pathlib.Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)
        #: relation name -> (mutation_version, manifest entries) from the
        #: last save: an unchanged relation is re-referenced, not re-encoded.
        self._seal_cache: dict[str, tuple[int, dict]] = {}
        #: bytes physically written by the most recent :meth:`save` (segment
        #: files actually created + the checkpoint JSON; hard-linked or
        #: cache-hit segments contribute nothing).
        self.last_save_bytes = 0

    @property
    def segments_dir(self) -> pathlib.Path:
        return self.directory / SEGMENTS_DIRNAME

    # ---------------------------------------------------------------- saving
    def save(self, payload: dict, lsn: int, database=None) -> CheckpointInfo:
        """Atomically and durably persist ``payload`` as the checkpoint
        covering ``lsn``.

        With ``database`` (a :class:`~repro.datastore.database.Database`),
        relation data is sealed into content-addressed segment files and the
        document stores only a manifest of references — the payload must
        then carry no inline ``"database"`` entry.  Every
        :class:`ArrayTable` in the payload, nested dicts included, is
        written as segments and referenced from the document.

        The document is stamped with the format version and, like every
        segment it references, is on disk with its directory entry fsynced
        before this returns.  Older checkpoints beyond the retention count
        are pruned afterwards (never before — a failed save must not eat the
        previous checkpoint).
        """
        if database is not None and "database" in payload:
            raise ValueError("payload already carries an inline database; "
                             "pass database= or an inline dump, not both")
        if database is None and "database" not in payload:
            raise ValueError("checkpoint payload has no database: pass "
                             "database= or include an inline dump")
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        existing = set(os.listdir(self.segments_dir))
        digests: set[str] = set()
        document, written = self._store_tables(payload, existing, digests)
        document["format"] = CHECKPOINT_FORMAT_VERSION
        document["lsn"] = lsn
        if database is not None:
            manifest, sealed = self._seal_database(database, existing)
            written += sealed
            digests.update(ref["digest"] for entry in manifest.values()
                           for ref in entry["segments"])
            document["database"] = {"segment_manifest": manifest}
        path = self.directory / f"checkpoint-{lsn:012d}.json"
        temp = path.with_suffix(".json.tmp")
        self._write_refs_sidecar(lsn, digests)
        text = json.dumps(document)
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        fsync_directory(self.segments_dir)
        os.replace(temp, path)
        fsync_directory(self.directory)
        written += path.stat().st_size
        self.last_save_bytes = written
        if obs.enabled():
            obs.observe("serve.checkpoint.bytes_written", written)
        self.prune()
        return CheckpointInfo(path, lsn)

    def _store_tables(self, payload: dict, existing: set[str],
                      digests: set[str]) -> tuple[dict, int]:
        """``payload`` with each :class:`ArrayTable` written as segments and
        replaced by its reference; also returns the bytes written."""
        written = 0

        def store(value):
            nonlocal written
            if isinstance(value, ArrayTable):
                stored, nbytes = self._write_table(value, existing, digests)
                written += nbytes
                return {_TABLE_MARK: stored}
            if isinstance(value, dict):
                return {key: store(item) for key, item in value.items()}
            return value

        return store(payload), written

    def _write_table(self, table: ArrayTable, existing: set[str],
                     digests: set[str]) -> tuple[dict, int]:
        """Write ``table`` as one segment per :data:`CHUNK_IDS` id range."""
        from repro.datastore.segments import write_segment

        codes = np.asarray(table.codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[0] != len(table.fields):
            raise ValueError(f"array table {table.fields} has codes of "
                             f"shape {codes.shape}")
        rows = codes.shape[1]
        if table.keys is not None and len(table.keys) != rows:
            raise ValueError(f"array table {table.fields} has {rows} rows "
                             f"but {len(table.keys)} keys")
        cuts = (np.flatnonzero(np.diff(codes[0] // CHUNK_IDS)) + 1).tolist()
        segments, written = [], 0
        for lo, hi in zip([0, *cuts], [*cuts, rows]):
            ref = write_segment(self.segments_dir, codes[:, lo:hi],
                                np.ones(hi - lo, dtype=np.int64),
                                () if table.keys is None else table.keys[lo:hi])
            if ref.filename not in existing:
                existing.add(ref.filename)
                written += ref.nbytes
            digests.add(ref.digest)
            segments.append(ref.digest)
        return {"fields": list(table.fields), "keyed": table.keys is not None,
                "rows": rows, "segments": segments}, written

    def _seal_database(self, database, existing: set[str]) -> tuple[dict, int]:
        """Seal every relation to segment files; return (manifest, bytes).

        Segments already on disk — whether from a previous checkpoint
        (content-address collision), the seal cache, or a hard-linkable
        :class:`SegmentedRelation` directory — cost nothing to reference.
        """
        from repro.datastore import io as dio
        from repro.datastore.segments import (SegmentedRelation, segment_path,
                                              write_segment)

        manifest: dict[str, dict] = {}
        written = 0
        for name in database.names():
            relation = database[name]
            cached = self._seal_cache.get(name)
            if (cached is not None
                    and cached[0] == relation.mutation_version
                    and all(f"seg-{ref['digest']}.seg" in existing
                            for ref in cached[1]["segments"])):
                manifest[name] = cached[1]
                continue
            refs = []
            if isinstance(relation, SegmentedRelation):
                relation.flush()
                for ref in relation.segment_refs:
                    if ref.filename not in existing:
                        written += self._adopt_segment(
                            segment_path(relation.directory, ref.digest),
                            segment_path(self.segments_dir, ref.digest))
                        existing.add(ref.filename)
                    refs.append(ref.to_dict())
            else:
                for store in dio._relation_stores(relation):
                    ref = write_segment(self.segments_dir,
                                        store.codes, store.counts,
                                        store.pool.values)
                    refs.append(ref.to_dict())
                    if ref.filename not in existing:
                        existing.add(ref.filename)
                        written += ref.nbytes
            entry = {
                "schema": [[c.name, c.type.value]
                           for c in relation.schema.columns],
                "mutation_version": relation.mutation_version,
                "segments": refs,
            }
            manifest[name] = entry
            self._seal_cache[name] = (relation.mutation_version, entry)
        return manifest, written

    @staticmethod
    def _adopt_segment(source: pathlib.Path, target: pathlib.Path) -> int:
        """Hard-link ``source`` into the segments dir (copy across devices:
        the copy is fsynced before its rename, and the rename after it).

        Returns bytes physically written (0 for a link: the data already
        exists; the link shares it).
        """
        try:
            os.link(source, target)
            return 0
        except FileExistsError:
            return 0
        except OSError:
            temp = target.with_name(target.name + f".tmp-{os.getpid()}")
            with open(source, "rb") as stream, open(temp, "wb") as copy:
                shutil.copyfileobj(stream, copy)
                copy.flush()
                os.fsync(copy.fileno())
            os.replace(temp, target)
            fsync_directory(target.parent)
            return target.stat().st_size

    def _write_refs_sidecar(self, lsn: int, digests: set[str]) -> None:
        """Record the segment digests this checkpoint references.

        The sidecar lets :meth:`prune` refcount segments without parsing
        whole checkpoint documents.  Its name doesn't match the checkpoint
        pattern, so it never shows up as a checkpoint itself.
        """
        path = self._refs_path(lsn)
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as stream:
            json.dump({"lsn": lsn, "digests": sorted(digests)}, stream)
        os.replace(temp, path)

    def _refs_path(self, lsn: int) -> pathlib.Path:
        return self.directory / f"checkpoint-{lsn:012d}.refs.json"

    def prune(self) -> list[pathlib.Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals.

        Sidecars of checkpoints that are not retained go too — including
        those a save left behind when it failed before its rename — and so
        do temp files.  Each directory has one writer, so nothing here can
        belong to a save in progress.  Segment files are garbage-collected
        by refcount: one survives as long as *any* retained checkpoint's
        sidecar lists its digest, so every retained checkpoint stays fully
        restorable.
        """
        removed = []
        retained = self.list()
        if self.keep:
            for info in retained[:-self.keep]:
                info.path.unlink(missing_ok=True)
                removed.append(info.path)
            retained = retained[-self.keep:]
        kept = {info.lsn for info in retained}
        for path in self.directory.iterdir():
            match = _LEFTOVER_RE.match(path.name)
            if match and (path.name.endswith(".tmp")
                          or int(match.group(1)) not in kept):
                path.unlink(missing_ok=True)
                removed.append(path)
        removed.extend(self._collect_segments(retained))
        return removed

    def _collect_segments(self, retained: list[CheckpointInfo],
                          ) -> list[pathlib.Path]:
        """Delete segment files no retained checkpoint references."""
        if not self.segments_dir.is_dir():
            return []
        referenced: set[str] = set()
        for info in retained:
            try:
                refs = json.loads(
                    self._refs_path(info.lsn).read_text(encoding="utf-8"))
                referenced.update(refs["digests"])
            except (OSError, ValueError, KeyError, TypeError):
                # a retained checkpoint without a readable sidecar: its
                # references are unknown, so collect nothing
                return []
        removed = []
        for path in self.segments_dir.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match and match.group(1) not in referenced:
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    # --------------------------------------------------------------- loading
    def list(self) -> list[CheckpointInfo]:
        """Checkpoints on disk, oldest first."""
        found = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_RE.match(path.name)
            if match:
                found.append(CheckpointInfo(path, int(match.group(1))))
        return sorted(found, key=lambda info: info.lsn)

    def latest(self) -> CheckpointInfo | None:
        """The newest checkpoint, or ``None`` for a fresh directory."""
        checkpoints = self.list()
        return checkpoints[-1] if checkpoints else None

    def load(self, info: CheckpointInfo | None = None) -> dict:
        """Read and validate a checkpoint payload (default: the latest).

        Array tables come back as :class:`ArrayTable` values read from
        their segments, and a segment-manifest database is rehydrated into
        an inline ``datastore.io`` v3 dict, so consumers see the payload
        shape that was saved.
        """
        if info is None:
            info = self.latest()
            if info is None:
                raise CheckpointError(f"no checkpoint in {self.directory}")
        try:
            with open(info.path, encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"unreadable checkpoint {info.path}: {error}") from None
        version = payload.get("format")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {version!r} in {info.path}; "
                f"this build reads version {CHECKPOINT_FORMAT_VERSION} only")
        if payload.get("lsn") != info.lsn:
            raise CheckpointError(
                f"checkpoint {info.path} claims lsn {payload.get('lsn')!r} "
                f"but its filename says {info.lsn}")
        payload = self._load_tables(payload, info)
        manifest = (payload.get("database") or {}).get("segment_manifest")
        if manifest is not None:
            payload["database"] = self._rehydrate(manifest, info)
        return payload

    def _open_segment(self, digest: str, info: CheckpointInfo):
        from repro.datastore.segments import (SegmentError, open_segment,
                                              segment_path)

        try:
            return open_segment(segment_path(self.segments_dir, digest))
        except SegmentError as error:
            raise CheckpointError(
                f"checkpoint {info.path} references segment {digest} but "
                f"it cannot be read: {error}") from None

    def _load_tables(self, value, info: CheckpointInfo):
        """``value`` with every stored array table read back."""
        if not isinstance(value, dict):
            return value
        if value.keys() == {_TABLE_MARK}:
            return self._read_table(value[_TABLE_MARK], info)
        return {key: self._load_tables(item, info)
                for key, item in value.items()}

    def _read_table(self, stored: dict, info: CheckpointInfo) -> ArrayTable:
        fields = tuple(stored["fields"])
        parts = [np.empty((len(fields), 0), dtype=np.int64)]
        keys: list | None = [] if stored["keyed"] else None
        for digest in stored["segments"]:
            data = self._open_segment(digest, info)
            if data.arity != len(fields):
                raise CheckpointError(
                    f"checkpoint {info.path}: segment {digest} holds "
                    f"{data.arity} fields, expected {len(fields)}")
            parts.append(data.codes)
            if keys is not None:
                keys.extend(data.pool_values)
        codes = np.concatenate(parts, axis=1)
        if codes.shape[1] != stored["rows"] or (
                keys is not None and len(keys) != stored["rows"]):
            raise CheckpointError(
                f"checkpoint {info.path}: array table {fields} has "
                f"{codes.shape[1]} rows and "
                f"{'no' if keys is None else len(keys)} keys, expected "
                f"{stored['rows']}")
        return ArrayTable(fields, codes, keys)

    def _rehydrate(self, manifest: dict, info: CheckpointInfo) -> dict:
        """A segment manifest as a ``datastore.io`` v3 database dict."""
        relations: dict[str, dict] = {}
        for name, entry in manifest.items():
            parts = []
            for ref in entry["segments"]:
                data = self._open_segment(ref["digest"], info)
                parts.append({"pool": data.pool_values,
                              "codes": data.codes,
                              "counts": data.counts})
            relations[name] = {
                "schema": entry["schema"],
                "mutation_version": entry["mutation_version"],
                "parts": parts,
            }
        return {"version": 3, "relations": relations}
