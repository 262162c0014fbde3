"""Checkpoints: periodic durable images of the whole serving state.

A checkpoint bounds recovery time (replay = WAL tail only, not the full
history) and is the only way learned weights survive a restart — the
factor-graph payload embeds them, while re-grounding alone would reset every
weight to its initial value.

One checkpoint file carries, as a single JSON document:

* the datastore — either inline (``datastore.io`` dump, mutation counters
  included) or, the default, a *segment manifest* referencing
  content-addressed segment files in the manager's ``segments/`` directory;
* the factor graph (``factorgraph.serialize`` v2, id-exact);
* the grounder's bookkeeping (:meth:`Grounder.state_dict`);
* the inference state (chain world + marginals, mean-field parameters);
* the publish cursor (``lsn``, snapshot version, threshold).

The segment manifest is what makes checkpoints O(delta): relation data is
sealed once into immutable segment files (hard-linked straight from a
:class:`~repro.datastore.segments.SegmentedRelation`'s own directory when
the filesystem allows), and a relation whose mutation version hasn't moved
since the last save is re-referenced without re-encoding a single row.
Retention prunes segment files by *refcount*: a segment is deleted only
when no retained checkpoint's manifest references its content hash.

Writes are atomic (temp file + ``os.replace``) so a crash mid-checkpoint
leaves the previous checkpoint intact; loads verify a format version and
refuse anything unknown rather than guessing.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
from dataclasses import dataclass

from repro import obs

#: The one checkpoint format this build writes and reads: the database is a
#: segment manifest (or, for callers that pass no ``database=``, an inline
#: ``datastore.io`` dump).  ``format: 1`` documents are refused.
CHECKPOINT_FORMAT_VERSION = 2

SEGMENTS_DIRNAME = "segments"

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})\.json$")
_SEGMENT_RE = re.compile(r"^seg-([0-9a-f]{40})\.seg$")


class CheckpointError(ValueError):
    """Raised for unreadable or unsupported checkpoint payloads."""


@dataclass(frozen=True)
class CheckpointInfo:
    """A checkpoint on disk: its path and the LSN it covers."""

    path: pathlib.Path
    lsn: int


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
        """Atomically persist ``payload`` as the checkpoint covering ``lsn``.

        With ``database`` (a :class:`~repro.datastore.database.Database`),
        relation data is sealed into content-addressed segment files and the
        checkpoint stores only a manifest of references — the payload must
        then omit its inline ``"database"`` entry (see
        ``ServeEngine.checkpoint_payload(inline_database=False)``).

        The payload is stamped with the format version; older checkpoints
        beyond the retention count are pruned afterwards (never before — a
        failed save must not eat the previous checkpoint).
        """
        document = dict(payload)
        document["format"] = CHECKPOINT_FORMAT_VERSION
        document["lsn"] = lsn
        written = 0
        if database is not None:
            if "database" in document:
                raise ValueError(
                    "payload already carries an inline database; build it "
                    "with inline_database=False when sealing segments")
            manifest, written = self._seal_database(database)
            document["database"] = {"segment_manifest": manifest}
        elif "database" not in document:
            raise ValueError("checkpoint payload has no database: pass "
                             "database= or include an inline dump")
        path = self.directory / f"checkpoint-{lsn:012d}.json"
        temp = path.with_suffix(".json.tmp")
        if database is not None:
            self._write_refs_sidecar(lsn, document["database"]
                                     ["segment_manifest"])
        with open(temp, "w", encoding="utf-8") as stream:
            json.dump(document, stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, path)
        written += path.stat().st_size
        self.last_save_bytes = written
        if obs.enabled():
            obs.observe("serve.checkpoint.bytes_written", written)
        self.prune()
        return CheckpointInfo(path, lsn)

    def _seal_database(self, database) -> tuple[dict, int]:
        """Seal every relation to segment files; return (manifest, bytes).

        Segments already on disk — whether from a previous checkpoint
        (content-address collision), the seal cache, or a hard-linkable
        :class:`SegmentedRelation` directory — cost nothing to reference.
        """
        from repro.datastore import io as dio
        from repro.datastore.segments import (SegmentedRelation, segment_path,
                                              write_segment)

        self.segments_dir.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, dict] = {}
        written = 0
        for name in database.names():
            relation = database[name]
            cached = self._seal_cache.get(name)
            if (cached is not None
                    and cached[0] == relation.mutation_version
                    and all(segment_path(self.segments_dir,
                                         ref["digest"]).exists()
                            for ref in cached[1]["segments"])):
                manifest[name] = cached[1]
                continue
            refs = []
            if isinstance(relation, SegmentedRelation):
                relation.flush()
                for ref in relation.segment_refs:
                    target = segment_path(self.segments_dir, ref.digest)
                    if not target.exists():
                        written += self._adopt_segment(
                            segment_path(relation.directory, ref.digest),
                            target)
                    refs.append(ref.to_dict())
            else:
                existing = {path.name for path in self.segments_dir.iterdir()}
                for store in dio._relation_stores(relation):
                    ref = write_segment(self.segments_dir,
                                        store.codes, store.counts,
                                        store.pool.values)
                    refs.append(ref.to_dict())
                    if ref.filename not in existing:
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
        """Hard-link ``source`` into the segments dir (copy across devices).

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
            shutil.copyfile(source, temp)
            os.replace(temp, target)
            return target.stat().st_size

    def _write_refs_sidecar(self, lsn: int, manifest: dict) -> None:
        """Record the segment digests this checkpoint references.

        The sidecar lets :meth:`prune` refcount segments without parsing
        whole checkpoint documents.  Its name doesn't match the checkpoint
        pattern, so it never shows up as a checkpoint itself.
        """
        digests = sorted({ref["digest"] for entry in manifest.values()
                          for ref in entry["segments"]})
        path = self._refs_path(lsn)
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as stream:
            json.dump({"lsn": lsn, "digests": digests}, stream)
        os.replace(temp, path)

    def _refs_path(self, lsn: int) -> pathlib.Path:
        return self.directory / f"checkpoint-{lsn:012d}.refs.json"

    def prune(self) -> list[pathlib.Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals.

        Segment files are garbage-collected by refcount: one survives as
        long as *any* retained checkpoint's manifest references its digest,
        so every retained checkpoint stays fully restorable.
        """
        removed = []
        retained = self.list()
        if self.keep:
            for info in retained[:-self.keep]:
                info.path.unlink(missing_ok=True)
                self._refs_path(info.lsn).unlink(missing_ok=True)
                removed.append(info.path)
            retained = retained[-self.keep:]
        removed.extend(self._collect_segments(retained))
        return removed

    def _collect_segments(self, retained: list[CheckpointInfo],
                          ) -> list[pathlib.Path]:
        """Delete segment files no retained checkpoint references."""
        if not self.segments_dir.is_dir():
            return []
        referenced: set[str] = set()
        for info in retained:
            refs_path = self._refs_path(info.lsn)
            try:
                refs = json.loads(refs_path.read_text(encoding="utf-8"))
                referenced.update(refs["digests"])
                continue
            except (OSError, json.JSONDecodeError, KeyError):
                pass
            # no sidecar (or unreadable): fall back to the document itself;
            # an inline-database checkpoint references no segments
            try:
                payload = json.loads(info.path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # unreadable checkpoint: be conservative, GC nothing
                return []
            manifest = (payload.get("database") or {}).get("segment_manifest")
            for entry in (manifest or {}).values():
                referenced.update(ref["digest"] for ref in entry["segments"])
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

        Manifest-style databases are rehydrated here into an inline
        ``datastore.io`` v3 dict (codes loaded in bulk from the referenced
        segment files), so consumers see one payload shape either way.
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
        manifest = (payload.get("database") or {}).get("segment_manifest")
        if manifest is not None:
            payload["database"] = self._rehydrate(manifest, info)
        return payload

    def load_database(self, info: CheckpointInfo | None = None):
        """The datastore of a checkpoint as a live ``Database``.

        A read-only convenience for tools that want the relations without
        replaying the engine (shard rebalance reads each shard's ingested
        rows this way); defaults to the latest checkpoint.
        """
        from repro.datastore.io import database_from_dict

        payload = self.load(info)
        return database_from_dict(payload["database"])

    def _rehydrate(self, manifest: dict, info: CheckpointInfo) -> dict:
        """A segment manifest as a ``datastore.io`` v3 database dict."""
        from repro.datastore.segments import (SegmentError, segment_path,
                                              open_segment)

        relations: dict[str, dict] = {}
        for name, entry in manifest.items():
            parts = []
            for ref in entry["segments"]:
                path = segment_path(self.segments_dir, ref["digest"])
                try:
                    data = open_segment(path)
                except SegmentError as error:
                    raise CheckpointError(
                        f"checkpoint {info.path} references segment "
                        f"{ref['digest']} but it cannot be read: {error}"
                    ) from None
                parts.append({"pool": data.pool_values,
                              "codes": data.codes,
                              "counts": data.counts})
            relations[name] = {
                "schema": entry["schema"],
                "mutation_version": entry["mutation_version"],
                "parts": parts,
            }
        return {"version": 3, "relations": relations}
