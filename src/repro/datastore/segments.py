"""Disk-backed, content-addressed column segments: the out-of-core substrate.

DeepDive's premise is dark-data corpora much larger than RAM, but until this
module every relation lived in a Python-process ``Counter``.  A *segment* is
an immutable on-disk snapshot of a batch of rows in the columnar layout of
:mod:`repro.datastore.columnar`: an ``(arity, n)`` ``int64`` code matrix, an
``(n,)`` multiplicity vector, and the interning pool that decodes the codes,
all in one file.  Segments are

* **mmap-able** -- the code and count arrays are read back as ``np.memmap``
  views, so opening a segment costs pages touched, not bytes stored;
* **content-addressed** -- the file name embeds a SHA-256 over the payload,
  so identical data seals to the same file (dedup for free) and checkpoints
  can *hard-link* sealed segments instead of re-serializing them
  (:mod:`repro.serve.checkpoint` turns this into O(delta) checkpoints);
* **crash-safe** -- seals write a temp file and ``os.replace`` it into
  place, and a relation's segment list is committed by an atomic
  ``meta.json`` swap, so a crash mid-seal leaves at worst an unreferenced
  file that reopening ignores.

:class:`SegmentedRelation` stacks sealed segments under a small in-memory
tail: inserts land in the tail, and every ``segment_rows`` rows the tail is
sealed to disk, keeping resident memory independent of relation size.  Open
segments are shared through a process-wide :class:`SegmentCache` that drops
mmap references LRU-first once a resident-byte budget is exceeded.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.datastore.relation import Relation, Row
from repro.datastore.schema import Column, Schema
from repro.datastore.types import ColumnType

MAGIC = b"RSEG0001"
META_NAME = "meta.json"
META_VERSION = 1

#: Default resident-byte budget for the process-wide segment cache.
DEFAULT_CACHE_BYTES = 256 << 20


class SegmentError(RuntimeError):
    """Raised for unreadable segments or illegal segmented-relation updates."""


# ------------------------------------------------------------- value codecs
def encode_value(value: Any) -> Any:
    """A pool value as JSON-compatible data (tuples become lists, deeply).

    Scalars round-trip losslessly through JSON: ``1`` stays int, ``1.0``
    stays float, ``True`` stays bool, so only tuple/list structure needs
    translating.
    """
    if isinstance(value, tuple):
        return [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (JSON arrays come back as tuples)."""
    if isinstance(value, list):
        return tuple(decode_value(v) for v in value)
    return value


# ----------------------------------------------------------- segment format
@dataclass(frozen=True)
class SegmentRef:
    """A sealed segment: its content digest and summary statistics."""

    digest: str
    rows: int
    total: int          # sum of multiplicities
    nbytes: int         # file size

    @property
    def filename(self) -> str:
        return f"seg-{self.digest}.seg"

    def to_dict(self) -> dict:
        return {"digest": self.digest, "rows": self.rows,
                "total": self.total, "nbytes": self.nbytes}

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentRef":
        return cls(digest=str(data["digest"]), rows=int(data["rows"]),
                   total=int(data["total"]), nbytes=int(data["nbytes"]))


def segment_path(directory: str | os.PathLike, digest: str) -> pathlib.Path:
    return pathlib.Path(directory) / f"seg-{digest}.seg"


def write_segment(directory: str | os.PathLike, codes: np.ndarray,
                  counts: np.ndarray, pool_values: Sequence[Any],
                  ) -> SegmentRef:
    """Seal ``codes``/``counts``/``pool_values`` as a content-addressed file.

    The digest covers header + payload, so the same logical data always
    lands in the same file; sealing data that is already sealed is a no-op.
    Writes go to a temp file first and are atomically renamed, which is the
    whole crash-safety story: a torn seal can only leave a ``*.tmp`` file
    that no reader ever looks at.
    """
    directory = pathlib.Path(directory)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if codes.ndim != 2 or counts.ndim != 1 or codes.shape[1] != counts.shape[0]:
        raise SegmentError(
            f"segment shape mismatch: codes {codes.shape}, counts {counts.shape}")
    header = json.dumps({
        "arity": int(codes.shape[0]),
        "rows": int(codes.shape[1]),
        "total": int(counts.sum()),
        # json writes a tuple as an array at any depth, as encode_value would
        "pool": list(pool_values),
    }, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    digest.update(header)
    digest.update(codes.tobytes())
    digest.update(counts.tobytes())
    hexdigest = digest.hexdigest()[:40]

    path = segment_path(directory, hexdigest)
    nbytes = (len(MAGIC) + 8 + len(header) + codes.nbytes + counts.nbytes)
    if path.exists():                      # identical content already sealed
        return SegmentRef(hexdigest, codes.shape[1], int(counts.sum()), nbytes)
    directory.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(temp, "wb") as stream:
        stream.write(MAGIC)
        stream.write(struct.pack("<Q", len(header)))
        stream.write(header)
        stream.write(codes.tobytes())
        stream.write(counts.tobytes())
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temp, path)
    if obs.enabled():
        obs.count("datastore.segments.sealed")
        obs.observe("datastore.segments.sealed_bytes", nbytes)
    return SegmentRef(hexdigest, codes.shape[1], int(counts.sum()), nbytes)


class SegmentData:
    """An opened segment: parsed pool plus mmap views of codes and counts."""

    __slots__ = ("path", "arity", "rows", "total", "pool_values", "codes",
                 "counts", "resident_nbytes", "_objects")

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        try:
            with open(path, "rb") as stream:
                magic = stream.read(len(MAGIC))
                if magic != MAGIC:
                    raise SegmentError(f"{path} is not a segment file "
                                       f"(bad magic {magic!r})")
                (header_len,) = struct.unpack("<Q", stream.read(8))
                header = json.loads(stream.read(header_len).decode("utf-8"))
                payload_offset = len(MAGIC) + 8 + header_len
        except (OSError, ValueError, struct.error, json.JSONDecodeError) as error:
            raise SegmentError(f"unreadable segment {path}: {error}") from None
        self.arity = int(header["arity"])
        self.rows = int(header["rows"])
        self.total = int(header["total"])
        self.pool_values = [decode_value(v) for v in header["pool"]]
        codes_bytes = self.arity * self.rows * 8
        expected = payload_offset + codes_bytes + self.rows * 8
        if path.stat().st_size != expected:
            raise SegmentError(
                f"segment {path} is truncated: {path.stat().st_size} bytes, "
                f"expected {expected}")
        if self.rows:
            self.codes = np.memmap(path, dtype=np.int64, mode="r",
                                   offset=payload_offset,
                                   shape=(self.arity, self.rows))
            self.counts = np.memmap(path, dtype=np.int64, mode="r",
                                    offset=payload_offset + codes_bytes,
                                    shape=(self.rows,))
        else:
            self.codes = np.empty((self.arity, 0), dtype=np.int64)
            self.counts = np.empty(0, dtype=np.int64)
        self.resident_nbytes = codes_bytes + self.rows * 8
        self._objects: np.ndarray | None = None

    def object_pool(self) -> np.ndarray:
        """``code -> value`` object array for bulk decodes (built lazily)."""
        if self._objects is None:
            objects = np.empty(len(self.pool_values), dtype=object)
            objects[:] = self.pool_values
            self._objects = objects
        return self._objects

    def counted_rows(self) -> Iterator[tuple[Row, int]]:
        """Stream ``(row, count)`` pairs with one bulk decode pass."""
        if self.rows == 0:
            return
        objects = self.object_pool()
        columns = [objects[np.asarray(self.codes[j])]
                   for j in range(self.arity)]
        yield from zip(zip(*columns), np.asarray(self.counts).tolist())

    def column_store(self, schema: Schema):
        """This segment as a :class:`ColumnStore` over its private pool."""
        from repro.datastore import columnar as C
        pool = C.InternPool()
        for value in self.pool_values:
            pool.code(value)
        return C.ColumnStore(schema, np.asarray(self.codes),
                             np.asarray(self.counts), pool)


def open_segment(path: str | os.PathLike) -> SegmentData:
    """Open and validate one segment file (arrays are mmap'd, not read)."""
    return SegmentData(pathlib.Path(path))


# ------------------------------------------------------------ segment cache
class SegmentCache:
    """Process-wide LRU of open segments, bounded by resident bytes.

    Eviction just drops the :class:`SegmentData` reference; once kernels
    holding views finish, the mmap closes and the OS reclaims the pages.
    This is the "dropped under memory pressure" half of the out-of-core
    contract -- the budget caps how much segment data stays hot.
    """

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.budget_bytes = budget_bytes
        self._entries: OrderedDict[str, SegmentData] = OrderedDict()
        self._resident = 0

    @property
    def resident_bytes(self) -> int:
        return self._resident

    def get(self, path: str | os.PathLike) -> SegmentData:
        key = str(path)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = open_segment(path)
        self._entries[key] = entry
        self._resident += entry.resident_nbytes
        self._evict()
        if obs.enabled():
            obs.count("datastore.segments.opened")
            obs.gauge("datastore.segments.resident_bytes", self._resident)
        return entry

    def drop(self, path: str | os.PathLike) -> None:
        entry = self._entries.pop(str(path), None)
        if entry is not None:
            self._resident -= entry.resident_nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._resident = 0

    def _evict(self) -> None:
        while self._resident > self.budget_bytes and len(self._entries) > 1:
            _, entry = self._entries.popitem(last=False)
            self._resident -= entry.resident_nbytes
            if obs.enabled():
                obs.count("datastore.segments.evicted")
                obs.gauge("datastore.segments.resident_bytes", self._resident)


_GLOBAL_CACHE = SegmentCache()


def segment_cache() -> SegmentCache:
    """The process-wide segment cache."""
    return _GLOBAL_CACHE


# ------------------------------------------------------- segmented relation
class SegmentedRelation(Relation):
    """An append-mostly relation whose frozen prefix lives on disk.

    Inserts accumulate in the in-memory tail (a plain relation ``Counter``);
    whenever the tail reaches ``segment_rows`` distinct rows it is *sealed*:
    encoded against a fresh per-segment interning pool, written as a
    content-addressed segment file, and dropped from memory.  Reads stream
    segments through the shared :class:`SegmentCache`, so resident memory is
    bounded by (tail + cache budget) regardless of relation size.

    Contract differences from the in-memory base class:

    * sealed rows are immutable -- :meth:`delete` of a sealed row and
      :meth:`clear` raise :class:`SegmentError`;
    * :attr:`distinct_count` is exact per segment but an upper bound across
      segments (a row re-inserted after a seal counts once per segment);
      multiplicities remain exact, so bag-semantics query results are
      unaffected;
    * lookups scan (no persistent hash indexes over mmap'd data).

    Durability: each seal commits the updated segment list with an atomic
    ``meta.json`` replace.  :meth:`flush` seals the current tail so
    everything inserted so far is on disk; :meth:`open` reopens a directory,
    ignoring any partial or unreferenced segment files a crash left behind.
    """

    def __init__(self, name: str, schema: Schema,
                 directory: str | os.PathLike, segment_rows: int = 8192,
                 cache: SegmentCache | None = None) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be at least 1")
        super().__init__(name, schema)
        self.directory = pathlib.Path(directory)
        self.segment_rows = segment_rows
        self.cache = cache if cache is not None else _GLOBAL_CACHE
        self._refs: list[SegmentRef] = []
        self._sealed_total = 0
        self._sealed_distinct = 0
        self._readonly = False
        self.directory.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- open/meta
    @classmethod
    def open(cls, directory: str | os.PathLike, name: str | None = None,
             segment_rows: int = 8192,
             cache: SegmentCache | None = None) -> "SegmentedRelation":
        """Reopen a segmented relation from its directory.

        Only segments referenced by ``meta.json`` are adopted: a segment
        sealed by a crashed process that never committed its meta update is
        simply ignored, as are ``*.tmp`` leftovers from torn seals.
        """
        directory = pathlib.Path(directory)
        meta_path = directory / META_NAME
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise SegmentError(
                f"unreadable segmented-relation meta {meta_path}: {error}"
            ) from None
        if meta.get("version") != META_VERSION:
            raise SegmentError(
                f"unsupported segmented-relation meta version "
                f"{meta.get('version')!r} in {meta_path}")
        schema = Schema(tuple(Column(column, ColumnType(type_name))
                              for column, type_name in meta["schema"]))
        relation = cls(name or meta["name"], schema, directory,
                       segment_rows=segment_rows, cache=cache)
        for item in meta["segments"]:
            ref = SegmentRef.from_dict(item)
            path = segment_path(directory, ref.digest)
            if not path.exists():
                raise SegmentError(
                    f"segment {ref.filename} referenced by {meta_path} "
                    f"is missing")
            relation._refs.append(ref)
            relation._sealed_total += ref.total
            relation._sealed_distinct += ref.rows
        relation._version = int(meta.get("mutation_version", 0))
        return relation

    def _write_meta(self) -> None:
        meta = {
            "version": META_VERSION,
            "name": self.name,
            "schema": [[c.name, c.type.value] for c in self.schema.columns],
            "segments": [ref.to_dict() for ref in self._refs],
            "mutation_version": self._version,
        }
        temp = self.directory / (META_NAME + f".tmp-{os.getpid()}")
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(meta))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, self.directory / META_NAME)

    # ---------------------------------------------------------------- sealing
    def _check_writable(self) -> None:
        if self._readonly:
            raise SegmentError(
                f"segmented relation {self.name!r} is a read-only snapshot")

    def _maybe_seal(self) -> None:
        full = len(self._counts) - len(self._counts) % self.segment_rows
        if full:
            self._seal(full)

    def flush(self) -> list[SegmentRef]:
        """Seal the in-memory tail (if any) so all rows are on disk."""
        self._check_writable()
        if self._counts:
            self._seal(len(self._counts))
        elif not (self.directory / META_NAME).exists():
            self._write_meta()
        return list(self._refs)

    def _seal(self, upto: int) -> None:
        """Seal the first ``upto`` rows of the tail (insertion order) as
        segments of at most ``segment_rows`` rows, then commit the manifest
        once.

        A crash before the commit leaves segment files ``meta.json`` does not
        reference, which :meth:`open` ignores -- the same outcome as a crash
        before the first of them was written.
        """
        from repro.datastore import columnar as C
        items = list(self._counts.items())
        sealed = 0
        try:
            while sealed < upto:
                stop = min(sealed + self.segment_rows, upto)
                store = C.ColumnStore.from_counted_rows(
                    self.schema, items[sealed:stop], C.InternPool())
                ref = write_segment(self.directory, store.codes, store.counts,
                                    store.pool.values)
                self._refs.append(ref)
                self._sealed_total += ref.total
                self._sealed_distinct += ref.rows
                sealed = stop
        finally:
            # whatever was sealed leaves the tail, even if a later write failed
            if sealed:
                tail = items[sealed:]
                self._counts = Counter(dict(tail))
                self._total = sum(count for _, count in tail)
                self._columnar = None
        self._write_meta()

    # ------------------------------------------------------------- accessors
    @property
    def segment_refs(self) -> list[SegmentRef]:
        return list(self._refs)

    def segment_paths(self) -> list[pathlib.Path]:
        return [segment_path(self.directory, ref.digest) for ref in self._refs]

    def iter_stores(self) -> Iterator:
        """Stream this relation as per-segment :class:`ColumnStore` chunks.

        Each chunk carries its own pool; the in-memory tail (if any) comes
        last.  This is the bounded-memory scan interface for out-of-core
        consumers: at most one chunk is decoded at a time.
        """
        for ref in self._refs:
            data = self.cache.get(segment_path(self.directory, ref.digest))
            yield data.column_store(self.schema)
        if self._counts:
            from repro.datastore import columnar as C
            yield C.ColumnStore.from_counted_rows(
                self.schema, self._counts.items(), C.InternPool())

    # ----------------------------------------------------------------- reads
    def __len__(self) -> int:
        return self._sealed_total + self._total

    @property
    def distinct_count(self) -> int:
        return self._sealed_distinct + len(self._counts)

    def counted_rows(self) -> Iterator[tuple[Row, int]]:
        for ref in self._refs:
            data = self.cache.get(segment_path(self.directory, ref.digest))
            yield from data.counted_rows()
        yield from self._counts.items()

    def distinct_rows(self) -> Iterator[Row]:
        for row, _ in self.counted_rows():
            yield row

    def __iter__(self) -> Iterator[Row]:
        for row, count in self.counted_rows():
            for _ in range(count):
                yield row

    def count(self, row: Sequence[Any]) -> int:
        stored = self.schema.validate_row(row)
        total = self._counts.get(stored, 0)
        for ref in self._refs:
            data = self.cache.get(segment_path(self.directory, ref.digest))
            for candidate, count in data.counted_rows():
                if candidate == stored:
                    total += count
        return total

    def __contains__(self, row: Sequence[Any]) -> bool:
        return self.count(row) > 0

    def counts_copy(self) -> Counter[Row]:
        out: Counter[Row] = Counter()
        for row, count in self.counted_rows():
            out[row] += count
        return out

    def _index_for(self, columns: Sequence[str]) -> dict:
        """Build a throwaway index by scanning (never cached: seals would
        silently invalidate it, and caching would defeat out-of-core)."""
        positions = tuple(self.schema.position(c) for c in columns)
        index: dict[tuple[Any, ...], Counter[Row]] = {}
        for row, count in self.counted_rows():
            key = tuple(row[i] for i in positions)
            index.setdefault(key, Counter())[row] += count
        return index

    # --------------------------------------------------------------- updates
    def insert(self, row: Sequence[Any], count: int = 1) -> Row:
        self._check_writable()
        stored = super().insert(row, count)
        self._maybe_seal()
        return stored

    def insert_many(self, rows: Iterable[Sequence[Any]],
                    validate: bool = True) -> int:
        self._check_writable()
        inserted = super().insert_many(rows, validate=validate)
        self._maybe_seal()
        return inserted

    def insert_counted(self, counted: Iterable[tuple[Row, int]],
                       validate: bool = True) -> int:
        self._check_writable()
        added = super().insert_counted(counted, validate=validate)
        self._maybe_seal()
        return added

    def delete(self, row: Sequence[Any], count: int = 1) -> int:
        self._check_writable()
        stored = self.schema.validate_row(row)
        if stored in self._counts:
            return super().delete(row, count)
        if self._refs and self.count(stored) > 0:
            raise SegmentError(
                f"cannot delete {stored!r} from {self.name!r}: the row is "
                f"sealed in an immutable segment")
        return 0

    def clear(self) -> None:
        raise SegmentError(
            f"segmented relation {self.name!r} cannot be cleared: sealed "
            f"segments are immutable")

    def copy(self, name: str | None = None) -> "SegmentedRelation":
        """A read-only snapshot sharing the (immutable) sealed segments."""
        clone = SegmentedRelation.__new__(SegmentedRelation)
        Relation.__init__(clone, name or self.name, self.schema)
        clone.directory = self.directory
        clone.segment_rows = self.segment_rows
        clone.cache = self.cache
        clone._refs = list(self._refs)
        clone._sealed_total = self._sealed_total
        clone._sealed_distinct = self._sealed_distinct
        clone._readonly = True
        clone._counts = Counter(self._counts)
        clone._total = self._total
        return clone
