"""Append-only write-ahead log of committed ingest batches.

Durability contract: a batch is *committed* the moment its record is fully
appended (and optionally fsynced) — the apply loop writes the WAL record
**before** touching any in-memory state, so a crash at any later point
replays the batch on recovery and lands on the same state.  A crash *during*
the append leaves a torn final line, which opening the log recognises,
discards with a warning, and **physically truncates back to the last fully
committed record** — the next append must start on a clean line boundary,
never concatenate onto the torn bytes.  The torn batch was never
acknowledged, so dropping it is correct.

Format: JSON lines.  Line 1 is a header ``{"repro_wal": 1}``; after a
:meth:`WriteAheadLog.compact` it also carries ``"base_lsn": n``, meaning
records ``1..n`` are covered by a checkpoint and were removed from this
file.  Every other line is ``{"lsn": n, "batch": [op records...]}`` with
strictly increasing log sequence numbers starting at ``base_lsn + 1``.  Op
records are the exact codec of :mod:`repro.serve.ops`.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings
from dataclasses import dataclass
from typing import Iterable

from repro.serve.ops import IngestOp, op_from_record

WAL_FORMAT_VERSION = 1


class WalError(ValueError):
    """Raised when the log is structurally corrupt (not merely truncated)."""


@dataclass(frozen=True)
class WalRecord:
    """One committed batch: its sequence number and decoded operations."""

    lsn: int
    batch: tuple[IngestOp, ...]


@dataclass(frozen=True)
class _Scan:
    """One full parse of the log file.

    ``good_end`` is the byte offset just past the last fully committed
    line; anything beyond it (a torn append) is safe to truncate away.
    """

    base_lsn: int
    records: tuple[WalRecord, ...]
    good_end: int
    size: int


class WriteAheadLog:
    """Appender/reader for one service directory's ``ingest.wal``.

    A single writer (the apply loop) appends; any number of recovery-time
    readers replay.  The file handle is kept open in append mode so each
    commit is one write + flush (+ fsync when configured).  Opening an
    existing log repairs a torn tail in place (see the module docstring),
    and :meth:`compact` keeps the file bounded to the records a checkpoint
    does not already cover.
    """

    def __init__(self, path: str | os.PathLike, fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self._base_lsn = 0
        self._next_lsn = 1
        if self.path.exists():
            scan = self._scan()
            self._base_lsn = scan.base_lsn
            last = scan.records[-1].lsn if scan.records else scan.base_lsn
            self._next_lsn = last + 1
            if scan.good_end < scan.size:
                # torn tail: cut the file back to the last committed line
                # so the next append cannot merge with the torn bytes
                with open(self.path, "rb+") as stream:
                    stream.truncate(scan.good_end)
                    if self.fsync:
                        os.fsync(stream.fileno())
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as stream:
                stream.write(_header_line(0))
        self._stream = open(self.path, "a", encoding="utf-8")

    # --------------------------------------------------------------- parsing
    def _scan(self) -> _Scan:
        """Parse the whole file, tracking byte offsets of intact lines.

        A torn (crash-interrupted) final record — undecodable, or missing
        its newline — is excluded from ``good_end`` and warned about;
        corruption anywhere *before* the final record raises
        :class:`WalError`, since that indicates real damage, not a torn
        append.
        """
        with open(self.path, "rb") as stream:
            data = stream.read()
        segments = data.split(b"\n")
        torn = segments.pop()               # non-empty iff no final newline
        if not segments:
            raise WalError(f"{self.path} has no complete header line")
        try:
            header = json.loads(segments[0].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise WalError(f"{self.path} header is not JSON: {error}") \
                from None
        if not isinstance(header, dict) \
                or header.get("repro_wal") != WAL_FORMAT_VERSION:
            version = header.get("repro_wal") if isinstance(header, dict) \
                else header
            raise WalError(
                f"unsupported WAL format {version!r} in {self.path}; "
                f"this build reads version {WAL_FORMAT_VERSION}")
        base_lsn = int(header.get("base_lsn", 0))
        records: list[WalRecord] = []
        previous_lsn = base_lsn
        good_end = len(segments[0]) + 1
        for index, segment in enumerate(segments[1:]):
            line_number = index + 2
            end = good_end + len(segment) + 1
            if not segment.strip():
                good_end = end
                continue
            try:
                raw = json.loads(segment.decode("utf-8"))
                record = WalRecord(
                    lsn=int(raw["lsn"]),
                    batch=tuple(op_from_record(op) for op in raw["batch"]))
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    TypeError, ValueError):
                if index == len(segments) - 2 and not torn.strip():
                    warnings.warn(
                        f"discarding truncated tail record at "
                        f"{self.path}:{line_number} (crash during append; "
                        f"the batch was never committed)")
                    return _Scan(base_lsn, tuple(records), good_end,
                                 len(data))
                raise WalError(f"corrupt WAL record at "
                               f"{self.path}:{line_number}") from None
            if record.lsn != previous_lsn + 1:
                raise WalError(
                    f"non-contiguous LSN {record.lsn} after {previous_lsn} "
                    f"at {self.path}:{line_number}")
            previous_lsn = record.lsn
            records.append(record)
            good_end = end
        if torn.strip():
            warnings.warn(
                f"discarding truncated tail record at "
                f"{self.path}:{len(segments) + 1} (crash during append; "
                f"the batch was never committed)")
        return _Scan(base_lsn, tuple(records), good_end, len(data))

    # --------------------------------------------------------------- writing
    def append(self, batch: Iterable[IngestOp]) -> int:
        """Durably append one batch; returns its LSN.

        The record only counts as committed once fully on disk — callers
        must append before mutating any state the batch affects.
        """
        lsn = self._next_lsn
        record = {"lsn": lsn, "batch": [op.to_record() for op in batch]}
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        if self.fsync:
            os.fsync(self._stream.fileno())
        self._next_lsn = lsn + 1
        return lsn

    def compact(self, upto_lsn: int | None = None) -> int:
        """Drop records with ``lsn <= upto_lsn`` (default: all of them).

        Called after a successful checkpoint covering ``upto_lsn``: those
        records will never be replayed again, so the log is atomically
        rewritten to hold only the tail beyond them, with ``base_lsn``
        stamped in the header to keep LSN continuity.  This bounds open
        and recovery cost by the WAL *tail*, not total ingest history.
        The rewrite is fsynced, its rename too (a directory fsync); the
        checkpoint it follows was made durable the same way before, so a
        power loss can never keep the compacted log without it.  Returns
        the number of records dropped.

        Note: replaying an *older* retained checkpoint forward is no
        longer possible once the records it is missing are compacted away;
        recovery always uses the newest checkpoint.
        """
        if upto_lsn is None:
            upto_lsn = self.last_lsn
        upto_lsn = min(upto_lsn, self.last_lsn)
        if upto_lsn <= self._base_lsn:
            return 0
        scan = self._scan()
        keep = [r for r in scan.records if r.lsn > upto_lsn]
        temp = self.path.with_name(self.path.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(_header_line(upto_lsn))
            for record in keep:
                stream.write(json.dumps(
                    {"lsn": record.lsn,
                     "batch": [op.to_record() for op in record.batch]})
                    + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        if not self._stream.closed:
            self._stream.close()
        os.replace(temp, self.path)
        fsync_directory(self.path.parent)
        self._base_lsn = upto_lsn
        self._stream = open(self.path, "a", encoding="utf-8")
        return len(scan.records) - len(keep)

    @property
    def base_lsn(self) -> int:
        """Records at or below this LSN were compacted into a checkpoint."""
        return self._base_lsn

    @property
    def last_lsn(self) -> int:
        """The most recently committed LSN (0 if the log is empty)."""
        return self._next_lsn - 1

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    # --------------------------------------------------------------- reading
    def replay(self, after_lsn: int = 0) -> list[WalRecord]:
        """Decode every committed record with ``lsn > after_lsn``, in order.

        A truncated (crash-interrupted) final line is discarded with a
        warning; corruption anywhere *before* the final line raises
        :class:`WalError` — that indicates real damage, not a torn append.
        """
        scan = self._scan()
        return [record for record in scan.records if record.lsn > after_lsn]

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fsync_directory(directory: str | os.PathLike) -> None:
    """Make the entries renamed into ``directory`` durable (``os.replace``
    alone survives a process crash, not a power loss)."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _header_line(base_lsn: int) -> str:
    header: dict = {"repro_wal": WAL_FORMAT_VERSION}
    if base_lsn:
        header["base_lsn"] = base_lsn
    return json.dumps(header) + "\n"
