"""The long-lived KBC service: one writer, many readers, durable commits.

:class:`KBService` wraps a :class:`~repro.serve.engine.ServeEngine` with the
three things a service needs that a batch pipeline doesn't:

* **a single-writer apply loop** (daemon thread) that drains a *bounded*
  ingest queue, coalesces operations into batches, and commits each batch
  as WAL-append → apply → publish.  The WAL append comes first, so any
  crash after it replays the batch on recovery;
* **versioned concurrent reads**: every commit publishes an immutable
  :class:`~repro.serve.snapshot.Snapshot`; readers grab the current
  reference (one atomic load) and query it without ever blocking on — or
  observing — an ingest in flight;
* **admission control**: the queue has a fixed capacity and either blocks
  producers (backpressure) or rejects with :class:`IngestRejected`.

Durability is checkpoint + WAL: a checkpoint is taken at bootstrap, every
``checkpoint_every`` batches, and on request; each successful checkpoint
compacts the WAL down to its uncovered tail, so recovery and reopen cost is
bounded by the tail, not total ingest history.  Periodic checkpoints run
*after* the triggering batch's waiters are released — the batch is already
committed, so a checkpoint failure is warned about and retried, never
reported as a batch failure.  Recovery (:meth:`KBService.open`) loads the
newest checkpoint and replays the WAL tail through the same deterministic
engine code path, reproducing the crashed service's marginals bit for bit.

Fault injection for crash testing: set ``service.fault_hooks["after_wal_append"]``
to a callable; it runs inside the commit path right after the WAL append and
before any state mutation.  Raising from it simulates a crash at the
worst moment — the batch is durable but unapplied.
"""

from __future__ import annotations

import collections
import pathlib
import queue
import threading
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro import obs
from repro.serve.checkpoint import CheckpointInfo, CheckpointManager
from repro.serve.config import ServeConfig
from repro.serve.engine import AppFactory, ServeEngine
from repro.serve.ops import IngestOp
from repro.serve.snapshot import Snapshot
from repro.serve.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compliance.manifest import ComplianceManifest
    from repro.compliance.policy import CompliancePolicy


class IngestRejected(RuntimeError):
    """Raised when admission control refuses an operation."""


class ServiceFailed(RuntimeError):
    """Raised when the apply loop has died; wraps the original error."""


@dataclass
class _Command:
    """One queue item: a data batch, a checkpoint, or a compliance scan."""

    kind: str                                   # "batch" | "checkpoint" | "scan"
    batch: tuple[IngestOp, ...] = ()
    payload: object = None                      # e.g. a scan's policy
    done: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: BaseException | None = None
    #: False opts this command out of coalescing entirely (it neither
    #: absorbs later commands nor folds into an earlier one).  The sharded
    #: router relies on this: folding two routed batches into one shard
    #: commit would make a later group's ops visible in an earlier group's
    #: snapshot — a torn multi-shard read.
    coalesce: bool = True

    def wait(self, timeout: float | None = None) -> object:
        if not self.done.wait(timeout):
            raise TimeoutError(f"{self.kind} not applied within {timeout}s")
        if self.error is not None:
            raise ServiceFailed(f"apply loop failed: {self.error}") \
                from self.error
        return self.result


class PendingCommit:
    """Handle for a batch submitted with ``wait=False``.

    The sharded router's reaper (and any asynchronous producer) holds one
    of these per shard touched by a batch: :meth:`wait` blocks until the
    shard's apply loop commits (or fails) the batch and returns the
    snapshot that includes it.
    """

    __slots__ = ("_command",)

    def __init__(self, command: _Command) -> None:
        self._command = command

    def wait(self, timeout: float | None = None) -> Snapshot:
        """Block until committed; the snapshot including this batch."""
        return self._command.wait(timeout)

    @property
    def done(self) -> bool:
        """True once the batch has been committed or failed."""
        return self._command.done.is_set()

    @property
    def error(self) -> BaseException | None:
        return self._command.error


class KBService:
    """A DeepDive application served online.  See the module docstring."""

    def __init__(self, engine: ServeEngine, directory: str | pathlib.Path,
                 wal: WriteAheadLog, checkpoints: CheckpointManager,
                 snapshot: Snapshot, batches_since_checkpoint: int = 0,
                 history: Sequence[Snapshot] = ()) -> None:
        self.engine = engine
        self.config = engine.config
        self.directory = pathlib.Path(directory)
        self.wal = wal
        self.checkpoints = checkpoints
        self._snapshot = snapshot
        # recently published snapshots, newest last, for snapshot_at();
        # guarded by a lock because publishes (apply loop) and versioned
        # reads (reader threads) would otherwise race the deque iteration
        self._history_lock = threading.Lock()
        self._history: collections.deque[Snapshot] = collections.deque(
            maxlen=max(1, self.config.snapshot_history))
        for past in history:
            self._history.append(past)
        if not self._history or self._history[-1] is not snapshot:
            self._history.append(snapshot)
        self._facade = None                      # lazy KBClient, reads only
        self._queue: queue.Queue[_Command] = queue.Queue(
            maxsize=self.config.queue_capacity)
        # commands pulled during coalescing that must run before new ones
        self._requeue: collections.deque[_Command] = collections.deque()
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None
        self._closed = False
        # stop is signalled out-of-band (the loop polls this), never through
        # the bounded queue — a full queue cannot wedge shutdown
        self._stop_event = threading.Event()
        self._batches_since_checkpoint = batches_since_checkpoint
        #: test/chaos hooks run inside the commit path; see module docstring
        self.fault_hooks: dict[str, Callable] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def create(cls, directory: str | pathlib.Path, app_factory: AppFactory,
               bootstrap_ops: Sequence[IngestOp],
               config: ServeConfig | None = None,
               run_kwargs: dict | None = None,
               start: bool = True) -> "KBService":
        """Bootstrap a brand-new service in ``directory``.

        Loads the initial corpus/KB, runs full learning + inference,
        publishes version 0, and writes the bootstrap checkpoint before
        accepting any ingest — so recovery never needs to redo bootstrap.
        """
        directory = pathlib.Path(directory)
        config = config if config is not None else ServeConfig()
        engine = ServeEngine(app_factory, config=config, run_kwargs=run_kwargs)
        snapshot = engine.bootstrap(list(bootstrap_ops))
        wal = WriteAheadLog(directory / "ingest.wal", fsync=config.wal_fsync)
        checkpoints = CheckpointManager(directory / "checkpoints",
                                        keep=config.keep_checkpoints)
        checkpoints.save(engine.checkpoint_payload(),
                         lsn=wal.last_lsn, database=engine.app.db)
        service = cls(engine, directory, wal, checkpoints, snapshot)
        if start:
            service.start()
        return service

    @classmethod
    def open(cls, directory: str | pathlib.Path, app_factory: AppFactory,
             config: ServeConfig | None = None,
             run_kwargs: dict | None = None,
             start: bool = True) -> "KBService":
        """Recover a service from ``directory``: newest checkpoint + WAL tail.

        Replayed batches run through the same deterministic engine path the
        original commits used, so the recovered marginals are bit-identical
        to what the crashed service had (or would have) published.
        """
        directory = pathlib.Path(directory)
        config = config if config is not None else ServeConfig()
        checkpoints = CheckpointManager(directory / "checkpoints",
                                        keep=config.keep_checkpoints)
        payload = checkpoints.load()
        engine = ServeEngine.restore(payload, app_factory, config=config,
                                     run_kwargs=run_kwargs)
        wal = WriteAheadLog(directory / "ingest.wal", fsync=config.wal_fsync)
        checkpoint_lsn = int(payload["lsn"])
        snapshot = engine.current_snapshot(lsn=checkpoint_lsn)
        history = [snapshot]
        replayed = 0
        with obs.span("serve.recovery", checkpoint_lsn=checkpoint_lsn) as sp:
            for record in wal.replay(after_lsn=checkpoint_lsn):
                snapshot = engine.apply_batch(list(record.batch), record.lsn)
                history.append(snapshot)
                replayed += 1
            sp.set(replayed=replayed)
        service = cls(engine, directory, wal, checkpoints, snapshot,
                      batches_since_checkpoint=replayed, history=history)
        if start:
            service.start()
        return service

    # ---------------------------------------------------------------- ingest
    def submit(self, op: IngestOp,
               timeout: float | None = None) -> PendingCommit:
        """Queue one operation (coalesced into a batch by the apply loop).

        Applies the configured admission policy when the queue is full:
        ``"block"`` waits (up to ``timeout``), ``"reject"`` raises
        immediately.  Returns a :class:`PendingCommit` handle for callers
        that want to await (or inspect) the commit.
        """
        command = _Command("batch", (op,))
        self._enqueue(command, timeout)
        return PendingCommit(command)

    def ingest(self, ops: Iterable[IngestOp], wait: bool = True,
               timeout: float | None = None,
               coalesce: bool = True) -> Snapshot | PendingCommit:
        """Queue ``ops`` as one explicit batch (one WAL record, one commit).

        With ``wait=True`` blocks until the batch is applied and returns the
        snapshot that includes it; otherwise returns a
        :class:`PendingCommit` immediately (the sharded router fans a batch
        out this way and awaits the per-shard handles).  ``coalesce=False``
        keeps this batch out of the apply loop's command folding in both
        directions — the router needs each routed batch to commit exactly
        as submitted so its group snapshots are never torn.
        """
        command = _Command("batch", tuple(ops), coalesce=coalesce)
        self._enqueue(command, timeout)
        if wait:
            return command.wait(timeout)
        return PendingCommit(command)

    def _enqueue(self, command: _Command, timeout: float | None) -> None:
        self._check_alive()
        try:
            if self.config.admission == "reject":
                self._queue.put_nowait(command)
            else:
                self._queue.put(command, timeout=timeout)
        except queue.Full:
            if obs.enabled():
                obs.count("serve.ingest.rejected")
            raise IngestRejected(
                f"ingest queue full ({self.config.queue_capacity} pending) "
                f"under {self.config.admission!r} admission") from None
        # the loop may have died — and drained the queue — between the
        # liveness check above and the put; in that window our command
        # would never be completed, so re-check and fail it ourselves
        # (queue operations are locked, so a concurrent drain is safe)
        if self._failure is not None:
            self._drain_failed()
            self._check_alive()
        elif self._closed and \
                (self._thread is None or not self._thread.is_alive()):
            self._drain_failed(ServiceFailed("service is stopped"))
            self._check_alive()
        if obs.enabled():
            obs.count("serve.ingest.submitted")
            obs.gauge("serve.queue.depth", self._queue.qsize())

    def flush(self, timeout: float | None = None) -> Snapshot:
        """Wait until everything queued so far is applied; returns the
        snapshot current at that point."""
        command = _Command("batch", ())          # empty batch = barrier
        self._enqueue(command, timeout)
        command.wait(timeout)
        return self._read_snapshot()

    def checkpoint(self, timeout: float | None = None) -> CheckpointInfo:
        """Request a checkpoint from the apply loop and wait for it."""
        command = _Command("checkpoint")
        self._enqueue(command, timeout)
        return command.wait(timeout)

    def scan(self, policy: "CompliancePolicy | None" = None,
             timeout: float | None = None) -> "ComplianceManifest":
        """Audit the *raw* store: run the compliance scanner over every
        relation and return its :class:`~repro.compliance.manifest.
        ComplianceManifest`.

        The scan rides the apply loop (like :meth:`checkpoint`), so it
        observes a consistent store with no batch half-applied under it.
        It reads the raw relations — unlike published snapshots it is not
        scrubbed, which is the point: operators use it to discover what
        PII the store actually holds before choosing a policy.  ``policy``
        defaults to the service's configured compliance policy (detectors
        and sampling options are honoured; actions are reported, not
        applied).
        """
        command = _Command("scan", payload=policy)
        self._enqueue(command, timeout)
        return command.wait(timeout)

    # ----------------------------------------------------------------- reads
    def _read_snapshot(self) -> Snapshot:
        """The current published version (never blocks on ingest).

        Facade plumbing: :class:`~repro.serve.client.KBClient` reads
        through this accessor; application code should hold a client.
        """
        started = perf_counter()
        current = self._snapshot                 # one atomic reference load
        if obs.enabled():
            obs.observe("serve.read.seconds", perf_counter() - started)
            obs.count("serve.reads")
        return current

    def snapshot_at(self, lsn: int) -> Snapshot:
        """The retained published snapshot whose LSN is exactly ``lsn``.

        The service keeps the last ``config.snapshot_history`` published
        versions (plus everything replayed at open); the sharded router's
        LSN-vector reads resolve against these.  Raises :class:`KeyError`
        when the requested version has aged out of the history window.
        """
        with self._history_lock:
            retained = list(self._history)
        for past in reversed(retained):
            if past.lsn == lsn:
                return past
        raise KeyError(
            f"no retained snapshot at lsn {lsn}; history covers "
            f"{[past.lsn for past in retained]} "
            f"(snapshot_history={self.config.snapshot_history})")

    def lsn_vector(self) -> tuple[int, ...]:
        """This service's published position as a length-1 LSN vector."""
        return (self._read_snapshot().lsn,)

    def client(self) -> "KBClient":
        """The read/write facade over this service (cached).

        The sanctioned query surface: ``service.client().query(...)``
        behaves identically whether the backend is this single service or
        a :class:`~repro.serve.shard.ShardedKBService`.
        """
        if self._facade is None:
            from repro.serve.client import KBClient
            self._facade = KBClient(self)
        return self._facade

    # ------------------------------------------------------------ apply loop
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._check_alive()
        self._thread = threading.Thread(target=self._apply_loop,
                                        name="repro-serve-apply", daemon=True)
        self._thread.start()

    def stop(self, timeout: float | None = 30.0,
             checkpoint: bool = False) -> None:
        """Drain the queue, optionally checkpoint, and stop the loop.

        Shutdown is requested out-of-band (an event the loop polls between
        queue reads), never by enqueueing through the bounded queue — so a
        full queue with blocked producers can never wedge the stop call
        itself.  The loop keeps committing until the queue is empty, then
        exits; anything that raced in after it exited has its waiter
        failed rather than stranded.
        """
        loop_alive = self._thread is not None and self._thread.is_alive()
        if checkpoint and loop_alive and self._failure is None:
            self.checkpoint(timeout)
        self._closed = True                     # new work is refused now
        self._stop_event.set()
        if loop_alive:
            self._thread.join(timeout)
        self._drain_failed(self._failure if self._failure is not None
                           else ServiceFailed("service is stopped"))
        self.wal.close()

    def __enter__(self) -> "KBService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _check_alive(self) -> None:
        if self._failure is not None:
            raise ServiceFailed(
                f"apply loop died: {self._failure}") from self._failure
        if self._closed:
            raise ServiceFailed("service is stopped")

    def _apply_loop(self) -> None:
        while True:
            command = self._next_command()
            if command is None:                  # stop requested, queue dry
                return
            folded: list[_Command] = []
            if command.kind == "batch":
                folded = self._coalesce(command)
            try:
                self._commit(command)
            except BaseException as error:      # simulated crashes included
                if command.kind in ("checkpoint", "scan"):
                    # a failed checkpoint save (or audit scan) leaves the
                    # previous checkpoint and all serving state intact:
                    # fail the requester, keep serving
                    command.error = error
                    command.done.set()
                    continue
                self._failure = error
                for failed in [command] + folded:
                    failed.error = error
                    failed.done.set()
                self._drain_failed()
                return
            for member in folded:                # folded ops share the result
                member.result = command.result
                member.done.set()
            command.done.set()
            if command.kind == "batch" and command.batch:
                self._maybe_periodic_checkpoint()
            if obs.enabled():
                obs.gauge("serve.queue.depth", self._queue.qsize())

    def _next_command(self) -> _Command | None:
        """The next command to run, or None once a stop has been requested
        and the queue is fully drained."""
        while True:
            if self._requeue:
                try:
                    return self._requeue.popleft()
                except IndexError:               # raced with a drain
                    pass
            try:
                return self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop_event.is_set():
                    return None

    def _coalesce(self, command: _Command) -> list[_Command]:
        """Fold immediately-available single-op batch commands into
        ``command`` (one WAL record, one commit), up to ``max_batch_ops``.
        Control commands and explicit multi-op batches stay queued — they
        commit on their own, in order, on the next loop iterations."""
        folded: list[_Command] = []
        if not command.coalesce:
            return folded
        while len(command.batch) < self.config.max_batch_ops:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt.kind == "batch" and len(nxt.batch) == 1 and nxt.coalesce:
                command.batch = command.batch + nxt.batch
                folded.append(nxt)
            else:
                # put it back for the next iteration; capacity is free
                # because this loop is the only consumer
                self._requeue.append(nxt)
                break
        return folded

    def _commit(self, command: _Command) -> None:
        if command.kind == "checkpoint":
            command.result = self._do_checkpoint()
            return
        if command.kind == "scan":
            # run inside the apply loop so the scanner sees a quiescent
            # store — no batch is ever half-applied under it
            command.result = self.engine.scan(command.payload)
            return
        if not command.batch:                    # flush barrier
            return
        started = perf_counter()
        with obs.span("serve.commit", ops=len(command.batch)) as sp:
            lsn = self.wal.append(command.batch)
            hook = self.fault_hooks.get("after_wal_append")
            if hook is not None:
                hook(lsn, command.batch)
            snapshot = self.engine.apply_batch(list(command.batch), lsn)
            with self._history_lock:             # retained for snapshot_at
                self._history.append(snapshot)
            self._snapshot = snapshot            # the publish: one reference
            command.result = snapshot
            sp.set(lsn=lsn, version=snapshot.version)
        if obs.enabled():
            obs.observe("serve.commit.seconds", perf_counter() - started)
            obs.count("serve.ops.applied", len(command.batch))
        self._batches_since_checkpoint += 1

    def _maybe_periodic_checkpoint(self) -> None:
        """Periodic checkpoint cadence, run *after* the batch's waiters are
        released: the batch is already WAL-committed, applied, and
        published, so a checkpoint failure must never surface as a batch
        failure (that would invite a duplicate retry of a committed
        batch).  It is warned about and retried after the next batch."""
        if not self.config.checkpoint_every:
            return
        if self._batches_since_checkpoint < self.config.checkpoint_every:
            return
        try:
            self._do_checkpoint()
        except Exception as error:
            if obs.enabled():
                obs.count("serve.checkpoint.failed")
            warnings.warn(
                f"periodic checkpoint failed ({error!r}); serving "
                f"continues and the checkpoint is retried after the next "
                f"batch")

    def _do_checkpoint(self) -> CheckpointInfo:
        with obs.span("serve.checkpoint", lsn=self.wal.last_lsn):
            info = self.checkpoints.save(
                self.engine.checkpoint_payload(),
                lsn=self.wal.last_lsn, database=self.engine.app.db)
            # records the checkpoint covers will never replay again; drop
            # them so open/recovery cost stays bounded by the WAL tail
            self.wal.compact(info.lsn)
        self._batches_since_checkpoint = 0
        return info

    def _drain_failed(self, error: BaseException | None = None) -> None:
        """Fail every queued waiter instead of leaving producers blocked
        forever.  Called from the apply loop after a failure, and from
        producers/stop when they lose a race with the loop's death — the
        queue and deque operations are locked, so concurrent drains are
        safe."""
        error = error if error is not None else self._failure
        while True:
            try:
                command = self._requeue.popleft()
            except IndexError:
                break
            command.error = error
            command.done.set()
        while True:
            try:
                command = self._queue.get_nowait()
            except queue.Empty:
                return
            command.error = error
            command.done.set()
