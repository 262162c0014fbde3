"""Sharded multi-tenant serving: N single-writer services behind one router.

:class:`ShardedKBService` scales the serving layer horizontally: documents
are routed by ``doc_id`` over a consistent-hash ring onto ``N``
:class:`~repro.serve.service.KBService` shards, each with its own WAL,
checkpoint directory and apply loop.  Knowledge-base rows and rule deltas
are *broadcast* — every shard grounds the same KB and program, so a candidate
lands on exactly one shard but is supervised identically wherever it lands.

**Consistency model.**  Readers see a :class:`MergedSnapshot`: one immutable
per-shard snapshot per component, identified by its *LSN vector*.  The
router's reaper thread is the sole publisher and advances the vector only
after **every** shard of a commit group has committed, in group submission
order — so a reader can never observe half of a multi-shard batch (a torn
read).  Two mechanisms make that airtight:

* the router serializes group fan-out under one lock, so every shard's
  queue sees groups in the same global order; and
* routed batches are submitted with ``coalesce=False``, so a shard can
  never fold two groups into one commit (which would leak a later group's
  ops into an earlier group's snapshot).

Reads never block on ingest: ``snapshot()`` is one atomic reference load,
exactly like the single-shard service.  ``snapshot_at(lsn_vector)``
reconstructs any retained published vector for repeatable cross-shard
reads.

**Multi-tenancy.**  Tenants are admission-control principals: each has an
op quota (defaulting to ``ServeConfig.tenant_quota``; ``0`` = unlimited)
counted over ops admitted but not yet committed, enforced *before* the
fan-out so a throttled tenant never occupies shard queue capacity.  A
tenant may register its own DDlog rules; rule programs are broadcast, so
every shard serves the union program (the knowledge base is shared — quotas
isolate load, not data).

**Failure model.**  A shard commit failure inside a group fail-stops the
router (like the single service's apply loop): the merged view is never
advanced past the broken group, and recovery is :meth:`open`, which
restores each shard from its own checkpoint + WAL tail.  Because every
shard's recovery is bit-identical, the recovered router republishes the
same (version, LSN) vector and the same marginals the crashed one served.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import pathlib
import queue
import threading
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro import obs
from repro.serve.config import ServeConfig
from repro.serve.engine import AppFactory
from repro.serve.ops import (AddDocuments, AddRules, IngestOp,
                             RemoveDocuments)
from repro.serve.service import (IngestRejected, KBService, PendingCommit,
                                 ServiceFailed)
from repro.serve.snapshot import Snapshot, SnapshotReads
from repro.serve.wal import fsync_directory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compliance.manifest import ComplianceManifest
    from repro.compliance.policy import CompliancePolicy

#: The router's on-disk manifest: how many shards live under a directory.
MANIFEST_NAME = "shards.json"
MANIFEST_FORMAT = 1
DEFAULT_VNODES = 64


class QuotaExceeded(IngestRejected):
    """Raised when a tenant's admitted-but-uncommitted ops exceed its quota."""


# --------------------------------------------------------------------- routing
class HashRing:
    """Consistent hashing of document keys onto shard indices.

    Each shard owns ``vnodes`` points on a 64-bit ring (SHA-256 of
    ``"shard-{index}#{vnode}"``); a key belongs to the shard owning the
    first point at or after the key's own hash.  Routing is therefore a
    pure function of ``(key, shards, vnodes)`` — stable across restarts and
    across processes, which is what lets :meth:`ShardedKBService.open`
    resume routing without persisting any assignment table.
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if vnodes < 1:
            raise ValueError(f"need at least one vnode, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = sorted(
            (self._point(f"shard-{index}#{vnode}"), index)
            for index in range(shards) for vnode in range(vnodes))
        self._points = [point for point, _ in points]
        self._owners = [index for _, index in points]

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def shard_of(self, key) -> int:
        """The shard index owning ``key`` (hashed as ``str(key)``)."""
        if self.shards == 1:
            return 0
        where = bisect.bisect_left(self._points, self._point(str(key)))
        return self._owners[where % len(self._owners)]


def route_ops(ops: Sequence[IngestOp],
              ring: HashRing) -> dict[int, list[IngestOp]]:
    """Split ``ops`` into per-shard batches.

    Document operations are partitioned by ``doc_id`` over the ring
    (preserving relative document order within each shard); row and rule
    operations are broadcast to every shard, so all shards ground the same
    knowledge base and program.
    """
    routed: dict[int, list[IngestOp]] = {}
    for op in ops:
        if isinstance(op, AddDocuments):
            groups: dict[int, list] = {}
            for doc_id, content in op.documents:
                groups.setdefault(ring.shard_of(doc_id),
                                  []).append((doc_id, content))
            for index, docs in groups.items():
                routed.setdefault(index, []).append(AddDocuments(tuple(docs)))
        elif isinstance(op, RemoveDocuments):
            groups = {}
            for doc_id in op.doc_ids:
                groups.setdefault(ring.shard_of(doc_id), []).append(doc_id)
            for index, ids in groups.items():
                routed.setdefault(index, []).append(RemoveDocuments(tuple(ids)))
        else:                                    # rows / rules: broadcast
            for index in range(ring.shards):
                routed.setdefault(index, []).append(op)
    return routed


# --------------------------------------------------------------------- reading
class MergedSnapshot(SnapshotReads):
    """A :class:`~repro.serve.snapshot.Snapshot`-compatible view over one
    immutable snapshot per shard.

    Identified by its :attr:`lsn_vector` (one WAL position per shard); the
    query surface (``marginal`` / ``output_tuples`` / ``top`` /
    ``relations`` / ``len``) is ``Snapshot``'s own
    (:class:`~repro.serve.snapshot.SnapshotReads`), so
    :class:`~repro.serve.client.KBClient` code is backend-agnostic.  The
    merged marginal dict is built lazily on first query and cached — the
    parts are immutable, so the merge is too.

    Document-derived variable keys are disjoint across shards by
    construction (a document lives on exactly one shard).  Should a
    program produce the same variable key on several shards, the
    highest-indexed shard's marginal wins — deterministically.
    """

    __slots__ = ("parts", "_merged")

    def __init__(self, parts: Iterable[Snapshot]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("a merged snapshot needs at least one part")
        self._merged: dict | None = None

    # ---------------------------------------------------------- identifiers
    @property
    def lsn_vector(self) -> tuple[int, ...]:
        return tuple(part.lsn for part in self.parts)

    @property
    def version_vector(self) -> tuple[int, ...]:
        return tuple(part.version for part in self.parts)

    @property
    def threshold(self) -> float:
        return self.parts[0].threshold

    @property
    def marginals(self) -> Mapping:
        merged = self._merged
        if merged is None:                       # benign race: idempotent
            merged = {}
            for part in self.parts:
                merged.update(part.marginals)
            self._merged = merged
        return merged

    @property
    def manifest(self) -> "ComplianceManifest | None":
        """The merged compliance manifest over the scrubbed parts, or
        ``None`` when no part carried one (compliance disabled)."""
        from repro.compliance.manifest import ComplianceManifest
        return ComplianceManifest.merge_all(
            part.manifest for part in self.parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MergedSnapshot(shards={len(self.parts)}, "
                f"lsn_vector={self.lsn_vector})")


class _CommitGroup:
    """One routed ingest: per-shard pending commits awaited by the reaper."""

    __slots__ = ("pending", "publish", "tenant", "nops", "done", "error",
                 "snapshot")

    def __init__(self, pending: dict[int, PendingCommit],
                 publish: bool = True, tenant: str | None = None,
                 nops: int = 0) -> None:
        self.pending = pending
        self.publish = publish
        self.tenant = tenant
        self.nops = nops
        self.done = threading.Event()
        self.error: BaseException | None = None
        self.snapshot: MergedSnapshot | None = None

    def wait(self, timeout: float | None = None) -> MergedSnapshot:
        """Block until every shard committed; the published merged view."""
        if not self.done.wait(timeout):
            raise TimeoutError(f"group not committed within {timeout}s")
        if self.error is not None:
            raise ServiceFailed(
                f"sharded commit failed: {self.error}") from self.error
        return self.snapshot


# ---------------------------------------------------------------------- router
class ShardedKBService:
    """N knowledge-base shards behind one ingest router and merged view.

    Construct with :meth:`create` (bootstrap a new layout) or :meth:`open`
    (recover an existing one); the number of shards comes from
    ``ServeConfig.shards`` at create time and from the on-disk manifest at
    open time.  Prefer holding a :class:`~repro.serve.client.KBClient`
    (via :meth:`client`): its surface is identical over single and
    sharded backends.
    """

    def __init__(self, directory: str | pathlib.Path,
                 shards: Sequence[KBService], ring: HashRing,
                 config: ServeConfig) -> None:
        if len(shards) != ring.shards:
            raise ValueError(f"{len(shards)} services for a "
                             f"{ring.shards}-shard ring")
        self.directory = pathlib.Path(directory)
        self.shards = list(shards)
        self.ring = ring
        self.config = config
        # the merged view: replaced (never mutated) by the reaper, read by
        # anyone — one atomic reference load, exactly like KBService
        self._view = MergedSnapshot(
            [shard._read_snapshot() for shard in self.shards])
        # serializes fan-out so every shard queue sees groups in the same
        # global order (see module docstring: torn-read prevention)
        self._route_lock = threading.Lock()
        self._groups: queue.Queue = queue.Queue()
        self._tenant_lock = threading.Lock()
        self._tenants: dict[str, dict] = {}
        self._facade = None                      # lazy KBClient
        self._failure: BaseException | None = None
        self._closed = False
        self._reaper = threading.Thread(target=self._reap_loop,
                                        name="repro-serve-reaper",
                                        daemon=True)
        self._reaper.start()

    # ------------------------------------------------------------ constructors
    @classmethod
    def create(cls, directory: str | pathlib.Path, app_factory: AppFactory,
               bootstrap_ops: Sequence[IngestOp],
               config: ServeConfig | None = None,
               run_kwargs: dict | None = None,
               start: bool = True) -> "ShardedKBService":
        """Bootstrap a new ``config.shards``-shard layout under
        ``directory``.

        Bootstrap operations are routed exactly like live ingest (documents
        partitioned, KB rows broadcast); each shard bootstraps, learns, and
        checkpoints independently — an empty shard (no documents hashed to
        it yet) is valid and publishes an empty version 0.
        """
        directory = pathlib.Path(directory)
        config = config if config is not None else ServeConfig()
        ring = HashRing(config.shards)
        directory.mkdir(parents=True, exist_ok=True)
        routed = route_ops(list(bootstrap_ops), ring)
        services = []
        for index in range(ring.shards):
            shard_dir = directory / cls._shard_dirname(index)
            services.append(KBService.create(
                shard_dir, app_factory, routed.get(index, []), config=config,
                run_kwargs=run_kwargs, start=start))
        cls._write_manifest(directory, ring.shards, ring.vnodes)
        return cls(directory, services, ring, config)

    @classmethod
    def open(cls, directory: str | pathlib.Path, app_factory: AppFactory,
             config: ServeConfig | None = None,
             run_kwargs: dict | None = None,
             start: bool = True) -> "ShardedKBService":
        """Recover a sharded service: every shard from its own checkpoint
        plus WAL tail (deterministic replay ⇒ the reopened router publishes
        the same (version, LSN) vector and marginals as before the crash).
        """
        directory = pathlib.Path(directory)
        manifest = cls.read_manifest(directory)
        if manifest is None:
            raise ServiceFailed(
                f"no {MANIFEST_NAME} under {directory}; not a sharded "
                f"service directory (use KBService.open for single-shard)")
        config = config if config is not None else ServeConfig()
        count = manifest["shards"]
        ring = HashRing(count, manifest.get("vnodes", DEFAULT_VNODES))
        services = []
        for index in range(count):
            shard_dir = directory / cls._shard_dirname(index)
            services.append(KBService.open(
                shard_dir, app_factory, config=config,
                run_kwargs=run_kwargs, start=start))
        return cls(directory, services, ring, config)

    # ------------------------------------------------------- layout plumbing
    @staticmethod
    def _shard_dirname(index: int) -> str:
        return f"shard-{index:02d}"

    @staticmethod
    def _write_manifest(directory: pathlib.Path, shards: int,
                        vnodes: int) -> None:
        payload = {"format": MANIFEST_FORMAT, "shards": shards,
                   "vnodes": vnodes}
        path = directory / MANIFEST_NAME
        temp = path.with_suffix(".json.tmp")
        with open(temp, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(payload))
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, path)
        fsync_directory(directory)

    @staticmethod
    def read_manifest(directory: str | os.PathLike) -> dict | None:
        """The shard manifest under ``directory``, or None if absent.

        ``KBClient.open`` sniffs this to pick the backend class.
        """
        path = pathlib.Path(directory) / MANIFEST_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            raise ServiceFailed(
                f"unreadable shard manifest {path}: {error}") from None
        if payload.get("format") != MANIFEST_FORMAT:
            raise ServiceFailed(
                f"unsupported shard manifest format "
                f"{payload.get('format')!r} in {path}")
        return payload

    # ---------------------------------------------------------------- tenants
    def register_tenant(self, name: str, quota: int | None = None,
                        rules: str = "", timeout: float | None = None):
        """Register (or update) a tenant.

        ``quota`` overrides ``ServeConfig.tenant_quota`` for this tenant
        (0 = unlimited).  ``rules`` is DDlog source appended to the shared
        program — broadcast to every shard, committed before this returns.
        Returns the merged snapshot including the rule delta, or None when
        no rules were given.
        """
        with self._tenant_lock:
            state = self._tenants.setdefault(
                name, {"quota": self.config.tenant_quota, "pending": 0,
                       "rules": []})
            if quota is not None:
                state["quota"] = quota
            if rules:
                state["rules"].append(rules)
        if rules:
            return self.ingest([AddRules(rules)], wait=True,
                               timeout=timeout, tenant=name)
        return None

    def tenants(self) -> dict[str, dict]:
        """A point-in-time copy of tenant state (quota, pending, rules)."""
        with self._tenant_lock:
            return {name: {"quota": state["quota"],
                           "pending": state["pending"],
                           "rules": list(state["rules"])}
                    for name, state in self._tenants.items()}

    def _admit(self, tenant: str | None, nops: int) -> None:
        if tenant is None:
            return
        with self._tenant_lock:
            state = self._tenants.setdefault(
                tenant, {"quota": self.config.tenant_quota, "pending": 0,
                         "rules": []})
            quota = state["quota"]
            if quota and state["pending"] + nops > quota:
                if obs.enabled():
                    obs.count("serve.shard.quota_rejected")
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {state['pending']} admitted ops "
                    f"pending against a quota of {quota}")
            state["pending"] += nops

    def _release(self, tenant: str | None, nops: int) -> None:
        if tenant is None:
            return
        with self._tenant_lock:
            state = self._tenants.get(tenant)
            if state is not None:
                state["pending"] = max(0, state["pending"] - nops)

    # ----------------------------------------------------------------- ingest
    def ingest(self, ops: Iterable[IngestOp], wait: bool = True,
               timeout: float | None = None,
               tenant: str | None = None) -> MergedSnapshot | _CommitGroup:
        """Route one logical batch across the shards it touches.

        The batch commits atomically *with respect to readers*: its group's
        merged view is published only once every touched shard has
        committed.  With ``wait=True`` blocks for that publication and
        returns the merged snapshot; otherwise returns the commit-group
        handle (``.wait()`` / ``.done``).  ``tenant`` applies that tenant's
        admission quota before any shard queue is touched.
        """
        batch = list(ops)
        self._check_alive()
        self._admit(tenant, len(batch))
        try:
            with self._route_lock:
                routed = route_ops(batch, self.ring)
                pending = {
                    index: self.shards[index].ingest(
                        shard_ops, wait=False, timeout=timeout,
                        coalesce=False)
                    for index, shard_ops in sorted(routed.items())}
                group = _CommitGroup(pending, tenant=tenant,
                                     nops=len(batch))
                self._groups.put(group)
        except BaseException:
            self._release(tenant, len(batch))
            raise
        if obs.enabled():
            obs.count("serve.shard.groups")
            obs.count("serve.shard.fanout", len(pending))
        if wait:
            return group.wait(timeout)
        return group

    def flush(self, timeout: float | None = None) -> MergedSnapshot:
        """Wait until everything routed so far is committed *and published*;
        returns the merged view current at that point."""
        self._check_alive()
        with self._route_lock:
            pending = {index: shard.ingest((), wait=False, timeout=timeout,
                                           coalesce=False)
                       for index, shard in enumerate(self.shards)}
            group = _CommitGroup(pending, publish=False)
            self._groups.put(group)
        group.wait(timeout)
        return self._read_snapshot()

    def checkpoint(self, timeout: float | None = None) -> list:
        """Flush, then checkpoint every shard; per-shard infos in order."""
        self.flush(timeout)
        return [shard.checkpoint(timeout) for shard in self.shards]

    def scan(self, policy: "CompliancePolicy | None" = None,
             timeout: float | None = None) -> "ComplianceManifest":
        """Audit every shard's raw store and merge the manifests.

        Fans a :meth:`KBService.scan` to each shard (each rides its own
        apply loop, so each component is internally consistent) and merges
        the per-shard manifests column-wise — broadcast relations are
        counted once per shard, document-routed relations partition
        naturally.  Like the single-shard scan this reads the *raw* store,
        not the scrubbed published view.
        """
        from repro.compliance.manifest import ComplianceManifest
        self._check_alive()
        merged = ComplianceManifest.merge_all(
            shard.scan(policy, timeout=timeout) for shard in self.shards)
        assert merged is not None                # every shard returns one
        return merged

    # ------------------------------------------------------------------ reads
    def _read_snapshot(self) -> MergedSnapshot:
        """The current published merged view (never blocks on ingest)."""
        current = self._view                     # one atomic reference load
        if obs.enabled():
            obs.count("serve.reads")
        return current

    def snapshot_at(self, lsn_vector: Sequence[int]) -> MergedSnapshot:
        """The retained merged view at exactly ``lsn_vector``.

        Each component resolves against that shard's snapshot history;
        raises :class:`KeyError` if any component has aged out.
        """
        vector = tuple(lsn_vector)
        if len(vector) != len(self.shards):
            raise ValueError(
                f"lsn vector has {len(vector)} components for "
                f"{len(self.shards)} shards")
        return MergedSnapshot([shard.snapshot_at(lsn) for shard, lsn
                               in zip(self.shards, vector)])

    def lsn_vector(self) -> tuple[int, ...]:
        """The published per-shard WAL positions (one component per shard)."""
        return self._read_snapshot().lsn_vector

    def client(self) -> "KBClient":
        """The read/write facade over this router (cached)."""
        if self._facade is None:
            from repro.serve.client import KBClient
            self._facade = KBClient(self)
        return self._facade

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def stop(self, timeout: float | None = 30.0,
             checkpoint: bool = False) -> None:
        """Drain pending groups, optionally checkpoint, stop every shard."""
        if checkpoint and not self._closed and self._failure is None:
            self.checkpoint(timeout)
        self._closed = True
        self._groups.put(None)                   # sentinel after the drain
        if self._reaper.is_alive():
            self._reaper.join(timeout)
        for shard in self.shards:
            shard.stop(timeout)

    def __enter__(self) -> "ShardedKBService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _check_alive(self) -> None:
        if self._failure is not None:
            raise ServiceFailed(
                f"sharded commit failed: {self._failure}") from self._failure
        if self._closed:
            raise ServiceFailed("service is stopped")

    # ----------------------------------------------------------------- reaper
    def _reap_loop(self) -> None:
        """The sole publisher: waits each group (FIFO = submission order)
        and advances the merged view componentwise, so the view is always
        a *prefix* of the group sequence — never a torn batch."""
        while True:
            group = self._groups.get()
            if group is None:
                return
            committed: dict[int, Snapshot] = {}
            error: BaseException | None = None
            for index, handle in group.pending.items():
                try:
                    result = handle.wait()
                except BaseException as failure:
                    error = failure
                    break
                if isinstance(result, (Snapshot,)):
                    committed[index] = result
            if error is not None:
                # fail-stop: the view never advances past a broken group;
                # recovery is open(), which replays every shard's WAL
                group.error = error
                self._failure = error
                self._release(group.tenant, group.nops)
                group.done.set()
                self._drain_failed(error)
                return
            if group.publish and committed:
                parts = list(self._view.parts)
                for index, snapshot in committed.items():
                    parts[index] = snapshot
                self._view = MergedSnapshot(parts)   # the publish
                if obs.enabled():
                    obs.count("serve.shard.published")
            group.snapshot = self._view
            self._release(group.tenant, group.nops)
            group.done.set()

    def _drain_failed(self, error: BaseException) -> None:
        """Fail every queued group instead of stranding its waiters."""
        while True:
            try:
                group = self._groups.get_nowait()
            except queue.Empty:
                return
            if group is None:
                continue
            group.error = error
            self._release(group.tenant, group.nops)
            group.done.set()
