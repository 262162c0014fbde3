"""KBClient: the one query/ingest surface over single and sharded backends.

The serving layer exposes two backends — :class:`~repro.serve.service.KBService`
(one writer, one WAL) and :class:`~repro.serve.shard.ShardedKBService`
(N of those behind a consistent-hash router).  Application code should not
care which one it holds, so this module gives both the same typed facade:

    from repro.serve import KBClient, add_documents

    with KBClient.create(dirpath, app_factory, bootstrap_ops) as client:
        client.ingest([add_documents([("d9", "Ann married Bob.")])])
        spouses = client.query("spouse")

    # later, or after a crash — the backend is sniffed from the directory:
    client = KBClient.open(dirpath, app_factory)

Every read resolves against one immutable published snapshot (a
:class:`~repro.serve.snapshot.Snapshot` or a cross-shard
:class:`~repro.serve.shard.MergedSnapshot`), so a sequence of calls that
must agree with each other should grab :meth:`snapshot` once and query it.
Versioned reads use LSN vectors uniformly: a single service's vector has
one component, an N-shard service's has N — :meth:`lsn_vector` and
:meth:`snapshot_at` round-trip either.
"""

from __future__ import annotations

import pathlib
from typing import Hashable, Iterable, Sequence

from repro import obs
from repro.serve.config import ServeConfig
from repro.serve.engine import AppFactory
from repro.serve.ops import IngestOp
from repro.serve.service import KBService
from repro.serve.shard import ShardedKBService


class KBClient:
    """Typed facade over one serving backend.  See the module docstring."""

    def __init__(self, service) -> None:
        self._service = service

    @property
    def service(self):
        """The wrapped backend (escape hatch for admin surfaces)."""
        return self._service

    @property
    def sharded(self) -> bool:
        return isinstance(self._service, ShardedKBService)

    # ------------------------------------------------------------ constructors
    @classmethod
    def create(cls, directory: str | pathlib.Path, app_factory: AppFactory,
               bootstrap_ops: Sequence[IngestOp],
               config: ServeConfig | None = None,
               run_kwargs: dict | None = None,
               start: bool = True) -> "KBClient":
        """Bootstrap a new service; sharded iff ``config.shards`` exceeds
        one."""
        config = config if config is not None else ServeConfig()
        if config.shards > 1:
            backend = ShardedKBService.create(
                directory, app_factory, bootstrap_ops, config=config,
                run_kwargs=run_kwargs, start=start)
        else:
            backend = KBService.create(
                directory, app_factory, bootstrap_ops, config=config,
                run_kwargs=run_kwargs, start=start)
        return backend.client()

    @classmethod
    def open(cls, directory: str | pathlib.Path, app_factory: AppFactory,
             config: ServeConfig | None = None,
             run_kwargs: dict | None = None,
             start: bool = True) -> "KBClient":
        """Recover whatever lives under ``directory``: the shard manifest
        decides the backend, so callers never have to remember how a
        service was laid out."""
        if ShardedKBService.read_manifest(directory) is not None:
            backend = ShardedKBService.open(
                directory, app_factory, config=config,
                run_kwargs=run_kwargs, start=start)
        else:
            backend = KBService.open(
                directory, app_factory, config=config,
                run_kwargs=run_kwargs, start=start)
        return backend.client()

    # ------------------------------------------------------------------ reads
    def snapshot(self):
        """The current published view — one atomic load, never blocks."""
        return self._service._read_snapshot()

    def query(self, relation: str, threshold: float | None = None) -> set:
        """Accepted tuples of ``relation`` in the current view."""
        with obs.span("serve.read", relation=relation):
            return self.snapshot().output_tuples(relation, threshold)

    def marginal(self, key: Hashable, default: float | None = None) -> float:
        """The marginal probability of one variable key."""
        return self.snapshot().marginal(key, default)

    def top(self, relation: str, k: int = 10) -> list[tuple[tuple, float]]:
        """The ``k`` highest-probability tuples of ``relation``."""
        return self.snapshot().top(relation, k)

    def lsn_vector(self) -> tuple[int, ...]:
        """The published WAL position: one component per shard (one total
        for a single-shard backend)."""
        return self._service.lsn_vector()

    def snapshot_at(self, lsn_vector: int | Sequence[int]):
        """The retained published view at exactly ``lsn_vector``.

        Accepts a bare int for single-shard convenience.  Raises
        :class:`KeyError` when any component has aged out of the backend's
        snapshot history (``ServeConfig.snapshot_history``).
        """
        if isinstance(lsn_vector, int):
            vector: tuple[int, ...] = (lsn_vector,)
        else:
            vector = tuple(lsn_vector)
        if isinstance(self._service, ShardedKBService):
            return self._service.snapshot_at(vector)
        if len(vector) != 1:
            raise ValueError(
                f"single-shard backend takes a 1-component lsn vector, "
                f"got {len(vector)}")
        return self._service.snapshot_at(vector[0])

    # ------------------------------------------------------------- compliance
    def compliance_manifest(self):
        """The :class:`~repro.compliance.manifest.ComplianceManifest` of the
        current published view, or ``None`` when no compliance policy was
        active at publish time.

        This is the *publish-time* record — which columns were detected,
        which action each received, masked examples — for the exact view
        :meth:`snapshot` returns.  For an on-demand audit of the raw store,
        use :meth:`scan`.
        """
        return self.snapshot().manifest

    def scan(self, policy=None, timeout: float | None = None):
        """Audit the raw store: run the compliance scanner over every
        relation (on every shard when sharded) and return the merged
        :class:`~repro.compliance.manifest.ComplianceManifest`.

        ``policy`` defaults to the backend's configured compliance policy;
        pass an explicit :class:`~repro.compliance.policy.CompliancePolicy`
        to audit with different detector thresholds or sampling.  The scan
        rides each apply loop, so it sees a consistent store — but unlike
        published snapshots it reports *raw* (masked) values: this is the
        discovery surface operators use before choosing a policy.
        """
        with obs.span("serve.scan"):
            return self._service.scan(policy, timeout=timeout)

    # ----------------------------------------------------------------- writes
    def ingest(self, ops: Iterable[IngestOp], wait: bool = True,
               timeout: float | None = None, tenant: str | None = None):
        """Commit one logical batch; see the backend's ``ingest``.

        ``tenant`` (admission quotas) is a sharded-only concept — passing
        it against a single-shard backend raises :class:`ValueError`.
        """
        if tenant is not None:
            if not isinstance(self._service, ShardedKBService):
                raise ValueError(
                    "tenant admission control requires a sharded backend "
                    "(ServeConfig.shards > 1)")
            return self._service.ingest(ops, wait=wait, timeout=timeout,
                                        tenant=tenant)
        return self._service.ingest(ops, wait=wait, timeout=timeout)

    def submit(self, op: IngestOp, timeout: float | None = None):
        """Queue one operation without waiting; the pending-commit handle."""
        return self.ingest([op], wait=False, timeout=timeout)

    def flush(self, timeout: float | None = None):
        """Wait until everything ingested so far is committed and published."""
        return self._service.flush(timeout)

    def checkpoint(self, timeout: float | None = None):
        """Force a durable checkpoint (one per shard when sharded)."""
        return self._service.checkpoint(timeout)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self._service.start()

    def stop(self, timeout: float | None = 30.0,
             checkpoint: bool = False) -> None:
        self._service.stop(timeout, checkpoint=checkpoint)

    def __enter__(self) -> "KBClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "sharded" if self.sharded else "single"
        return f"KBClient({kind}, {self._service.directory})"
