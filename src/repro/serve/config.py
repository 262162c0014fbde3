"""Serving-layer configuration.

One frozen dataclass covering the three concerns of the online KBC service:
durability cadence (WAL fsync, checkpoint frequency/retention), the apply
loop's batching and refresh policy, and admission control for the bounded
ingest queue.  The environment never configures it: callers build it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compliance.policy import CompliancePolicy

VALID_ADMISSION = ("block", "reject")
VALID_STRATEGIES = ("auto", "sampling", "variational")


@dataclass(frozen=True)
class ServeConfig:
    """Frozen configuration for :class:`repro.serve.KBService`.

    ``checkpoint_every``
        Commit a checkpoint after every N applied batches (0 = only the
        bootstrap checkpoint and explicit :meth:`~KBService.checkpoint`
        calls; the WAL alone then carries recovery).
    ``keep_checkpoints``
        Retained checkpoint count; older ones are pruned after each save.
    ``wal_fsync``
        ``os.fsync`` the WAL after every committed batch.  Durable against
        machine crash when true; the default favours test/bench speed and is
        still durable against process crash.
    ``max_batch_ops``
        Upper bound on ingest operations folded into one committed batch.
    ``queue_capacity``
        Bounded ingest-queue depth; beyond it the admission policy applies.
    ``admission``
        ``"block"`` applies producer backpressure (submit waits for queue
        space); ``"reject"`` fails fast with :class:`IngestRejected`.
    ``full_rerun_fraction``
        When one batch's grounding delta touches more than this fraction of
        the factor graph, fall back to a full learn+inference run instead of
        incremental refresh (the paper's full re-run regime, Section 4.2).
    ``strategy``
        Incremental-refresh materialization: ``"auto"`` consults
        :func:`repro.grounding.choose_strategy` per batch, or force
        ``"sampling"`` / ``"variational"``.
    ``refresh_samples`` / ``refresh_burn_in`` / ``radius``
        Sampling-refresh chain parameters (Section 4.2 neighbourhood
        resampling).
    ``expected_updates``
        The optimizer's estimate of how many future delta batches this
        service will absorb (biases the sampling/variational choice).
    ``shards``
        Horizontal shard count, the one switch at create time.  ``1`` (the
        default) serves from a single
        :class:`~repro.serve.service.KBService`;  ``> 1`` makes
        :meth:`repro.serve.client.KBClient.create` build a
        :class:`~repro.serve.shard.ShardedKBService` routing ingest by
        document key over this many independent shards.  Opening an
        existing layout ignores it: the on-disk manifest decides.
    ``tenant_quota``
        Default per-tenant admission quota: the maximum number of a
        tenant's ingest operations that may be pending (submitted, not yet
        committed) at once.  ``0`` means unlimited; individual tenants can
        override it at :meth:`~repro.serve.shard.ShardedKBService.
        register_tenant` time.
    ``snapshot_history``
        How many recently published snapshots each service retains for
        :meth:`~repro.serve.service.KBService.snapshot_at` versioned reads
        (the sharded router's LSN-vector reads resolve against these).
    ``compliance``
        The :class:`~repro.compliance.policy.CompliancePolicy` applied at
        snapshot publish: reader-visible views are scrubbed per its
        per-relation/per-column actions while the WAL and checkpoints keep
        the raw ground truth.  Disabled by default (compliance is opt-in);
        shards inherit the router's policy, so a sharded service scrubs
        identically on every shard.
    """

    checkpoint_every: int = 4
    keep_checkpoints: int = 2
    wal_fsync: bool = False
    max_batch_ops: int = 32
    queue_capacity: int = 256
    admission: str = "block"
    full_rerun_fraction: float = 0.5
    strategy: str = "auto"
    refresh_samples: int = 60
    refresh_burn_in: int = 15
    radius: int = 1
    expected_updates: int = 100
    shards: int = 1
    tenant_quota: int = 0
    snapshot_history: int = 8
    compliance: CompliancePolicy = CompliancePolicy()

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every cannot be negative")
        if self.keep_checkpoints < 1:
            raise ValueError("need to keep at least one checkpoint")
        if self.max_batch_ops < 1:
            raise ValueError("max_batch_ops must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.admission not in VALID_ADMISSION:
            raise ValueError(f"unknown admission policy {self.admission!r}; "
                             f"want one of {VALID_ADMISSION}")
        if not 0.0 < self.full_rerun_fraction <= 1.0:
            raise ValueError("full_rerun_fraction must be in (0, 1]")
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(f"unknown refresh strategy {self.strategy!r}; "
                             f"want one of {VALID_STRATEGIES}")
        if self.refresh_samples < 1 or self.refresh_burn_in < 0:
            raise ValueError("refresh_samples must be positive and "
                             "refresh_burn_in non-negative")
        if self.radius < 0:
            raise ValueError("radius cannot be negative")
        if self.expected_updates < 1:
            raise ValueError("expected_updates must be positive")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.tenant_quota < 0:
            raise ValueError("tenant_quota cannot be negative (0 = unlimited)")
        if self.snapshot_history < 1:
            raise ValueError("snapshot_history must be at least 1")
        if not isinstance(self.compliance, CompliancePolicy):
            raise ValueError("compliance must be a CompliancePolicy")

    def with_options(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (the config itself is frozen)."""
        return replace(self, **changes)
