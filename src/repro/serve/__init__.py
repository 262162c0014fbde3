"""Durable online serving for DeepDive-style KBC applications.

The batch pipeline (:class:`repro.core.DeepDive`) answers "run this program
over this corpus once".  This package keeps that KB *alive*: documents,
evidence, and even rules arrive as a stream of deltas; marginals refresh
incrementally (Section 4.2 materialization strategies); readers query
immutable versioned snapshots while writers work; and a write-ahead log
plus periodic checkpoints make the whole thing crash recoverable with
bit-identical marginals.

The sanctioned surface is :class:`KBClient`, which serves identically over
a single-writer :class:`KBService` or a sharded multi-tenant
:class:`ShardedKBService` (``ServeConfig.shards`` picks at create time;
``KBClient.open`` sniffs the on-disk layout)::

    from repro.serve import KBClient, add_documents

    with KBClient.create(dirpath, app_factory, bootstrap_ops) as client:
        client.ingest([add_documents([("d9", "Ann married Bob.")])])
        spouses = client.query("spouse")

    # later, or after a crash:
    client = KBClient.open(dirpath, app_factory)

A :class:`KBService` has no read methods of its own: hold a client
(``service.client()`` hands out the facade over an existing service).
"""

from repro.serve.checkpoint import (CHECKPOINT_FORMAT_VERSION, CheckpointError,
                                    CheckpointInfo, CheckpointManager)
from repro.serve.client import KBClient
from repro.serve.config import ServeConfig
from repro.serve.engine import DEFAULT_RUN_KWARGS, ServeEngine
from repro.serve.ops import (AddDocuments, AddRows, AddRules, IngestOp,
                             OpError, RemoveDocuments, RemoveRows,
                             add_documents, add_rows, op_from_record,
                             remove_rows)
from repro.serve.service import (IngestRejected, KBService, PendingCommit,
                                 ServiceFailed)
from repro.serve.shard import (HashRing, MergedSnapshot, QuotaExceeded,
                               ShardedKBService, route_ops)
from repro.serve.snapshot import Snapshot
from repro.serve.wal import WalError, WalRecord, WriteAheadLog

__all__ = [
    "AddDocuments",
    "AddRows",
    "AddRules",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
    "DEFAULT_RUN_KWARGS",
    "HashRing",
    "IngestOp",
    "IngestRejected",
    "KBClient",
    "KBService",
    "MergedSnapshot",
    "OpError",
    "PendingCommit",
    "QuotaExceeded",
    "RemoveDocuments",
    "RemoveRows",
    "ServeConfig",
    "ServeEngine",
    "ServiceFailed",
    "ShardedKBService",
    "Snapshot",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "add_documents",
    "add_rows",
    "op_from_record",
    "remove_rows",
]
