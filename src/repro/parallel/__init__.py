"""repro.parallel: the shared-memory multiprocess execution layer.

Zero-dependency (stdlib ``multiprocessing`` + numpy) parallelism for the
two hot paths the paper attributes DeepDive's runtimes to:

* **NUMA replica sampling** -- each socket's Gibbs replica chain runs in a
  worker process against a shared-memory mapping of the compiled factor
  graph, with model-averaging rendezvous and a shared marginal accumulator;
* **corpus loading** -- the per-document NLP chain fans out over worker
  processes with an order-preserving merge.

One pool runs both: the **warm pool** (:class:`WorkerPool`) keeps worker
processes and shared-memory graph segments alive across calls, so repeat
dispatches skip process spawn and graph packing; pools are shared
process-wide through :func:`get_pool` / :func:`acquire_pool`.  There is no
second pool to fall back to or compare against: the semantics reference
for every pooled call is the caller's own *sequential* loop.

The **adaptive dispatcher** (:func:`decide_replicas`, :func:`decide_map`)
routes calls whose estimated work sits below
``EngineConfig.pool_min_work`` to the sequential path, where per-call
dispatch overhead would otherwise dominate.

All of it is driven by the ``workers`` knob on
:class:`~repro.obs.config.EngineConfig`; ``workers=0`` keeps the
sequential reference paths, which every parallel result is bit-identical
to.  Any worker crash or timeout falls back to those paths with a
warning -- never a hang.
"""

from repro.parallel.dispatch import (DispatchDecision, decide_map,
                                     decide_replicas, estimate_map_work,
                                     estimate_replica_work)
from repro.parallel.registry import (acquire_pool, effective_cpus, get_pool,
                                     pool_pins, release_pool, shutdown_pools)
from repro.parallel.shm import (AttachedPack, PackHandle, SharedArrayPack,
                                attach_compiled, share_compiled)
from repro.parallel.warm import (DEFAULT_TIMEOUT, ReplicaOutcome, WorkerPool,
                                 chunk_slices, resolve_mode)

__all__ = [
    "AttachedPack",
    "DEFAULT_TIMEOUT",
    "DispatchDecision",
    "PackHandle",
    "ReplicaOutcome",
    "SharedArrayPack",
    "WorkerPool",
    "acquire_pool",
    "attach_compiled",
    "chunk_slices",
    "decide_map",
    "decide_replicas",
    "effective_cpus",
    "estimate_map_work",
    "estimate_replica_work",
    "get_pool",
    "pool_pins",
    "release_pool",
    "resolve_mode",
    "share_compiled",
    "shutdown_pools",
]
