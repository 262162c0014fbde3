"""repro.parallel: the shared-memory replica-sampling pool.

Zero-dependency (stdlib ``multiprocessing`` + numpy) parallelism for the
one job anything measures: **NUMA replica sampling** (paper Section 4.2).
Each socket's Gibbs replica chain runs in a worker process against a
shared-memory mapping of the compiled factor graph, with model-averaging
rendezvous and a shared marginal accumulator.

The **warm pool** (:class:`WorkerPool`) keeps worker processes and
shared-memory graph segments alive across calls, so repeat dispatches skip
process spawn and graph packing; :func:`get_pool` shares one pool per
``(workers, mode)`` process-wide.  Its one caller is
:class:`~repro.inference.numa.NumaGibbs`, driven by
``NumaConfig(workers=N)``: ``workers=0`` is the sequential reference loop,
which every pooled result is bit-identical to.  Any worker crash or
timeout falls back to that loop with a warning -- never a hang.
"""

from repro.parallel.registry import effective_cpus, get_pool, shutdown_pools
from repro.parallel.shm import (AttachedPack, PackHandle, SharedArrayPack,
                                attach_compiled, share_compiled)
from repro.parallel.warm import (DEFAULT_TIMEOUT, VALID_PARALLEL_MODES,
                                 ReplicaOutcome, WorkerPool, chunk_slices,
                                 resolve_mode)

__all__ = [
    "AttachedPack",
    "DEFAULT_TIMEOUT",
    "PackHandle",
    "ReplicaOutcome",
    "SharedArrayPack",
    "VALID_PARALLEL_MODES",
    "WorkerPool",
    "attach_compiled",
    "chunk_slices",
    "effective_cpus",
    "get_pool",
    "resolve_mode",
    "share_compiled",
    "shutdown_pools",
]
