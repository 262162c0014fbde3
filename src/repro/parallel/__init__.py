"""repro.parallel: the shared-memory replica-sampling pool.

Zero-dependency (stdlib ``multiprocessing`` + numpy) parallelism for the
one job anything measures: **NUMA replica sampling** (paper Section 4.2).
Each replica's Gibbs chain runs in a worker process against a
shared-memory mapping of the compiled factor graph.

The **warm pool** (:class:`WorkerPool`) keeps worker processes and
shared-memory graph segments alive across calls, so repeat dispatches skip
process spawn and graph packing; :func:`get_pool` shares one pool per
worker count process-wide.  Its one work command is
:meth:`WorkerPool.map`, and its one caller is
:class:`~repro.inference.numa.NumaGibbs`, driven by
``NumaConfig(workers=N)``, which maps
:func:`~repro.inference.numa.replica_totals` over its replicas;
``workers=0`` runs the same function in-process, and every pooled result
is bit-identical to that.  Any worker crash or timeout falls back to the
in-process path with a warning -- never a hang.
"""

from repro.parallel.registry import effective_cpus, get_pool, shutdown_pools
from repro.parallel.shm import (AttachedPack, PackHandle, SharedArrayPack,
                                attach_compiled, share_compiled)
from repro.parallel.warm import DEFAULT_TIMEOUT, WorkerPool, chunk_slices

__all__ = [
    "AttachedPack",
    "DEFAULT_TIMEOUT",
    "PackHandle",
    "SharedArrayPack",
    "WorkerPool",
    "attach_compiled",
    "chunk_slices",
    "effective_cpus",
    "get_pool",
    "share_compiled",
    "shutdown_pools",
]
