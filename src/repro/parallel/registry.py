"""Process-wide registry of warm worker pools.

A warm pool only pays off if every ``NumaGibbs`` run that wants
``workers=N`` shares the same long-lived processes: :func:`get_pool`
hands out one :class:`~repro.parallel.warm.WorkerPool` per worker count
and keeps it alive across calls.

Lifetime: the registry owns the pools.  :func:`shutdown_pools`
(registered at interpreter exit, callable from tests and benches) stops
workers and unlinks segments.
"""

from __future__ import annotations

import atexit
import os
import threading

from repro.parallel.warm import WorkerPool

_LOCK = threading.Lock()
_POOLS: dict[int, WorkerPool] = {}


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Falls back to ``os.cpu_count()`` on platforms without
    ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                        # pragma: no cover - macOS
        return os.cpu_count() or 1


def get_pool(workers: int) -> WorkerPool | None:
    """The shared warm pool of ``workers`` processes, or ``None`` for
    ``workers < 1`` (the caller's in-process path).

    Creates the pool on first request and re-creates it if a previous one
    was closed.
    """
    if workers < 1:
        return None
    with _LOCK:
        pool = _POOLS.get(workers)
        if pool is None or pool.closed:
            pool = _POOLS[workers] = WorkerPool(workers)
        return pool


def shutdown_pools() -> None:
    """Close every registered pool and clear the registry."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
