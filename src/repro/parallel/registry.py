"""Process-wide registry of warm worker pools.

A warm pool only pays off if every ``NumaGibbs`` run that wants
``workers=N`` under start-method ``mode`` shares the same long-lived
processes: :func:`get_pool` hands out one
:class:`~repro.parallel.warm.WorkerPool` per ``(workers, mode)`` and keeps
it alive across calls.

Lifetime: the registry owns the pools.  :func:`shutdown_pools`
(registered at interpreter exit, callable from tests and benches) stops
workers and unlinks segments.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings

from repro.parallel.warm import DEFAULT_TIMEOUT, WorkerPool

_LOCK = threading.Lock()
_POOLS: dict[tuple[int, str], WorkerPool] = {}


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Falls back to ``os.cpu_count()`` on platforms without
    ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                        # pragma: no cover - macOS
        return os.cpu_count() or 1


def get_pool(workers: int, mode: str = "auto",
             timeout: float = DEFAULT_TIMEOUT) -> WorkerPool | None:
    """The shared warm pool for ``(workers, mode)``, or ``None``.

    Creates the pool on first request and re-creates it if a previous one
    was closed.  Returns ``None`` (with a warning) when the pool cannot be
    built -- unavailable start method, bad worker count -- so callers fall
    back to their sequential path.
    """
    if workers < 1:
        return None
    key = (workers, mode)
    with _LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not pool.closed:
            return pool
        try:
            pool = WorkerPool(workers, mode=mode, timeout=timeout)
        except ValueError as exc:
            warnings.warn(f"warm pool unavailable: {exc}", RuntimeWarning,
                          stacklevel=2)
            return None
        _POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Close every registered pool and clear the registry."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
