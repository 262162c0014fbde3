"""Process-wide registry of warm worker pools.

A warm pool only pays off if *every* subsystem that wants ``workers=N``
under start-method ``mode`` shares the same long-lived processes: the NUMA
replica layer, corpus preprocessing, and the serving layer all route
through :func:`get_pool`, which hands out one :class:`~repro.parallel.warm.
WorkerPool` per ``(workers, mode, owner)`` and keeps it alive across calls.

``owner`` partitions the registry: the default ``None`` is the shared pool
every anonymous caller lands on, while a subsystem that must not share its
workers — one shard of a :class:`~repro.serve.shard.ShardedKBService`, say,
whose apply loop would otherwise thrash a sibling shard's segment cache and
serialize both shards' NLP fan-outs through one set of processes — passes
its own token and gets a private pool.  Shard-aware *sizing* is the
caller's half of the bargain: N owners each asking for ``cpus / N`` workers
fan out without oversubscribing the box (see
:func:`effective_cpus` and the serve layer's per-shard worker cap).

Lifetime: the registry owns the pools.  :func:`acquire_pool` /
:func:`release_pool` are *pin counts* for subsystems with an explicit
open/stop lifecycle (``repro.serve``) -- releasing the last pin leaves the
pool warm for the next caller; :func:`shutdown_pools` (registered at
interpreter exit, callable from tests and benches) actually stops workers
and unlinks segments.

No code here reads environment variables; worker counts and modes arrive
through :class:`~repro.obs.config.EngineConfig` plumbing.
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings

from repro.parallel.warm import DEFAULT_TIMEOUT, WorkerPool

_PoolKey = tuple[int, str, str | None]

_LOCK = threading.Lock()
_POOLS: dict[_PoolKey, WorkerPool] = {}
_PINS: dict[_PoolKey, int] = {}


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    The number shard routers divide by when sizing per-shard pools; falls
    back to ``os.cpu_count()`` on platforms without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                        # pragma: no cover - macOS
        return os.cpu_count() or 1


def get_pool(workers: int, mode: str = "auto",
             timeout: float = DEFAULT_TIMEOUT,
             owner: str | None = None) -> WorkerPool | None:
    """The shared warm pool for ``(workers, mode, owner)``, or ``None``.

    Creates the pool on first request and re-creates it if a previous one
    was closed.  Returns ``None`` (with a warning) when the pool cannot be
    built -- unavailable start method, bad worker count -- so callers fall
    back to their sequential path.
    """
    if workers < 1:
        return None
    key = (workers, mode, owner)
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
        _PINS.setdefault(key, 0)
        return pool


def acquire_pool(workers: int, mode: str = "auto",
                 timeout: float = DEFAULT_TIMEOUT,
                 owner: str | None = None) -> WorkerPool | None:
    """``get_pool`` plus a pin: the caller promises a later ``release_pool``."""
    pool = get_pool(workers, mode, timeout, owner=owner)
    if pool is not None:
        with _LOCK:
            for key, tracked in _POOLS.items():
                if tracked is pool:
                    _PINS[key] = _PINS.get(key, 0) + 1
                    break
    return pool


def release_pool(pool: WorkerPool | None) -> None:
    """Drop one pin.  The pool stays warm; the registry owns its lifetime.

    Idempotent for ``None`` and for pools the registry no longer tracks,
    so shutdown paths can call it unconditionally.
    """
    if pool is None:
        return
    with _LOCK:
        for key, tracked in _POOLS.items():
            if tracked is pool:
                _PINS[key] = max(0, _PINS.get(key, 0) - 1)
                return


def pool_pins(pool: WorkerPool) -> int:
    """Current pin count for ``pool`` (0 if untracked); for tests."""
    with _LOCK:
        for key, tracked in _POOLS.items():
            if tracked is pool:
                return _PINS.get(key, 0)
    return 0


def shutdown_pools() -> None:
    """Close every registered pool and clear the registry."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        _PINS.clear()
    for pool in pools:
        pool.close()


atexit.register(shutdown_pools)
