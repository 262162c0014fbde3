"""Persistent warm worker pool: amortize spawn and graph packing.

Spawning processes and packing the compiled graph into shared memory *per
call* dominated every workload BENCH_e15 measured and made the
multiprocess path a slowdown.  :class:`WorkerPool`, the only pool, keeps
both warm, and has one work command, :meth:`WorkerPool.map`:

* **long-lived workers** -- processes are spawned lazily on first dispatch
  and survive across calls, each connected to the parent by one duplex
  pipe that carries small dict commands;
* **generation-tagged segment cache** -- ``map(fn, items, graph=compiled)``
  packs the graph with ``share_compiled`` once; later calls re-use the
  same shared-memory segment, syncing only the *mutable* arrays (weights,
  evidence, initial values) in place when the graph's
  ``mutation_version`` says they changed, and bumping a ``generation``
  counter so workers rebuild their cached samplers against the new
  values.  Each worker then calls ``fn(sampler, item)`` on its cached
  per-(segment, generation) :class:`~repro.inference.gibbs.GibbsSampler`.

Its invariants:

* **deterministic merge** -- chunks are contiguous slices of the input
  keyed by chunk index, so the merged output is exactly
  ``[fn(x) for x in items]`` (or ``[fn(sampler, x) for x in items]``).
* **never a hang** -- every parent wait is bounded by a deadline and also
  watches worker *sentinels*, so a crashed worker is detected immediately;
  any failure (crash, exception, timeout, closed pool) warns and returns
  ``None``, and the caller runs the work in-process.  Failed workers are
  respawned on the next dispatch.
* **observability** -- when the parent has an enabled collector, workers
  install their own :class:`~repro.obs.span.Collector` and ship their span
  trees and metrics back to be adopted into the parent's profile.

The start method is the platform's: fork where it exists, spawn otherwise.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import threading
import warnings
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from time import monotonic, perf_counter
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.parallel.shm import SharedArrayPack, attach_compiled, share_compiled

#: Default wall-clock budget for one dispatch before declaring it stuck.
DEFAULT_TIMEOUT = 120.0

#: Chunks per worker: small enough to amortize IPC, large enough to balance.
_CHUNKS_PER_WORKER = 4

#: CompiledGraph arrays that callers mutate in place between dispatches
#: (the learner's weight steps, holdout evidence clamps).  Everything else
#: in the segment is structural CSR layout that is immutable for the
#: lifetime of a CompiledGraph instance.
MUTABLE_FIELDS = ("weight_values", "is_evidence", "evidence_values",
                  "initial_values", "weight_fixed", "weight_observations")

#: Segments kept warm per pool before LRU eviction; benches sweep a
#: handful of graphs.
DEFAULT_MAX_SEGMENTS = 4

_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

_TOKENS = itertools.count(1)


def chunk_slices(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, order-preserving ``[lo, hi)`` slices over ``count`` items."""
    target = max(1, min(count, workers * _CHUNKS_PER_WORKER))
    base, extra = divmod(count, target)
    slices = []
    lo = 0
    for i in range(target):
        hi = lo + base + (1 if i < extra else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


# ------------------------------------------------------------------ worker
def _graph_sampler(command: dict, segments: dict, samplers: dict):
    """The worker's cached sampler over the command's staged graph."""
    from repro.inference.gibbs import GibbsSampler

    handle = command["graph"]
    name = handle.shm_name
    if name not in segments:
        segments[name] = attach_compiled(handle)
    key = (name, command["generation"])
    sampler = samplers.get(key)
    if sampler is None:
        # A new generation means the mutable arrays changed under the view;
        # drop samplers caching stale weight gathers for this segment.
        for stale in [k for k in samplers if k[0] == name]:
            del samplers[stale]
        sampler = samplers[key] = GibbsSampler(segments[name][1])
    return sampler


def _worker_map(worker_index: int, conn, command: dict, fn: Callable) -> None:
    """Run this worker's share of a map command."""
    collector = obs.Collector() if command["trace"] else None
    results = []
    for index, chunk in command["chunks"]:
        if collector is not None:
            with obs.installed(collector):
                with obs.span("parallel.chunk", worker=worker_index,
                              chunk=index, items=len(chunk)):
                    output = [fn(item) for item in chunk]
        else:
            output = [fn(item) for item in chunk]
        results.append((index, output))
    message: dict = {"kind": "done", "results": results}
    if collector is not None:
        message["trace"] = (collector.roots, collector.metrics)
    conn.send(message)


def _warm_worker(worker_index: int, conn) -> None:
    """Long-lived worker loop: serve ``map`` commands until ``stop`` or EOF.

    Caches shared-memory attachments by segment name and samplers by
    ``(segment, generation)`` so repeat commands over the same
    graph skip re-attachment and sampler construction entirely.
    """
    segments: dict[str, tuple] = {}          # name -> (attached pack, view)
    samplers: dict[tuple, object] = {}
    try:
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            if command.get("kind") == "stop":
                break
            for name in command["evict"]:
                attached = segments.pop(name, None)
                if attached is not None:
                    attached[0].close()
                for stale in [k for k in samplers if k[0] == name]:
                    del samplers[stale]
            try:
                fn = command["fn"]
                if "graph" in command:
                    fn = functools.partial(
                        fn, _graph_sampler(command, segments, samplers))
                _worker_map(worker_index, conn, command, fn)
            except (EOFError, OSError, BrokenPipeError):
                break
            except BaseException as exc:           # noqa: BLE001
                try:
                    conn.send({"kind": "error", "detail": repr(exc)})
                except Exception:
                    break
    finally:
        for attached, _ in segments.values():
            try:
                attached.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


# ------------------------------------------------------------------ parent
@dataclass
class _Slot:
    """Parent-side bookkeeping for one worker process."""

    process: object
    conn: object
    dirty: bool = False                  # abandoned mid-call; must respawn
    pending_evict: list[str] = field(default_factory=list)

    def take_evictions(self) -> list[str]:
        evictions, self.pending_evict = self.pending_evict, []
        return evictions


@dataclass
class _SegmentEntry:
    """One cached shared-memory packing of a compiled graph."""

    pack: SharedArrayPack
    version: int                         # CompiledGraph.mutation_version
    generation: int                      # bumped on every in-place re-sync


class _DispatchFailure(Exception):
    """Internal: abandon the current dispatch; the caller runs in-process."""


class WorkerPool:
    """Persistent pool of warm worker processes over shared-memory graphs.

    ``workers`` is the process count.  :meth:`map` returns ``None`` on any
    failure after issuing a ``RuntimeWarning``; it never raises for
    worker-side problems and never hangs.

    Thread safety: dispatches serialize on an internal lock; ``close`` is
    safe to call from another thread *during* a dispatch (the dispatch
    observes the closed pipes and fails over to ``None``).
    """

    def __init__(self, workers: int, timeout: float = DEFAULT_TIMEOUT,
                 max_segments: int = DEFAULT_MAX_SEGMENTS) -> None:
        if workers < 1:
            raise ValueError("WorkerPool needs workers >= 1; workers=0 is "
                             "the caller's in-process path")
        self.workers = workers
        self.mode = _START_METHOD
        self.timeout = timeout
        self.max_segments = max(1, max_segments)
        self.stats: Counter = Counter()
        self.last_dispatch_overhead: float | None = None
        self.last_dispatch_cold: bool | None = None
        self._ctx = mp.get_context(self.mode)
        # Start the parent's shared-memory resource tracker *before* any
        # worker exists: a worker forked earlier than the tracker would
        # lazily start its own at attach time, and that private tracker
        # unlinks the pool's still-live segments when the worker exits
        # (including crashed workers).  With the parent tracker
        # already running, workers inherit its fd and their attach-time
        # registrations are idempotent set-adds there (see
        # :class:`~repro.parallel.shm.AttachedPack`).
        try:
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:
            pass
        self._slots: list[_Slot | None] = [None] * workers
        self._segments: "OrderedDict[int, _SegmentEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._torn_down = False

    # ------------------------------------------------------------ lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def _spawn(self, worker_index: int) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(target=_warm_worker,
                                    args=(worker_index, child_conn),
                                    daemon=True)
        process.start()
        child_conn.close()
        return _Slot(process=process, conn=parent_conn)

    def _ensure_workers(self, count: int) -> list[_Slot]:
        """Spawn the first ``count`` missing workers; respawn dead/dirty ones.

        Slots beyond ``count`` are left as they are (warm if already
        spawned), so a small dispatch never pays for the full pool width.
        """
        for w in range(count):
            slot = self._slots[w]
            if slot is None:
                self._slots[w] = self._spawn(w)
                self.stats["spawns"] += 1
            elif slot.dirty or not slot.process.is_alive():
                self._discard_slot(slot)
                self._slots[w] = self._spawn(w)
                self.stats["restarts"] += 1
        return self._slots[:count]

    @staticmethod
    def _discard_slot(slot: _Slot) -> None:
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=5.0)
        try:
            slot.conn.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop workers and unlink all cached segments (idempotent).

        Deliberately does NOT take the dispatch lock: closing mid-dispatch
        tears the pipes down under the dispatcher, which observes EOF and
        fails over to ``None`` instead of hanging.
        """
        self._closed = True
        with self._close_lock:
            if self._torn_down:
                return
            self._torn_down = True
            live = [slot for slot in self._slots if slot is not None]
            for slot in live:
                try:
                    slot.conn.send({"kind": "stop"})
                except Exception:
                    pass
            for slot in live:
                slot.process.join(timeout=1.0)
            for slot in live:
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=5.0)
            for slot in live:
                try:
                    slot.conn.close()
                except Exception:
                    pass
            self._slots = [None] * self.workers
            for entry in self._segments.values():
                entry.pack.close()
            self._segments.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------- segment staging
    def _stage_graph(self, compiled) -> _SegmentEntry:
        token = getattr(compiled, "_pool_token", None)
        if token is None:
            token = next(_TOKENS)
            compiled._pool_token = token
        version = getattr(compiled, "mutation_version", 0)
        entry = self._segments.get(token)
        if entry is not None:
            self._segments.move_to_end(token)
            stale = entry.version != version or any(
                not np.array_equal(entry.pack.views[name],
                                   np.asarray(getattr(compiled, name)))
                for name in MUTABLE_FIELDS)
            if stale:
                for name in MUTABLE_FIELDS:
                    entry.pack.views[name][...] = np.asarray(
                        getattr(compiled, name))
                entry.version = version
                entry.generation += 1
                self.stats["repacks"] += 1
            else:
                self.stats["cache_hits"] += 1
            return entry
        pack = share_compiled(compiled)
        entry = _SegmentEntry(pack=pack, version=version, generation=0)
        self._segments[token] = entry
        self.stats["packs"] += 1
        while len(self._segments) > self.max_segments:
            _, evicted = self._segments.popitem(last=False)
            name = evicted.pack.handle.shm_name
            evicted.pack.close()
            self.stats["evictions"] += 1
            for slot in self._slots:
                if slot is not None:
                    slot.pending_evict.append(name)
        return entry

    # ------------------------------------------------------------- dispatch
    def _fail(self, reason: str, active_slots: Sequence[_Slot]) -> None:
        """Abandon the in-flight dispatch: warn, count, mark for respawn."""
        self.stats["failures"] += 1
        for slot in active_slots:
            slot.dirty = True
        warnings.warn(f"warm pool dispatch failed ({reason}); "
                      "falling back to the in-process path", RuntimeWarning,
                      stacklevel=3)

    def map(self, fn: Callable, items: Sequence, *, graph=None,
            timeout: float | None = None) -> list | None:
        """``[fn(x) for x in items]`` across the warm workers, or ``None``.

        With ``graph`` (a :class:`~repro.factorgraph.compiled.CompiledGraph`)
        the graph is staged in the segment cache and each worker calls
        ``fn(sampler, x)`` on its cached sampler over the shared copy.
        Deterministic merge by contiguous chunk index; ``fn`` must be a
        picklable module-level callable.
        """
        if self._closed:
            return None
        items = list(items)
        if not items:
            return []
        timeout = self.timeout if timeout is None else timeout
        with self._lock:
            if self._closed:
                return None
            started = perf_counter()
            active_slots: list[_Slot] = []
            try:
                active = min(self.workers, len(items))
                spawned_before = self.stats["spawns"] + self.stats["restarts"]
                active_slots = self._ensure_workers(active)
                cold = (self.stats["spawns"] + self.stats["restarts"]
                        > spawned_before)
                staged = {}
                if graph is not None:
                    entry = self._stage_graph(graph)
                    staged = {"graph": entry.pack.handle,
                              "generation": entry.generation}
                trace = obs.enabled()
                slices = chunk_slices(len(items), active)
                shares: list[list[tuple[int, list]]] = [[] for _ in
                                                        range(active)]
                for index, (lo, hi) in enumerate(slices):
                    shares[index % active].append((index, items[lo:hi]))
                for w, slot in enumerate(active_slots):
                    slot.conn.send({
                        "kind": "map",
                        "fn": fn,
                        "chunks": shares[w],
                        "trace": trace,
                        "evict": slot.take_evictions(),
                        **staged,
                    })
                self.last_dispatch_overhead = perf_counter() - started
                self.last_dispatch_cold = cold
                self.stats["dispatches"] += 1
                if trace:
                    obs.observe("parallel.dispatch_overhead_seconds",
                                self.last_dispatch_overhead, cold=cold)
                collected, adopted = self._collect(active_slots, timeout)
                for spans, metrics in adopted:
                    obs.adopt(spans, metrics)
                merged: list = []
                for index in range(len(slices)):
                    merged.extend(collected[index])
                return merged
            except _DispatchFailure as exc:
                self._fail(str(exc), active_slots)
                return None
            except Exception as exc:             # pipe, pickling, attach, ...
                self._fail(repr(exc), active_slots)
                return None

    def _collect(self, active_slots: list[_Slot],
                 timeout: float) -> tuple[dict[int, list], list[tuple]]:
        """Wait for every active worker's results, bounded by ``timeout``."""
        deadline = monotonic() + timeout
        pending = set(range(len(active_slots)))
        collected: dict[int, list] = {}
        adopted: list[tuple] = []
        conn_of = {active_slots[w].conn: w for w in pending}
        sentinel_of = {active_slots[w].process.sentinel: w for w in pending}
        while pending:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise _DispatchFailure("deadline exceeded")
            watch = [active_slots[w].conn for w in pending] \
                + [active_slots[w].process.sentinel for w in pending]
            ready = _connection_wait(watch, timeout=min(remaining, 0.25))
            for obj in ready:
                w = conn_of.get(obj)
                if w is None or w not in pending:
                    continue
                message = active_slots[w].conn.recv()
                if message.get("kind") == "error":
                    raise _DispatchFailure(
                        f"worker raised {message.get('detail')}")
                pending.discard(w)
                for index, output in message["results"]:
                    collected[index] = output
                if message.get("trace") is not None:
                    adopted.append(message["trace"])
            for obj in ready:
                w = sentinel_of.get(obj)
                if w is None or w not in pending:
                    continue
                # The process died; drain any message that raced the death
                # before declaring failure.
                if active_slots[w].conn.poll(0):
                    continue
                active_slots[w].process.join(timeout=0.1)   # reap exitcode
                raise _DispatchFailure(
                    f"worker exited with {active_slots[w].process.exitcode}")
        return collected, adopted
