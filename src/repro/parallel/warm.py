"""Persistent warm worker pool: amortize spawn, packing, and rendezvous.

Spawning processes, packing the compiled graph into shared memory and
building a ``multiprocessing.Barrier`` *per call* dominated every workload
BENCH_e15 measured and made the multiprocess path a slowdown.
:class:`WorkerPool`, the only pool, keeps all three warm:

* **long-lived workers** -- processes are spawned lazily on first dispatch
  and survive across ``run_replicas`` / ``map`` calls, each connected to
  the parent by one duplex pipe that carries small dict commands;
* **generation-tagged segment cache** -- ``share_compiled`` packing happens
  once per graph; later calls re-use the same shared-memory segment,
  syncing only the *mutable* arrays (weights, evidence, initial values)
  in place when the graph's ``mutation_version`` says they changed, and
  bumping a ``generation`` counter so workers rebuild their cached
  samplers against the new values;
* **pipe rendezvous** -- model-averaging sync rounds are a ``sync`` message
  up each worker's pipe and a ``go`` reply from the parent, replacing the
  per-round ``multiprocessing.Barrier`` (which cannot be reused across
  calls and costs a semaphore round trip per waiter per round).

Its invariants:

* **bit-identical results** -- replica ``s`` always runs with an RNG seeded
  ``seed + s``; one cached sampler serves every replica on a worker by
  swapping its ``rng`` between sweeps, which consumes each replica's
  stream exactly as a dedicated sampler would.  Totals are exact integer
  sums in float64, merged order-independently.
* **never a hang** -- every parent wait is bounded by a deadline and also
  watches worker *sentinels*, so a crashed worker is detected immediately;
  any failure (crash, exception, timeout, closed pool) warns and returns
  ``None``, and the caller falls back to its sequential path.  Failed
  workers are respawned on the next dispatch.
* **deterministic merge** -- ``map`` chunks are contiguous slices of the
  input and results are keyed by chunk index, so the merged output is
  exactly ``[fn(x) for x in items]`` regardless of which worker ran what.
* **observability** -- when the parent has an enabled collector, workers
  install their own :class:`~repro.obs.span.Collector` and ship their span
  trees and metrics back to be adopted into the parent's profile.

Fault injection for the test suite: :meth:`WorkerPool.inject_fault` arms a
one-shot fault (``exit``, ``hang`` or ``raise``) that a worker applies at a
chosen sync boundary of its next replica command.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
import warnings
from collections import Counter, OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from time import monotonic, perf_counter
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.parallel.shm import (AttachedPack, SharedArrayPack, attach_compiled,
                                share_compiled)

#: Default wall-clock budget for one dispatch before declaring it stuck.
DEFAULT_TIMEOUT = 120.0

#: Chunks per worker: small enough to amortize IPC, large enough to balance.
_CHUNKS_PER_WORKER = 4

#: CompiledGraph arrays that callers mutate in place between dispatches
#: (the learner's weight steps, holdout evidence clamps, serve-layer
#: deltas).  Everything else in the segment is structural CSR layout that
#: is immutable for the lifetime of a CompiledGraph instance.
MUTABLE_FIELDS = ("weight_values", "is_evidence", "evidence_values",
                  "initial_values", "weight_fixed", "weight_observations")

#: Segments kept warm per pool before LRU eviction.  Serving keeps at most
#: a couple of live graphs (current + one being rebuilt); benches sweep a
#: handful.
DEFAULT_MAX_SEGMENTS = 4

_TOKENS = itertools.count(1)


@dataclass
class ReplicaOutcome:
    """What the replica fan-out (or its sequential twin) produces."""

    totals: np.ndarray           # per-variable post-burn-in marginal totals
    socket_samples: list[int]    # variable samples drawn per replica


def resolve_mode(mode: str) -> str:
    """Map the ``parallel_mode`` knob to a concrete start method."""
    methods = mp.get_all_start_methods()
    if mode == "auto":
        return "fork" if "fork" in methods else "spawn"
    if mode not in methods:
        raise ValueError(f"start method {mode!r} unavailable on this "
                         f"platform (have {methods})")
    return mode


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
def _worker_replicas(worker_index: int, conn, command: dict,
                     attachments: dict, views: dict, samplers: dict) -> None:
    """Run one replica command against cached segment attachments."""
    from repro.inference.gibbs import GibbsSampler

    handle = command["graph"]
    name = handle.shm_name
    if name not in attachments:
        pack, view = attach_compiled(handle)
        attachments[name] = pack
        views[name] = view
    view = views[name]
    key = (name, command["generation"])
    sampler = samplers.get(key)
    if sampler is None:
        # A new generation means the mutable arrays changed under the view;
        # drop samplers caching stale weight gathers for this segment.
        for stale in [k for k in samplers if k[0] == name]:
            del samplers[stale]
        sampler = GibbsSampler(view, seed=0)
        samplers[key] = sampler

    acc_handle = command["acc"]
    if acc_handle.shm_name not in attachments:
        attachments[acc_handle.shm_name] = AttachedPack(acc_handle)
    acc = attachments[acc_handle.shm_name]
    totals = acc.views["totals"]
    samples_out = acc.views["samples"]

    replica_ids = command["replica_ids"]
    seed = command["seed"]
    total_sweeps = command["total_sweeps"]
    burn_in = command["burn_in"]
    sync_every = command["sync_every"]
    rendezvous = command["rendezvous"]
    fault = command.get("fault")

    collector = obs.Collector() if command["trace"] else None
    scope = obs.installed(collector) if collector is not None else nullcontext()
    abandoned = False
    with scope:
        with obs.span("numa.replica_worker", worker=worker_index,
                      replicas=len(replica_ids)) as sp:
            # One cached sampler serves every replica: swapping ``rng``
            # before each touch consumes replica s's stream (seeded
            # seed + s) exactly as a dedicated sampler would, so results
            # stay bit-identical to the sequential reference.
            rngs = [np.random.default_rng(seed + s) for s in replica_ids]
            worlds = []
            for rng in rngs:
                sampler.rng = rng
                worlds.append(sampler.initial_assignment())
            drawn = [0] * len(replica_ids)
            sync_round = 0
            for sweep_index in range(total_sweeps):
                for i, rng in enumerate(rngs):
                    sampler.rng = rng
                    drawn[i] += sampler.sweep(worlds[i])
                if sweep_index >= burn_in:
                    for i, s in enumerate(replica_ids):
                        totals[s] += worlds[i]
                if sync_every > 0 and (sweep_index + 1) % sync_every == 0:
                    sync_round += 1
                    if fault is not None and fault["at_sync"] == sync_round:
                        if fault["action"] == "exit":
                            os._exit(3)
                        if fault["action"] == "raise":
                            raise RuntimeError("injected worker fault")
                        while True:              # "hang": close() kills us
                            time.sleep(3600.0)
                    if rendezvous:
                        conn.send({"kind": "sync", "round": sync_round})
                        reply = conn.recv()
                        if reply.get("kind") != "go":
                            abandoned = True     # parent gave up this call
                            break
            if not abandoned:
                for i, s in enumerate(replica_ids):
                    samples_out[s] = drawn[i]
                sp.set(samples=sum(drawn))
    if abandoned:
        return
    message: dict = {"kind": "done"}
    if collector is not None:
        message["trace"] = (collector.roots, collector.metrics)
    conn.send(message)


def _worker_map(worker_index: int, conn, command: dict) -> None:
    """Run this worker's share of a fan-out map command."""
    fn = command["fn"]
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
    """Long-lived worker loop: serve commands until ``stop`` or pipe EOF.

    Caches shared-memory attachments by segment name and samplers by
    ``(segment, generation)`` so repeat commands over the same
    graph skip re-attachment and sampler construction entirely.
    """
    attachments: dict[str, object] = {}
    views: dict[str, object] = {}
    samplers: dict[tuple, object] = {}
    try:
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(command, dict):
                continue
            kind = command.get("kind")
            if kind == "stop":
                break
            for name in command.get("evict", ()):
                pack = attachments.pop(name, None)
                views.pop(name, None)
                if pack is not None:
                    pack.close()
                for stale in [k for k in samplers if k[0] == name]:
                    del samplers[stale]
            try:
                if kind == "ping":
                    conn.send({"kind": "pong"})
                elif kind == "replicas":
                    _worker_replicas(worker_index, conn, command,
                                     attachments, views, samplers)
                elif kind == "map":
                    _worker_map(worker_index, conn, command)
            except (EOFError, OSError, BrokenPipeError):
                break
            except BaseException as exc:           # noqa: BLE001
                try:
                    conn.send({"kind": "error", "detail": repr(exc)})
                except Exception:
                    break
    finally:
        for pack in attachments.values():
            try:
                pack.close()
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
    """Internal: abandon the current dispatch and fall back sequential."""


class WorkerPool:
    """Persistent pool of warm worker processes over shared-memory graphs.

    ``workers`` is the process count; ``mode`` the start method knob
    (``"auto"``/``"fork"``/``"spawn"``, resolved once at construction --
    an unavailable method raises :class:`ValueError` so callers can fall
    back to sequential).  All dispatch methods return ``None`` on any
    failure after issuing a ``RuntimeWarning``; they never raise for
    worker-side problems and never hang.

    Thread safety: dispatches serialize on an internal lock; ``close`` is
    safe to call from another thread *during* a dispatch (the dispatch
    observes the closed pipes and fails over to ``None``).
    """

    def __init__(self, workers: int, mode: str = "auto",
                 timeout: float = DEFAULT_TIMEOUT,
                 max_segments: int = DEFAULT_MAX_SEGMENTS) -> None:
        if workers < 1:
            raise ValueError("WorkerPool needs workers >= 1; workers=0 is "
                             "the caller's sequential path")
        self.workers = workers
        self.mode = resolve_mode(mode)
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
        # (including fault-injected deaths).  With the parent tracker
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
        self._acc: SharedArrayPack | None = None
        self._faults: dict[int, dict] = {}
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

    def _ensure_workers(self, count: int | None = None) -> list[_Slot]:
        """Spawn the first ``count`` missing workers; respawn dead/dirty ones.

        Slots beyond ``count`` are left as they are (warm if already
        spawned), so a small dispatch never pays for the full pool width.
        """
        count = self.workers if count is None else min(count, self.workers)
        for w in range(count):
            slot = self._slots[w]
            if slot is None:
                self._slots[w] = self._spawn(w)
                self.stats["spawns"] += 1
            elif slot.dirty or not slot.process.is_alive():
                self._discard_slot(slot)
                self._slots[w] = self._spawn(w)
                self.stats["restarts"] += 1
        return [slot for slot in self._slots if slot is not None]

    @staticmethod
    def _discard_slot(slot: _Slot) -> None:
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=5.0)
        try:
            slot.conn.close()
        except Exception:
            pass

    def warm(self) -> bool:
        """Spawn all workers and round-trip a ping; True when all answer.

        Benchmarks call this before timing so measurements exclude spawn
        cost; the serving layer calls it at pool acquisition.
        """
        if self._closed:
            return False
        with self._lock:
            try:
                slots = self._ensure_workers()
                for slot in slots:
                    slot.conn.send({"kind": "ping",
                                    "evict": slot.take_evictions()})
                deadline = monotonic() + self.timeout
                for slot in slots:
                    if not slot.conn.poll(max(0.0, deadline - monotonic())):
                        slot.dirty = True
                        return False
                    reply = slot.conn.recv()
                    if reply.get("kind") != "pong":
                        slot.dirty = True
                        return False
                return True
            except (OSError, EOFError, BrokenPipeError):
                for slot in self._slots:
                    if slot is not None:
                        slot.dirty = True
                return False

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
            if self._acc is not None:
                self._acc.close()
                self._acc = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------- fault injection
    def inject_fault(self, worker_index: int, *, at_sync: int = 1,
                     action: str = "exit") -> None:
        """Arm a one-shot fault for ``worker_index``'s next replica command.

        ``action="exit"`` hard-kills the worker (``os._exit``) at the
        ``at_sync``-th sync boundary; ``"hang"`` sleeps forever there
        (exercising the deadline / shutdown paths); ``"raise"`` throws an
        exception there (the worker survives and reports it).  Test hook
        only.
        """
        if action not in ("exit", "hang", "raise"):
            raise ValueError(f"unknown fault action {action!r}")
        self._faults[worker_index] = {"at_sync": at_sync, "action": action}

    # ------------------------------------------------------- segment staging
    def prestage(self, compiled) -> None:
        """Pack (or re-sync) ``compiled`` into the segment cache now.

        The serving layer calls this right after (re)compiling a graph so
        the first query against the new generation pays no packing cost.
        """
        if self._closed:
            return
        with self._lock:
            self._stage_graph(compiled)

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

    def _stage_acc(self, sockets: int, num_variables: int) -> SharedArrayPack:
        shape = (sockets, num_variables)
        acc = self._acc
        if acc is not None and acc.views["totals"].shape == shape:
            acc.views["totals"][...] = 0.0
            acc.views["samples"][...] = 0
            return acc
        if acc is not None:
            name = acc.handle.shm_name
            acc.close()
            for slot in self._slots:
                if slot is not None:
                    slot.pending_evict.append(name)
        self._acc = SharedArrayPack({
            "totals": np.zeros(shape, dtype=np.float64),
            "samples": np.zeros(sockets, dtype=np.int64),
        })
        return self._acc

    # ------------------------------------------------------------- dispatch
    def _fail(self, reason: str, active_slots: Sequence[_Slot],
              what: str) -> None:
        """Abandon the in-flight dispatch: warn, count, mark for respawn."""
        self.stats["failures"] += 1
        for slot in active_slots:
            slot.dirty = True
        warnings.warn(f"warm pool {what} failed ({reason}); "
                      "falling back to the sequential path", RuntimeWarning,
                      stacklevel=4)

    def run_replicas(self, compiled, *, sockets: int, seed: int,
                     total_sweeps: int, burn_in: int, sync_every: int = 1,
                     timeout: float | None = None) -> ReplicaOutcome | None:
        """Fan ``sockets`` replica chains over the warm workers.

        Replica ``s`` always runs with seed ``seed + s``; totals are
        bit-identical to the sequential loop, ``None`` on any failure.
        """
        if self._closed or sockets < 1:
            return None
        timeout = self.timeout if timeout is None else timeout
        with self._lock:
            if self._closed:
                return None
            started = perf_counter()
            active_slots: list[_Slot] = []
            try:
                active = min(self.workers, sockets)
                spawned_before = self.stats["spawns"] + self.stats["restarts"]
                active_slots = self._ensure_workers(active)[:active]
                cold = (self.stats["spawns"] + self.stats["restarts"]
                        > spawned_before)
                entry = self._stage_graph(compiled)
                acc = self._stage_acc(sockets, compiled.num_variables)
                trace = obs.enabled()
                rendezvous = active > 1 and sync_every > 0
                assignments = [[s for s in range(sockets) if s % active == w]
                               for w in range(active)]
                with obs.span("numa.parallel_replicas", sockets=sockets,
                              workers=active,
                              sync_every=sync_every) as sp:
                    for w, slot in enumerate(active_slots):
                        slot.conn.send({
                            "kind": "replicas",
                            "graph": entry.pack.handle,
                            "generation": entry.generation,
                            "acc": acc.handle,
                            "replica_ids": assignments[w],
                            "seed": seed,
                            "total_sweeps": total_sweeps,
                            "burn_in": burn_in,
                            "sync_every": sync_every,
                            "rendezvous": rendezvous,
                            "trace": trace,
                            "fault": self._faults.pop(w, None),
                            "evict": slot.take_evictions(),
                        })
                    self.last_dispatch_overhead = perf_counter() - started
                    self.last_dispatch_cold = cold
                    self.stats["dispatches"] += 1
                    if obs.enabled():
                        obs.observe("parallel.dispatch_overhead_seconds",
                                    self.last_dispatch_overhead,
                                    cold=cold, workload="replicas")
                    adopted = self._collect_replicas(active_slots, timeout)
                    outcome = ReplicaOutcome(
                        totals=np.array(acc.views["totals"]).sum(axis=0),
                        socket_samples=[int(n) for n in acc.views["samples"]])
                    sp.set(samples=sum(outcome.socket_samples))
                    for spans, metrics in adopted:
                        obs.adopt(spans, metrics)
                return outcome
            except _DispatchFailure as exc:
                self._fail(str(exc), active_slots, "replica dispatch")
                return None
            except Exception as exc:             # pipe, pickling, attach, ...
                self._fail(repr(exc), active_slots, "replica dispatch")
                return None

    def _collect_replicas(self, active_slots: list[_Slot],
                          timeout: float) -> list[tuple]:
        """Drive the rendezvous protocol until every worker reports done."""
        deadline = monotonic() + timeout
        pending = set(range(len(active_slots)))
        arrivals: dict[int, set[int]] = {}
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
            ready_set = set(ready)
            for obj in ready:
                w = conn_of.get(obj)
                if w is None or w not in pending:
                    continue
                message = active_slots[w].conn.recv()
                kind = message.get("kind")
                if kind == "done":
                    pending.discard(w)
                    if message.get("trace") is not None:
                        adopted.append(message["trace"])
                elif kind == "sync":
                    r = message["round"]
                    seen = arrivals.setdefault(r, set())
                    seen.add(w)
                    if len(seen) == len(active_slots):
                        del arrivals[r]
                        for slot in active_slots:
                            slot.conn.send({"kind": "go"})
                elif kind == "error":
                    raise _DispatchFailure(
                        f"worker raised {message.get('detail')}")
                else:
                    raise _DispatchFailure(
                        f"unexpected worker message {kind!r}")
            for obj in ready_set:
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
        return adopted

    def map(self, fn: Callable, items: Sequence, *,
            timeout: float | None = None) -> list | None:
        """``[fn(x) for x in items]`` across the warm workers, or ``None``.

        Deterministic merge by contiguous chunk index; ``fn`` must be a
        picklable module-level callable under ``spawn``.
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
                active_slots = self._ensure_workers(active)[:active]
                cold = (self.stats["spawns"] + self.stats["restarts"]
                        > spawned_before)
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
                    })
                self.last_dispatch_overhead = perf_counter() - started
                self.last_dispatch_cold = cold
                self.stats["dispatches"] += 1
                if obs.enabled():
                    obs.observe("parallel.dispatch_overhead_seconds",
                                self.last_dispatch_overhead,
                                cold=cold, workload="map")
                collected, adopted = self._collect_map(active_slots, timeout)
                for spans, metrics in adopted:
                    obs.adopt(spans, metrics)
                merged: list = []
                for index in range(len(slices)):
                    merged.extend(collected[index])
                return merged
            except _DispatchFailure as exc:
                self._fail(str(exc), active_slots, "fan-out")
                return None
            except Exception as exc:             # pipe, pickling, attach, ...
                self._fail(repr(exc), active_slots, "fan-out")
                return None

    def _collect_map(self, active_slots: list[_Slot],
                     timeout: float) -> tuple[dict[int, list], list[tuple]]:
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
            ready_set = set(ready)
            for obj in ready:
                w = conn_of.get(obj)
                if w is None or w not in pending:
                    continue
                message = active_slots[w].conn.recv()
                kind = message.get("kind")
                if kind == "done":
                    pending.discard(w)
                    for index, output in message["results"]:
                        collected[index] = output
                    if message.get("trace") is not None:
                        adopted.append(message["trace"])
                elif kind == "error":
                    raise _DispatchFailure(
                        f"worker raised {message.get('detail')}")
                else:
                    raise _DispatchFailure(
                        f"unexpected worker message {kind!r}")
            for obj in ready_set:
                w = sentinel_of.get(obj)
                if w is None or w not in pending:
                    continue
                if active_slots[w].conn.poll(0):
                    continue
                active_slots[w].process.join(timeout=0.1)   # reap exitcode
                raise _DispatchFailure(
                    f"worker exited with {active_slots[w].process.exitcode}")
        return collected, adopted
