"""Simulated NUMA execution of Gibbs sampling (paper Section 4.2).

The paper's machine has 4 sockets x 10 cores; DimmWitted's insight is the
trade-off between *hardware efficiency* (avoid cross-socket traffic by giving
every socket its own model replica) and *statistical efficiency* (replicas
that never communicate converge slower; model averaging [Zinkevich et al.]
recovers most of it).

We do not have a NUMA machine, so we *simulate the memory system* with an
explicit cost model while running the actual sampling work in-process:

* every factor-graph edge touched during a sweep costs 1 time unit when the
  model state it reads is socket-local;
* it costs ``remote_penalty`` units when the state lives on another socket
  (the measured local:remote latency ratio of the paper's hardware class,
  default 3.5x);
* sockets work in parallel, so wall-clock time per sweep is the max over
  sockets of their per-socket cost;
* a model-averaging synchronization costs one full cross-socket model copy.

Two configurations reproduce the paper's comparison:

* **NUMA-aware** (DimmWitted): per-socket model replicas, all accesses local,
  averaged every ``sync_every`` sweeps.
* **non-NUMA-aware**: one shared model; a socket's accesses are remote with
  probability (sockets-1)/sockets (the model is interleaved across sockets).

Statistical efficiency is *measured*, not modeled: replicas genuinely run
independent chains on variable shards and genuinely average their marginal
estimates, so slower convergence from infrequent averaging shows up in the
returned marginal error exactly as it does on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.factorgraph.compiled import CompiledGraph
from repro.inference.gibbs import GibbsSampler
from repro.parallel.registry import get_pool
from repro.parallel.warm import VALID_PARALLEL_MODES, ReplicaOutcome


@dataclass(frozen=True)
class NumaConfig:
    """Topology and cost model of the simulated machine.

    The simulated cost model sits atop real :class:`GibbsSampler` sweeps,
    one replica chain per socket.

    ``workers`` is the one switch for *real* parallelism: with
    ``workers > 0`` (and more than one NUMA-aware socket) the replica
    chains run on the warm :class:`~repro.parallel.warm.WorkerPool`
    against a shared-memory copy of the compiled graph, producing
    bit-identical totals to the sequential loop.  ``workers=0`` keeps the
    sequential reference path.  ``parallel_mode`` and ``parallel_timeout``
    tune the pool's start method and crash/stall deadline.
    """

    sockets: int = 4
    cores_per_socket: int = 10
    remote_penalty: float = 3.5
    sync_every: int = 1          # sweeps between model-averaging rounds
    numa_aware: bool = True
    workers: int = 0
    parallel_mode: str = "auto"
    parallel_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("need at least one socket")
        if self.remote_penalty < 1.0:
            raise ValueError("remote accesses cannot be cheaper than local")
        if self.sync_every < 1:
            raise ValueError("sync_every must be at least 1 sweep")
        if self.workers < 0:
            raise ValueError("workers cannot be negative (0 = sequential)")
        if self.parallel_mode not in VALID_PARALLEL_MODES:
            raise ValueError(f"unknown parallel mode {self.parallel_mode!r}")
        if self.parallel_timeout <= 0:
            raise ValueError("parallel_timeout must be positive")


@dataclass
class NumaRunResult:
    """Outcome of a simulated run."""

    marginals: np.ndarray                  # averaged across replicas
    modeled_time: float                    # cost-model time units
    samples_drawn: int                     # total variable samples
    per_socket_cost: list[float] = field(default_factory=list)

    @property
    def modeled_throughput(self) -> float:
        """Variable-samples per modeled time unit (higher is better)."""
        return self.samples_drawn / self.modeled_time if self.modeled_time else 0.0


class NumaGibbs:
    """Run marginal inference under the simulated NUMA cost model."""

    def __init__(self, compiled: CompiledGraph, config: NumaConfig, seed: int = 0) -> None:
        self.compiled = compiled
        self.config = config
        self.seed = seed
        # Each edge touched during a sweep is one model access.  Unary factors
        # touch one edge each; general factors touch each member edge.
        edges = compiled.num_unary + len(compiled.fv_vars)
        self._accesses_per_sweep = max(1, edges)

    def _sweep_cost(self) -> float:
        """Modeled wall-clock cost of one parallel sweep over all sockets."""
        config = self.config
        per_socket_accesses = self._accesses_per_sweep / config.sockets
        if config.numa_aware:
            return per_socket_accesses  # all accesses local
        remote_fraction = (config.sockets - 1) / config.sockets
        mean_cost = 1.0 + remote_fraction * (config.remote_penalty - 1.0)
        return per_socket_accesses * mean_cost

    def _sync_cost(self) -> float:
        """Cost of one cross-socket model-averaging round.

        Model averaging (Zinkevich et al.) exchanges the *model* -- the tied
        weight vector -- not per-variable state, so a round costs one remote
        copy of the weights from each non-resident socket.
        """
        if not self.config.numa_aware or self.config.sockets == 1:
            return 0.0
        return self.compiled.num_weights * (self.config.sockets - 1) \
            * self.config.remote_penalty

    def _modeled_run_time(self, total_sweeps: int) -> float:
        """Modeled wall clock of ``total_sweeps`` parallel sweeps plus sync.

        Accumulated in the exact order the historical sequential loop added
        the terms, so the parallel execution path reports bit-identical
        modeled times to the reference path.
        """
        per_socket_sweep = self._sweep_cost()
        sync_cost = self._sync_cost()
        modeled_time = 0.0
        for sweep_index in range(total_sweeps):
            modeled_time += per_socket_sweep
            if (sweep_index + 1) % self.config.sync_every == 0:
                modeled_time += sync_cost
        return modeled_time

    def _run_replicas_sequential(self, total_sweeps: int,
                                 burn_in: int) -> ReplicaOutcome:
        """The in-process replica loop: the bit-identical reference path."""
        config = self.config
        replicas = [GibbsSampler(self.compiled, seed=self.seed + s)
                    for s in range(config.sockets)]
        worlds = [r.initial_assignment() for r in replicas]
        totals = np.zeros(self.compiled.num_variables, dtype=np.float64)
        socket_samples = [0] * config.sockets
        for sweep_index in range(total_sweeps):
            for socket, (replica, world) in enumerate(zip(replicas, worlds)):
                socket_samples[socket] += replica.sweep(world)
            if sweep_index >= burn_in:
                for world in worlds:
                    totals += world
        return ReplicaOutcome(totals=totals, socket_samples=socket_samples)

    def _run_replicas_pool(self, total_sweeps: int,
                           burn_in: int) -> ReplicaOutcome | None:
        """Fan replicas out over the shared warm pool, or ``None`` (no pool,
        or the dispatch failed), which sends the caller to the
        bit-identical sequential loop."""
        config = self.config
        pool = get_pool(config.workers, mode=config.parallel_mode,
                        timeout=config.parallel_timeout)
        if pool is None:
            return None
        return pool.run_replicas(
            self.compiled, sockets=config.sockets, seed=self.seed,
            total_sweeps=total_sweeps, burn_in=burn_in,
            sync_every=config.sync_every, timeout=config.parallel_timeout)

    def run(self, num_samples: int = 100, burn_in: int = 20) -> NumaRunResult:
        """Draw marginals with one independent chain per socket.

        NUMA-aware mode runs ``sockets`` replicas and averages their marginal
        estimates every ``sync_every`` sweeps (model averaging); the shared
        mode runs the same total number of sweeps on a single chain, paying
        remote-access costs.  With ``workers > 0`` the replica chains run in
        worker processes over shared memory (bit-identical totals); any
        worker failure falls back to the sequential loop with a warning.
        """
        config = self.config
        total_sweeps = burn_in + num_samples
        per_socket_sweep = self._sweep_cost()
        with obs.span("numa.run", sockets=config.sockets,
                      numa_aware=config.numa_aware,
                      sync_every=config.sync_every,
                      workers=config.workers) as sp:
            if config.numa_aware and config.sockets > 1:
                outcome = None
                if config.workers > 0:
                    outcome = self._run_replicas_pool(total_sweeps, burn_in)
                if outcome is None:
                    outcome = self._run_replicas_sequential(total_sweeps,
                                                            burn_in)
                totals, socket_samples = outcome.totals, outcome.socket_samples
                collected = config.sockets * num_samples
                modeled_time = self._modeled_run_time(total_sweeps)
                marginals = totals / max(collected, 1)
                per_socket_cost = [per_socket_sweep * total_sweeps] * config.sockets
            else:
                sampler = GibbsSampler(self.compiled, seed=self.seed)
                world = sampler.initial_assignment()
                totals = np.zeros(self.compiled.num_variables, dtype=np.float64)
                socket_samples = [0] * config.sockets
                collected = 0
                modeled_time = 0.0
                for sweep_index in range(total_sweeps):
                    socket_samples[0] += sampler.sweep(world)
                    modeled_time += per_socket_sweep
                    if sweep_index >= burn_in:
                        totals += world
                        collected += 1
                marginals = totals / max(collected, 1)
                # One chain did the work; the interleaved-memory model
                # spreads its accesses over the sockets, so report each
                # socket's *share* -- replicating the full chain cost per
                # socket would overstate the shared-model configuration's
                # parallel work by a factor of ``sockets``.
                per_socket_cost = [per_socket_sweep * total_sweeps
                                   / config.sockets] * config.sockets
            samples = sum(socket_samples)
            sp.set(samples=samples, modeled_time=modeled_time)
            if obs.enabled():
                for socket, drawn in enumerate(socket_samples):
                    obs.count("numa.samples", drawn, socket=socket)
        clamped = self.compiled.is_evidence
        marginals[clamped] = self.compiled.evidence_values[clamped]
        return NumaRunResult(marginals=marginals, modeled_time=modeled_time,
                             samples_drawn=samples,
                             per_socket_cost=per_socket_cost)
