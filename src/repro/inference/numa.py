"""Simulated NUMA execution of Gibbs sampling (paper Section 4.2).

The paper's machine has 4 sockets x 10 cores; DimmWitted's insight is the
trade-off between *hardware efficiency* (avoid cross-socket traffic by giving
every socket its own model replica) and *statistical efficiency* (replicas
that never communicate converge slower; model averaging [Zinkevich et al.]
recovers most of it).

We do not have a NUMA machine, so we *simulate the memory system* with an
explicit cost model while running the actual sampling work:

* every factor-graph edge touched during a sweep costs 1 time unit when the
  model state it reads is socket-local;
* it costs ``remote_penalty`` units when the state lives on another socket
  (the measured local:remote latency ratio of the paper's hardware class,
  default 3.5x);
* sockets work in parallel, so wall-clock time per sweep is the max over
  sockets of their per-socket cost;
* a model-averaging synchronization costs one full cross-socket model copy.

Two configurations reproduce the paper's comparison:

* **NUMA-aware** (DimmWitted): one model replica per socket, all accesses
  local, a modeled averaging round every ``sync_every`` sweeps.
* **non-NUMA-aware**: one shared model; a socket's accesses are remote with
  probability (sockets-1)/sockets (the model is interleaved across sockets).

What is real and what is modeled: each replica is an independent Gibbs
chain over the *whole* graph, and the replicas' marginal estimates are
averaged once, at the end of the run.  ``sync_every`` moves only the
modeled time (how many averaging rounds are charged); it does not change
the chains or the returned marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.factorgraph.compiled import CompiledGraph
from repro.inference.gibbs import GibbsSampler, check_chain_length
from repro.parallel.registry import get_pool


@dataclass(frozen=True)
class NumaConfig:
    """Topology and cost model of the simulated machine.

    The simulated cost model sits atop real :class:`GibbsSampler` sweeps,
    one whole-graph replica chain per NUMA-aware socket.

    ``workers`` is the one switch for *real* parallelism: with
    ``workers > 0`` the replica chains run on the warm
    :class:`~repro.parallel.warm.WorkerPool` against a shared-memory copy
    of the compiled graph, producing bit-identical totals to the
    in-process loop.  ``workers=0`` runs them in-process.
    """

    sockets: int = 4
    remote_penalty: float = 3.5
    sync_every: int = 1          # sweeps between modeled averaging rounds
    numa_aware: bool = True
    workers: int = 0

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("need at least one socket")
        if self.remote_penalty < 1.0:
            raise ValueError("remote accesses cannot be cheaper than local")
        if self.sync_every < 1:
            raise ValueError("sync_every must be at least 1 sweep")
        if self.workers < 0:
            raise ValueError("workers cannot be negative (0 = in-process)")


@dataclass
class NumaRunResult:
    """Outcome of a simulated run."""

    marginals: np.ndarray                  # averaged across replicas
    modeled_time: float                    # cost-model time units
    samples_drawn: int                     # total variable samples
    per_socket_cost: list[float] = field(default_factory=list)


def replica_totals(sampler: GibbsSampler,
                   task: tuple[int, int, int]) -> tuple[np.ndarray, int]:
    """Run one replica chain; ``task`` is ``(seed, total_sweeps, burn_in)``.

    Reseeding ``sampler`` consumes the stream a dedicated
    ``GibbsSampler(compiled, seed=seed)`` would, so one sampler serves every
    replica, in-process or in a pool worker.  Returns the per-variable
    totals of the post-burn-in worlds and the variable samples drawn, from
    one :meth:`GibbsSampler.run_chain`.
    """
    seed, total_sweeps, burn_in = task
    with obs.span("numa.replica", seed=seed):
        sampler.rng = np.random.default_rng(seed)
        world = sampler.initial_assignment()
        return sampler.run_chain(world, total_sweeps - burn_in, burn_in)


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
        copy of the weights from each non-resident socket.  Zero for the
        shared model and for one socket, which have nothing to average.
        """
        if not self.config.numa_aware or self.config.sockets == 1:
            return 0.0
        return self.compiled.num_weights * (self.config.sockets - 1) \
            * self.config.remote_penalty

    def _modeled_run_time(self, total_sweeps: int) -> float:
        """Modeled wall clock of ``total_sweeps`` parallel sweeps plus one
        averaging round every ``sync_every`` sweeps, summed term by term."""
        per_socket_sweep = self._sweep_cost()
        sync_cost = self._sync_cost()
        modeled_time = 0.0
        for sweep_index in range(total_sweeps):
            modeled_time += per_socket_sweep
            if (sweep_index + 1) % self.config.sync_every == 0:
                modeled_time += sync_cost
        return modeled_time

    def run(self, num_samples: int = 100, burn_in: int = 20) -> NumaRunResult:
        """Draw marginals from independent replica chains and average them.

        NUMA-aware mode runs ``sockets`` whole-graph replicas, replica ``s``
        seeded ``seed + s``; the shared mode runs one chain seeded ``seed``,
        paying remote-access costs.  The marginals are the average over
        every replica's post-burn-in worlds; ``sync_every`` only sets how
        many averaging rounds the modeled time charges.  With
        ``workers > 0`` the replicas run on the warm pool; if it is
        unavailable or a dispatch fails (with a warning), they run
        in-process.  Either way the totals are exact integer sums, so the
        result is bit-identical.  Raises ``ValueError`` for
        ``num_samples < 1`` or ``burn_in < 0``.
        """
        check_chain_length(num_samples, burn_in)
        config = self.config
        total_sweeps = burn_in + num_samples
        replicas = config.sockets if config.numa_aware else 1
        tasks = [(self.seed + s, total_sweeps, burn_in)
                 for s in range(replicas)]
        with obs.span("numa.run", sockets=config.sockets,
                      numa_aware=config.numa_aware,
                      sync_every=config.sync_every,
                      workers=config.workers) as sp:
            outcomes = None
            pool = get_pool(config.workers)
            if pool is not None:
                outcomes = pool.map(replica_totals, tasks, graph=self.compiled)
            if outcomes is None:
                sampler = GibbsSampler(self.compiled)
                outcomes = [replica_totals(sampler, t) for t in tasks]
            marginals = sum(totals for totals, _ in outcomes) \
                / (replicas * num_samples)
            modeled_time = self._modeled_run_time(total_sweeps)
            share = self._sweep_cost() * total_sweeps
            if not config.numa_aware:
                # One chain did the work; the interleaved-memory model
                # spreads its accesses over the sockets, so report each
                # socket's *share* -- replicating the full chain cost per
                # socket would overstate the shared-model configuration's
                # parallel work by a factor of ``sockets``.
                share /= config.sockets
            samples = sum(drawn for _, drawn in outcomes)
            sp.set(samples=samples, modeled_time=modeled_time)
            if obs.enabled():
                for socket, (_, drawn) in enumerate(outcomes):
                    obs.count("numa.samples", drawn, socket=socket)
        clamped = self.compiled.is_evidence
        marginals[clamped] = self.compiled.evidence_values[clamped]
        return NumaRunResult(marginals=marginals, modeled_time=modeled_time,
                             samples_drawn=samples,
                             per_socket_cost=[share] * config.sockets)
