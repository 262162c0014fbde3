"""Incremental inference: sampling vs. variational materialization.

Paper, Section 4.2: "There are two popular classes of approximate inference
techniques: sampling-based materialization (inspired by sampling-based
probabilistic databases such as MCDB) and variational-based materialization
(inspired by techniques for approximating graphical models). ... these two
approaches are sensitive to changes in the size of the factor graph, the
sparsity of correlations, and the anticipated number of future changes.  The
performance varies by up to two orders of magnitude ... To automatically
choose the materialization strategy, we use a simple rule-based optimizer."

Both strategies answer the same question -- after a grounding delta, what are
the new marginals? -- with different cost profiles:

* **Sampling materialization** stores the chain state (a world + marginals).
  An update resamples only the variables within ``radius`` hops of the
  change, clamping the frontier to the stored world.  Cost scales with the
  *affected region*, so it wins on sparse graphs with few changes.
* **Variational materialization** stores mean-field parameters.  An update
  warm-starts fully-vectorized mean-field passes over the whole graph.  Cost
  per update is near-constant in the number of changed variables, so it wins
  when updates are large or frequent, at some accuracy cost on strongly
  coupled graphs.

Both run on the Gibbs sampler's color blocks: the sampling update runs one
chain of a :class:`~repro.inference.GibbsSampler` restricted to the region
(``GibbsSampler.run_chain``, the one multi-sweep loop), and a
mean-field pass is one Jacobi update, one expected-delta kernel call per
color.  The scalar per-variable forms are test oracles only.

Costs are reported in *work units* (variable-visits for sampling, edge-visits
per pass for mean field) so benchmarks can compare strategies independent of
interpreter noise.

What the strategies materialize lives in one value, :class:`ChainState`:
the variable keys of the graph it was computed on plus three arrays aligned
to them (Gibbs ``world``, ``marginals``, mean-field ``mu``).  Variable
*indices* do not survive a recompilation, keys do, so :func:`refresh` is
the one place that re-aligns a stored state to a freshly compiled graph,
collects the changed set (new variables + touched keys), runs the chosen
strategy and returns the next state.  ``DeepDive.run_incremental`` and the
serving engine are thin callers of it.  A serving checkpoint stores a state
as arrays, not keys: one row per variable holding its graph id, world bit
and the bit patterns of its marginal and mean-field parameter
(``ServeEngine.checkpoint_payload``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable

import numpy as np

from repro.factorgraph.compiled import CompiledGraph, _csr_rows
from repro.inference.gibbs import GibbsSampler, check_chain_length


@dataclass
class UpdateResult:
    """Marginals after an incremental update, plus the work spent."""

    marginals: np.ndarray
    work: float


class SamplingMaterialization:
    """Materialize the Gibbs chain; updates resample a neighbourhood."""

    def __init__(self, compiled: CompiledGraph, seed: int = 0,
                 num_samples: int = 100, burn_in: int = 20) -> None:
        self.compiled = compiled
        sampler = GibbsSampler(compiled, seed=seed)
        self.rng = sampler.rng
        self.world = sampler.initial_assignment()
        result = sampler.marginals(num_samples=num_samples, burn_in=burn_in,
                                   assignment=self.world)
        self.marginals = result.marginals
        # materialization cost: full chain
        self.materialization_work = float(
            (num_samples + burn_in) * compiled.num_variables)

    @classmethod
    def from_state(cls, compiled: CompiledGraph, world: np.ndarray,
                   marginals: np.ndarray, seed: int = 0,
                   ) -> "SamplingMaterialization":
        """Adopt an existing chain state instead of materializing afresh.

        Used when a previous full inference run already produced a world and
        marginals for (a superset of) this graph's variables.
        """
        strategy = cls.__new__(cls)
        strategy.compiled = compiled
        strategy.rng = np.random.default_rng(seed)
        strategy.world = world.copy()
        strategy.world[compiled.is_evidence] = compiled.evidence_values[
            compiled.is_evidence]
        strategy.marginals = marginals.copy()
        strategy.materialization_work = 0.0
        return strategy

    def neighbourhood(self, changed: set[int], radius: int = 1) -> np.ndarray:
        """Variables within ``radius`` general-factor hops of ``changed``.

        Each hop expands the frontier through the column CSR (its incident
        factors) and the row CSR (their members) in two gathers.
        """
        compiled = self.compiled
        region = np.zeros(compiled.num_variables, dtype=bool)
        frontier = np.fromiter(changed, dtype=np.int64, count=len(changed))
        region[frontier] = True
        for _ in range(radius):
            if not len(frontier):
                break
            slots, _ = _csr_rows(compiled.vf_indptr, frontier)
            edges, _ = _csr_rows(compiled.fv_indptr,
                                 np.unique(compiled.vf_factors[slots]))
            reached = compiled.fv_vars[edges]
            frontier = np.unique(reached[~region[reached]])
            region[frontier] = True
        return region

    def update(self, changed: set[int], radius: int = 1,
               num_samples: int = 40, burn_in: int = 10) -> UpdateResult:
        """Resample the changed neighbourhood, frontier clamped to the world:
        a sampler whose region is the neighbourhood (minus evidence) runs
        one chain (``GibbsSampler.run_chain``) on the stored world,
        continuing the strategy's RNG stream.  ``work`` is region x
        sweeps."""
        check_chain_length(num_samples, burn_in)
        compiled = self.compiled
        sampler = GibbsSampler(compiled, seed=self.rng,
                               region=self.neighbourhood(changed, radius))
        totals, work = sampler.run_chain(self.world, num_samples, burn_in)
        active = ~sampler.clamped
        self.marginals[active] = totals[active] / num_samples
        clamped = compiled.is_evidence
        self.marginals[clamped] = compiled.evidence_values[clamped]
        return UpdateResult(self.marginals.copy(), float(work))


class VariationalMaterialization:
    """Materialize mean-field parameters; updates warm-start full passes."""

    def __init__(self, compiled: CompiledGraph, max_passes: int = 100,
                 tolerance: float = 1e-3) -> None:
        self.compiled = compiled
        self.max_passes = max_passes
        self.tolerance = tolerance
        self.mu = np.full(compiled.num_variables, 0.5)
        self.mu[compiled.is_evidence] = compiled.evidence_values[
            compiled.is_evidence].astype(float)
        self.materialization_work = self._converge()

    @classmethod
    def from_state(cls, compiled: CompiledGraph, mu: np.ndarray,
                   max_passes: int = 100, tolerance: float = 1e-3,
                   ) -> "VariationalMaterialization":
        """Adopt persisted mean-field parameters without converging afresh.

        The serving layer checkpoints ``mu`` between ingest batches; warm
        starting from it keeps update cost at the few-pass level the
        strategy optimizer assumes, instead of paying the full
        materialization each time a service restarts.
        """
        strategy = cls.__new__(cls)
        strategy.compiled = compiled
        strategy.max_passes = max_passes
        strategy.tolerance = tolerance
        strategy.mu = mu.copy()
        strategy.mu[compiled.is_evidence] = compiled.evidence_values[
            compiled.is_evidence].astype(float)
        strategy.materialization_work = 0.0
        return strategy

    def _converge(self) -> float:
        """Run damped mean-field passes (``GibbsSampler.mean_field_pass``)
        to convergence; returns work units.  The sampler is built for its
        color schedule, compiled once per call; its RNG is never drawn."""
        compiled = self.compiled
        schedule = GibbsSampler(compiled)
        work = 0.0
        edges = compiled.num_unary + len(compiled.fv_vars)
        for _ in range(self.max_passes):
            new_mu = schedule.mean_field_pass(self.mu)
            work += edges
            shift = float(np.max(np.abs(new_mu - self.mu))) if len(self.mu) else 0.0
            # light damping: enough to stabilize coupled graphs, cheap enough
            # that warm-started updates converge in a handful of passes
            self.mu = 0.2 * self.mu + 0.8 * new_mu
            if shift < self.tolerance:
                break
        return work

    def update(self, changed: set[int]) -> UpdateResult:
        """Warm-start mean-field passes after weights/structure changed."""
        clamped = self.compiled.is_evidence
        self.mu[clamped] = self.compiled.evidence_values[clamped].astype(float)
        work = self._converge()
        return UpdateResult(self.mu.copy(), work)


@dataclass(frozen=True)
class MaterializationChoice:
    """The optimizer's decision plus its reasoning inputs."""

    strategy: str                 # "sampling" or "variational"
    affected_fraction: float
    expected_updates: int
    correlation_density: float


def choose_strategy(compiled: CompiledGraph, expected_updates: int,
                    expected_change_size: int) -> MaterializationChoice:
    """The paper's 'simple rule-based optimizer'.

    Sampling wins when updates touch a small part of a sparse graph;
    variational wins for dense correlations or many anticipated updates,
    where its constant-cost full passes amortize better.
    """
    n = max(compiled.num_variables, 1)
    edges = compiled.num_unary + len(compiled.fv_vars)
    correlation_density = len(compiled.fv_vars) / n
    affected_fraction = min(1.0, expected_change_size * (1 + correlation_density) / n)
    # Expected total work: sampling ~ updates x affected-region x sweeps
    # (~25 incremental sweeps); variational ~ updates x warm-start passes
    # (~15) over all edges.
    sampling_cost = expected_updates * affected_fraction * n * 25
    variational_cost = expected_updates * 15 * edges
    strategy = ("sampling"
                if sampling_cost <= variational_cost and affected_fraction < 0.5
                else "variational")
    return MaterializationChoice(strategy, affected_fraction, expected_updates,
                                 correlation_density)


@dataclass(frozen=True, eq=False)
class ChainState:
    """Inference state keyed so it survives recompilation and checkpoints.

    ``keys[i]`` is the variable key that ``world[i]`` (Gibbs assignment),
    ``marginals[i]`` and ``mu[i]`` (mean-field parameter) belong to, in the
    compiled order of the graph the state was computed on.
    """

    keys: tuple[Hashable, ...]
    world: np.ndarray
    marginals: np.ndarray
    mu: np.ndarray

    @classmethod
    def from_run(cls, compiled: CompiledGraph, world: np.ndarray,
                 marginals: np.ndarray) -> "ChainState":
        """The state a full inference run leaves behind; mean-field
        parameters warm-start from the fresh marginals."""
        marginals = np.array(marginals, dtype=np.float64)
        return cls(tuple(compiled.var_keys), np.array(world, dtype=bool),
                   marginals, marginals.copy())

    def marginals_by_key(self) -> dict[Hashable, float]:
        """A fresh ``{key: probability}`` dict, in compiled order."""
        return dict(zip(self.keys, self.marginals.tolist()))


def refresh(state: ChainState, compiled: CompiledGraph,
            touched: Collection[Hashable], *, seed: int,
            strategy: str = "sampling", radius: int = 1,
            num_samples: int = 40, burn_in: int = 10,
            expected_updates: int = 100,
            ) -> tuple[ChainState, str, UpdateResult | None]:
    """Carry ``state`` over to ``compiled`` and refresh what changed.

    Variables ``state`` knows keep their world/marginal/mu; new ones start
    from a ``seed``-drawn world and 0.5, and form the changed set together
    with every variable whose key is in ``touched``.  ``strategy`` is
    ``"sampling"``, ``"variational"`` or ``"auto"``
    (:func:`choose_strategy` on the changed-set size); the same ``seed``
    drives the resampling chain, so equal arguments give equal bits.
    Returns the next state, the refresh that ran (``"none"`` when nothing
    changed: evidence marginals are clamped, nothing is sampled) and the
    strategy's :class:`UpdateResult`.  Raises ``ValueError`` for
    ``num_samples < 1``, ``burn_in < 0`` or ``radius < 0``, whatever the
    strategy, before touching any state.
    """
    check_chain_length(num_samples, burn_in)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n = compiled.num_variables
    keys = tuple(compiled.var_keys)
    old_index = {key: i for i, key in enumerate(state.keys)}
    source = np.fromiter((old_index.get(key, -1) for key in keys),
                         dtype=np.int64, count=n)
    known = source >= 0
    kept = source[known]
    world = np.random.default_rng(seed).random(n) < 0.5
    marginals = np.full(n, 0.5)
    mu = np.full(n, 0.5)
    world[known] = state.world[kept]
    marginals[known] = state.marginals[kept]
    mu[known] = state.mu[kept]
    changed = set(np.nonzero(~known)[0].tolist())      # brand-new variables
    changed.update(i for i, key in enumerate(keys) if key in touched)

    if not changed:
        clamped = compiled.is_evidence
        marginals[clamped] = compiled.evidence_values[clamped]
        return ChainState(keys, world, marginals, mu), "none", None
    if strategy == "auto":
        strategy = choose_strategy(compiled, expected_updates=expected_updates,
                                   expected_change_size=len(changed)).strategy
    if strategy == "sampling":
        chain = SamplingMaterialization.from_state(compiled, world, marginals,
                                                   seed=seed)
        update = chain.update(changed, radius=radius, num_samples=num_samples,
                              burn_in=burn_in)
        world = chain.world
    elif strategy == "variational":
        field = VariationalMaterialization.from_state(compiled, mu)
        update = field.update(changed)
        mu = field.mu
    else:
        raise ValueError(f"unknown refresh strategy {strategy!r}")
    return ChainState(keys, world, update.marginals, mu), strategy, update
