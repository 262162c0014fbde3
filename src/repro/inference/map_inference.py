"""MAP inference: the single most likely world.

Marginal inference answers "how likely is each tuple"; some consumers (hard
constraint checking, producing one consistent output database) instead want
the jointly most probable assignment.  We use simulated-annealing Gibbs: the
conditional log-odds are scaled by an inverse temperature that rises over
sweeps, sharpening the chain toward a mode, with the best world seen kept.
The sweep is the sampler's own chromatic kernel, its flip deltas scaled by
the temperature in the color loop; ``GibbsSampler.sweep_reference`` at the
same ``beta`` is its scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.factorgraph.compiled import CompiledGraph
from repro.inference.gibbs import GibbsSampler


def world_log_weight(compiled: CompiledGraph, world: np.ndarray) -> float:
    """log of the unnormalized probability of ``world`` (Section 3.3's W)."""
    return float(
        np.dot(compiled.unary_value_sums(world), compiled.weight_values)
        + np.dot(compiled.general_value_sums(world), compiled.weight_values))


@dataclass
class MapResult:
    """The best world found and its score."""

    assignment: np.ndarray
    log_weight: float

    def by_key(self, compiled: CompiledGraph) -> dict:
        return {key: bool(v)
                for key, v in zip(compiled.var_keys, self.assignment)}


def map_inference(compiled: CompiledGraph, sweeps: int = 200,
                  beta_start: float = 0.5, beta_end: float = 8.0,
                  seed: int = 0) -> MapResult:
    """Search for the most probable world by annealed Gibbs sampling.

    Evidence variables stay clamped.  The temperature schedule is geometric
    from ``beta_start`` to ``beta_end`` (one sweep runs at ``beta_start``);
    the highest-scoring world seen over the whole run, the random initial
    one included, is returned (not merely the final state).  Raises
    ``ValueError`` for ``sweeps < 1`` and for a ``beta_start`` or
    ``beta_end`` that is not a finite positive number.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    for name, beta in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"{name} must be finite and > 0, got {beta}")
    sampler = GibbsSampler(compiled, seed=seed)
    world = sampler.initial_assignment()
    best = world.copy()
    best_score = world_log_weight(compiled, world)
    ratio = (beta_end / beta_start) ** (1.0 / max(sweeps - 1, 1))
    beta = beta_start
    for _ in range(sweeps):
        sampler.sweep(world, beta=beta)
        score = world_log_weight(compiled, world)
        if score > best_score:
            best_score = score
            best = world.copy()
        beta *= ratio
    return MapResult(best, best_score)
