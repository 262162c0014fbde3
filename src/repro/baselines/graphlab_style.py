"""A GraphLab-style vertex-programming Gibbs engine (E3 comparator).

Section 4.2: "In standard benchmarks, DimmWitted was 3.7x faster than
GraphLab's implementation without any application-specific optimization."
The difference the paper attributes to DimmWitted is its *access pattern*:
flat column-to-row CSR scans instead of the vertex-programming model's
per-vertex objects, adjacency lists, and gather/apply/scatter message flow.

This module implements the same Gibbs semantics as
:class:`repro.inference.GibbsSampler` but deliberately through the
vertex-programming pattern: every variable and factor is a Python object,
neighbours are reached by pointer chasing through adjacency lists, and each
vertex update gathers its factor neighbourhood before sampling.  The output
marginals agree with the CSR engine; only the constant factors differ --
which is exactly the claim E3 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.factorgraph.factor_functions import FactorFunction
from repro.factorgraph.graph import FactorGraph


@dataclass
class _VertexVariable:
    """A variable vertex with its adjacency list."""

    index: int
    value: bool = False
    is_evidence: bool = False
    evidence_value: bool = False
    factor_neighbours: list["_VertexFactor"] = field(default_factory=list)


@dataclass
class _VertexFactor:
    """A factor vertex holding edges to its variable vertices."""

    function: FactorFunction
    weight: float
    members: list[_VertexVariable] = field(default_factory=list)
    negated: list[bool] = field(default_factory=list)

    def value(self, override_index: int | None = None,
              override_value: bool = False) -> int:
        """Gather: evaluate the factor from its neighbours' current values."""
        literals = []
        for member, negation in zip(self.members, self.negated):
            value = member.value
            if override_index is not None and member.index == override_index:
                value = override_value
            literals.append(value != negation)
        if self.function == FactorFunction.IS_TRUE:
            return int(literals[0])
        if self.function == FactorFunction.IMPLY:
            return int((not all(literals[:-1])) or literals[-1])
        if self.function == FactorFunction.AND:
            return int(all(literals))
        if self.function == FactorFunction.OR:
            return int(any(literals))
        if self.function == FactorFunction.EQUAL:
            return int(literals[0] == literals[1])
        raise ValueError(f"unknown function {self.function}")


class VertexProgrammingGibbs:
    """Gibbs sampling in the gather/apply/scatter idiom."""

    def __init__(self, graph: FactorGraph, seed: int = 0,
                 clamp_evidence: bool = True) -> None:
        self.rng = np.random.default_rng(seed)
        var_ids = sorted(graph.variables)
        self._vertices = []
        by_id: dict[int, _VertexVariable] = {}
        for index, var_id in enumerate(var_ids):
            variable = graph.variables[var_id]
            vertex = _VertexVariable(index=index)
            if clamp_evidence and variable.evidence is not None:
                vertex.is_evidence = True
                vertex.evidence_value = variable.evidence
                vertex.value = variable.evidence
            self._vertices.append(vertex)
            by_id[var_id] = vertex
        for factor in graph.factors.values():
            vertex_factor = _VertexFactor(
                function=factor.function,
                weight=graph.weights[factor.weight_id].value,
                members=[by_id[v] for v in factor.var_ids],
                negated=list(factor.negated))
            for member in vertex_factor.members:
                member.factor_neighbours.append(vertex_factor)

    def _apply(self, vertex: _VertexVariable, uniform: float) -> None:
        """Gather factor values for both assignments of this vertex, apply."""
        delta = 0.0
        for factor in vertex.factor_neighbours:
            delta += factor.weight * (
                factor.value(vertex.index, True) - factor.value(vertex.index, False))
        probability = 1.0 / (1.0 + np.exp(-np.clip(delta, -500, 500)))
        vertex.value = uniform < probability

    def sweep(self) -> int:
        """One scatter round over every non-evidence vertex."""
        sampled = 0
        uniforms = self.rng.random(len(self._vertices))
        for vertex in self._vertices:
            if vertex.is_evidence:
                continue
            self._apply(vertex, uniforms[vertex.index])
            sampled += 1
        return sampled

    def marginals(self, num_samples: int = 100, burn_in: int = 20) -> np.ndarray:
        for vertex in self._vertices:
            if not vertex.is_evidence:
                vertex.value = bool(self.rng.random() < 0.5)
        for _ in range(burn_in):
            self.sweep()
        totals = np.zeros(len(self._vertices))
        for _ in range(num_samples):
            self.sweep()
            for vertex in self._vertices:
                totals[vertex.index] += vertex.value
        marginals = totals / max(num_samples, 1)
        for vertex in self._vertices:
            if vertex.is_evidence:
                marginals[vertex.index] = float(vertex.evidence_value)
        return marginals
