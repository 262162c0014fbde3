"""Brute-force exact marginal inference: the sampler's correctness oracle.

It lives under ``tests/`` because only tests call it; like
``tests/el/oracle.py`` it is the plain form the optimised code is judged by.

The factor graph of Section 3.3 defines an unnormalized log-weight for every
possible world; on toy graphs (<= 20 free variables) we can enumerate all
worlds, normalize explicitly, and read off exact marginals.  That turns
"does the chromatic engine sample the right distribution" into a testable
statement: Gibbs marginal estimates must converge to these numbers, for any
combination of factor functions, negated literals, and evidence clamping.

Enumeration is vectorized across worlds: the world matrix is ``(2^k, n)``
and each factor contributes one column operation, so even the 20-variable
ceiling (about a million worlds) stays tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.eval.calibration import NUM_BUCKETS, CalibrationPlot, bucket_index
from repro.factorgraph.compiled import CompiledGraph
from repro.factorgraph.factor_functions import FactorFunction

MAX_FREE_VARIABLES = 20


@dataclass
class ExactResult:
    """Exact marginals plus the normalization constant."""

    marginals: np.ndarray        # exact P(v = 1) per compiled variable index
    log_partition: float         # log Z over the enumerated worlds
    num_worlds: int

    def by_key(self, compiled: CompiledGraph) -> dict[Hashable, float]:
        return {key: float(p) for key, p in zip(compiled.var_keys, self.marginals)}


def enumerate_worlds(compiled: CompiledGraph,
                     clamp_evidence: bool = True,
                     max_free_variables: int = MAX_FREE_VARIABLES) -> np.ndarray:
    """All possible worlds as a ``(num_worlds, num_variables)`` bool matrix.

    With ``clamp_evidence`` the evidence variables stay at their labels and
    only the free variables are enumerated.
    """
    n = compiled.num_variables
    if clamp_evidence:
        free = np.nonzero(~compiled.is_evidence)[0]
    else:
        free = np.arange(n)
    if len(free) > max_free_variables:
        raise ValueError(
            f"exact inference enumerates 2^k worlds; {len(free)} free "
            f"variables exceeds the {max_free_variables}-variable ceiling")
    num_worlds = 1 << len(free)
    worlds = np.zeros((num_worlds, n), dtype=bool)
    if clamp_evidence:
        worlds[:, compiled.is_evidence] = compiled.evidence_values[
            compiled.is_evidence]
    if len(free):
        bits = (np.arange(num_worlds)[:, None] >> np.arange(len(free))) & 1
        worlds[:, free] = bits.astype(bool)
    return worlds


def world_log_weights(compiled: CompiledGraph, worlds: np.ndarray) -> np.ndarray:
    """Unnormalized log-weight of every row of ``worlds``, vectorized."""
    log_w = np.zeros(len(worlds), dtype=np.float64)
    if compiled.num_unary:
        literals = worlds[:, compiled.unary_var] ^ (compiled.unary_sign < 0)
        log_w += literals.astype(np.float64) @ compiled.weight_values[
            compiled.unary_weight]
    for fi in range(compiled.num_general):
        lo, hi = compiled.fv_indptr[fi], compiled.fv_indptr[fi + 1]
        literals = worlds[:, compiled.fv_vars[lo:hi]] ^ compiled.fv_negated[lo:hi]
        function = compiled.general_function[fi]
        if function == FactorFunction.IMPLY:
            values = ~literals[:, :-1].all(axis=1) | literals[:, -1]
        elif function == FactorFunction.AND:
            values = literals.all(axis=1)
        elif function == FactorFunction.OR:
            values = literals.any(axis=1)
        elif function == FactorFunction.EQUAL:
            values = literals[:, 0] == literals[:, 1]
        else:
            raise ValueError(f"unexpected general factor function {function}")
        log_w += compiled.weight_values[compiled.general_weight[fi]] * values
    return log_w


def exact_marginals(compiled: CompiledGraph,
                    clamp_evidence: bool = True,
                    max_free_variables: int = MAX_FREE_VARIABLES) -> ExactResult:
    """Exact marginals by full enumeration (the Gibbs correctness oracle).

    ``clamp_evidence`` mirrors the sampler's flag: clamped evidence
    variables report their label as probability 0/1 and restrict the world
    sum; unclamped enumeration covers the free chain's distribution.
    """
    worlds = enumerate_worlds(compiled, clamp_evidence=clamp_evidence,
                              max_free_variables=max_free_variables)
    log_w = world_log_weights(compiled, worlds)
    peak = log_w.max()
    unnormalized = np.exp(log_w - peak)
    total = unnormalized.sum()
    log_partition = float(peak + np.log(total))
    probabilities = unnormalized / total
    marginals = probabilities @ worlds.astype(np.float64)
    if clamp_evidence:
        # exact 0/1 for clamped evidence (avoids float rounding in the sum),
        # matching the sampler's output convention
        marginals[compiled.is_evidence] = compiled.evidence_values[
            compiled.is_evidence]
    return ExactResult(marginals=marginals, log_partition=log_partition,
                       num_worlds=len(worlds))


def calibration_vs_exact(compiled, estimated_marginals) -> CalibrationPlot:
    """Calibration of estimated marginals against the exact-inference oracle.

    On toy graphs (small enough for full enumeration) we do not need held-out
    labels to judge calibration: bucket the non-evidence variables by their
    *estimated* marginal and report the mean *exact* marginal per bucket.  A
    correct sampler hugs the diagonal; systematic deviation localizes a
    sampling bug to a probability range.
    """
    exact = exact_marginals(compiled).marginals
    query = ~compiled.is_evidence
    counts = np.zeros(NUM_BUCKETS, dtype=np.int64)
    exact_mass = np.zeros(NUM_BUCKETS, dtype=np.float64)
    for estimated, truth in zip(np.asarray(estimated_marginals)[query],
                                exact[query]):
        index = bucket_index(float(estimated))
        counts[index] += 1
        exact_mass[index] += truth
    with np.errstate(invalid="ignore"):
        observed = np.where(counts > 0, exact_mass / np.maximum(counts, 1),
                            np.nan)
    centers = (np.arange(NUM_BUCKETS) + 0.5) / NUM_BUCKETS
    return CalibrationPlot(centers, observed, counts)
