"""DimmWitted-style compiled factor graph.

DimmWitted "models Gibbs sampling as a column-to-row access operation: each
row corresponds to one factor, each column to one variable, and the non-zero
elements in the matrix correspond to edges in the factor graph.  To process
one variable, DimmWitted fetches one column of the matrix to get the set of
factors, and other columns to get the set of variables that connect to the
same factor" (Section 4.2).

:class:`CompiledGraph` is that matrix in CSR form, as flat numpy arrays:

* column access: ``vf_indptr`` / ``vf_factors`` -- the non-unary factors
  incident on each variable;
* row access: ``fv_indptr`` / ``fv_vars`` / ``fv_negated`` -- the variables
  (with literal polarity) of each non-unary factor.

Unary (``IS_TRUE``) factors -- the bulk of any KBC graph, one per feature
grounding -- are split out into dedicated parallel arrays so that their
contribution to every variable's conditional can be recomputed for the whole
graph with two vectorized operations per sweep.

On top of the CSR layout the compiled graph carries a **chromatic schedule**:
a greedy coloring of the conflict graph whose nodes are the variables touched
by general factors and whose edges connect two variables iff they share a
general factor.  Variables of one color have conditionals that are mutually
independent given the rest of the world, so a Gibbs sweep may sample a whole
color block simultaneously with vectorized operations without changing the
stationary distribution.  :meth:`CompiledGraph.color_blocks` compiles each
color into flat "slot" index arrays (one slot per incident factor: a color
holds at most one member variable of any factor) that the sampler turns into
a handful of numpy calls per sweep.

The learner's sufficient statistics run on the same row CSR:
:meth:`CompiledGraph.general_values` evaluates every general factor in one
vectorized pass.  The per-function index sets it needs are derived from the
CSR arrays on first use (never at compile time -- most compiled graphs are
only ever sampled), and the scalar :meth:`CompiledGraph.general_factor_value`
stays as the oracle the kernel is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.factorgraph.factor_functions import (FactorFunction, evaluate,
                                                evaluate_flip)
from repro.factorgraph.graph import FactorGraph


class CompiledGraph:
    """Flat-array snapshot of a :class:`FactorGraph`, ready for sampling."""

    # Index sets of the factor-value kernel, derived on the first
    # ``general_values`` call.  A class-level default (not set in
    # ``__init__``) so shared-memory views built without ``__init__`` derive
    # theirs from the packed CSR arrays the same way.
    _value_kernel: "_ValueKernel | None" = None

    def __init__(self, graph: FactorGraph) -> None:
        # Compiled indices are the live ids in id order: tombstones drop out.
        columns = graph.columns()
        var_ids = np.flatnonzero(columns.var_alive)
        self.num_variables = len(var_ids)
        var_index = np.full(len(columns.var_alive), -1, dtype=np.int64)
        var_index[var_ids] = np.arange(self.num_variables)
        self.var_keys: list[Hashable] = graph.variable_keys()

        evidence = columns.var_evidence[var_ids]
        self.is_evidence = evidence >= 0
        self.evidence_values = evidence == 1
        self.initial_values = columns.var_initial[var_ids]

        weight_ids = sorted(graph.weights)
        self._weight_index = {w: i for i, w in enumerate(weight_ids)}
        self.num_weights = len(weight_ids)
        self.weight_keys: list[Hashable] = [graph.weights[w].key for w in weight_ids]
        self.weight_values = np.array(
            [graph.weights[w].value for w in weight_ids], dtype=np.float64)
        self.weight_fixed = np.array(
            [graph.weights[w].fixed for w in weight_ids], dtype=bool)
        self.weight_observations = np.array(
            [graph.weights[w].observations for w in weight_ids], dtype=np.int64)
        weight_index = np.full(weight_ids[-1] + 1 if weight_ids else 0, -1,
                               dtype=np.int64)
        weight_index[weight_ids] = np.arange(self.num_weights)

        # ---- split factors into unary IS_TRUE vs general --------------------
        live = np.flatnonzero(columns.factor_alive)
        is_unary = columns.factor_function[live] == FactorFunction.IS_TRUE
        unary, general = live[is_unary], live[~is_unary]
        first_edge = columns.factor_indptr[unary]
        self.unary_var = var_index[columns.edge_var[first_edge]]
        self.unary_weight = weight_index[columns.factor_weight[unary]]
        self.unary_sign = np.where(columns.edge_negated[first_edge], -1.0, 1.0)
        self.num_unary = len(unary)

        # ---- general factors in row-CSR form --------------------------------
        self.num_general = len(general)
        self.general_function = columns.factor_function[general]
        self.general_weight = weight_index[columns.factor_weight[general]]
        edges, arities = _csr_rows(columns.factor_indptr, general)
        self.fv_indptr = np.concatenate(
            ([0], np.cumsum(arities))).astype(np.int64)
        self.fv_vars = var_index[columns.edge_var[edges]]
        self.fv_negated = columns.edge_negated[edges]

        # ---- column CSR: variable -> incident general factors ---------------
        # Per variable, its factors in factor order: a stable sort of the
        # edges (already in factor order) by variable.
        counts = np.bincount(self.fv_vars, minlength=self.num_variables)
        self.vf_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        edge_factor = np.repeat(np.arange(self.num_general, dtype=np.int64),
                                arities)
        self.vf_factors = edge_factor[np.argsort(self.fv_vars, kind="stable")]

        # ---- chromatic schedule ---------------------------------------------
        self.var_colors, self.num_colors = self._greedy_coloring()

        # In-place mutation counter (weights from the learner, evidence
        # clamping).  The warm worker pool keys its shared-memory segment
        # cache on it, so a stale-version graph is never served to workers.
        self.mutation_version = 0

    def _greedy_coloring(self) -> tuple[np.ndarray, int]:
        """Greedy color of the conflict graph over general-factor variables.

        Two variables conflict iff they share a general factor; a valid
        coloring therefore partitions the dependent variables into blocks
        whose conditionals are mutually independent given the rest of the
        world.  Variables without general factors keep color -1 (they are the
        sampler's fully-vectorized "independent" set already).  The walk
        runs on Python-list copies of the CSR arrays: indexing a numpy
        array one element at a time costs several times more.
        """
        colors = [-1] * self.num_variables
        vf_indptr, vf_factors = self.vf_indptr.tolist(), self.vf_factors.tolist()
        fv_indptr, fv_vars = self.fv_indptr.tolist(), self.fv_vars.tolist()
        for var in range(self.num_variables):
            lo, hi = vf_indptr[var], vf_indptr[var + 1]
            if lo == hi:
                continue
            taken = set()
            for fi in vf_factors[lo:hi]:
                for other in fv_vars[fv_indptr[fi]:fv_indptr[fi + 1]]:
                    if other != var and colors[other] >= 0:
                        taken.add(colors[other])
            color = 0
            while color in taken:
                color += 1
            colors[var] = color
        return np.array(colors, dtype=np.int64), max(colors, default=-1) + 1

    def color_blocks(self, active: np.ndarray) -> list["ColorBlock"]:
        """Compile the chromatic schedule restricted to ``active`` variables.

        ``active`` masks which variables the sampler will actually resample
        (clamped evidence drops out); a coloring valid on the full conflict
        graph stays valid on any induced subgraph, so the same global coloring
        serves both the clamped and the free chain.
        """
        blocks = []
        for color in range(self.num_colors):
            variables = np.nonzero((self.var_colors == color) & active)[0]
            if len(variables):
                blocks.append(self._compile_color_block(variables))
        return blocks

    def _compile_color_block(self, variables: np.ndarray) -> "ColorBlock":
        local_pos = np.full(self.num_variables, -1, dtype=np.int64)
        local_pos[variables] = np.arange(len(variables))

        # The factors incident on the block, in factor order, as rows of a
        # conjunction or a disjunction of literals: IMPLY(body -> head) is
        # OR(~body, head), and EQUAL(a, b) is AND(a, b) + AND(~a, ~b), two
        # adjacent rows with the second one's literals inverted.
        incident, _ = _csr_rows(self.vf_indptr, variables)
        factor_ids = np.unique(self.vf_factors[incident])
        equal = self.general_function[factor_ids] == FactorFunction.EQUAL
        row_factor = np.repeat(factor_ids, np.where(equal, 2, 1))
        inverted = np.zeros(len(row_factor), dtype=bool)
        inverted[1:] = row_factor[1:] == row_factor[:-1]
        function = self.general_function[row_factor]
        edges, arities = _csr_rows(self.fv_indptr, row_factor)
        edge_row = np.repeat(np.arange(len(row_factor)), arities)
        edge_vars = self.fv_vars[edges]
        body = function[edge_row] == FactorFunction.IMPLY
        body[np.cumsum(arities) - 1] = False            # the head literal
        negated = self.fv_negated[edges] ^ body ^ inverted[edge_row]

        # One slot per row.  A color holds at most one member variable of a
        # factor, so a row's own edges are the occurrences of one block
        # variable and every other edge belongs to another color.  Flipping
        # that variable 0 -> 1 changes the row's value only when the other
        # literals are all true (AND) or all false (OR), and then by
        # [every own literal is true at 1] - [every own literal is true at 0]:
        # +1 or -1 when all occurrences share a polarity, 0 when they mix.
        own = local_pos[edge_vars] >= 0
        own_count = np.bincount(edge_row[own], minlength=len(row_factor))
        own_positive = np.bincount(edge_row[own & ~negated],
                                   minlength=len(row_factor))
        slot_var = np.empty(len(row_factor), dtype=np.int64)
        slot_var[edge_row[own]] = local_pos[edge_vars[own]]
        disjunction = ((function == FactorFunction.OR)
                       | (function == FactorFunction.IMPLY))
        others = ~own
        return ColorBlock(
            variables=variables,
            other_vars=edge_vars[others],
            other_negated=negated[others],
            other_slot=edge_row[others],
            slot_var=slot_var,
            slot_weight=self.general_weight[row_factor],
            slot_sign=((own_positive == own_count).astype(np.float64)
                       - (own_positive == 0)),
            slot_target=np.where(disjunction, 0.0, arities - own_count))

    # ------------------------------------------------------------------ sizes
    @property
    def num_factors(self) -> int:
        return self.num_unary + self.num_general

    def variable_index(self, key: Hashable) -> int:
        """Compiled index of the variable with ``key``."""
        return self.var_keys.index(key)  # only used in tests / small graphs

    # ------------------------------------------------------------- unary pass
    def unary_deltas(self) -> np.ndarray:
        """Per-variable sum of unary-factor log-weight deltas.

        For an ``IS_TRUE`` factor over a positive literal, flipping the
        variable 0 -> 1 changes the factor value by +1 (so contributes ``+w``);
        for a negated literal, by -1 (``-w``).  Independent of the current
        assignment, so it is recomputed only when weights change.
        """
        if not self.num_unary:     # bincount of nothing is int64, even weighted
            return np.zeros(self.num_variables, dtype=np.float64)
        return np.bincount(
            self.unary_var,
            weights=self.unary_sign * self.weight_values[self.unary_weight],
            minlength=self.num_variables)

    def unary_value_sums(self, assignment: np.ndarray) -> np.ndarray:
        """Per-weight sum of unary factor values under ``assignment``.

        Used by the learner: the gradient of the log-likelihood w.r.t. a tied
        weight is the difference of this quantity between the evidence-clamped
        and free chains.
        """
        if not self.num_unary:
            return np.zeros(self.num_weights, dtype=np.float64)
        literal = assignment[self.unary_var] ^ (self.unary_sign < 0)
        return np.bincount(self.unary_weight, weights=literal,
                           minlength=self.num_weights)

    # --------------------------------------------------------- general factors
    def general_factor_value(self, fi: int, assignment: np.ndarray) -> int:
        """Value of general factor ``fi`` under ``assignment``."""
        lo, hi = self.fv_indptr[fi], self.fv_indptr[fi + 1]
        literals = assignment[self.fv_vars[lo:hi]] ^ self.fv_negated[lo:hi]
        return evaluate(int(self.general_function[fi]), literals.tolist())

    def general_values(self, assignment: np.ndarray) -> np.ndarray:
        """Value (0.0 / 1.0) of every general factor under ``assignment``.

        One pass over the row CSR: gather the literals, count the true ones
        per factor, then apply each factor function to its index set.
        Equals :meth:`general_factor_value` factor for factor (the property
        tests pin that); every general factor has arity >= 1.
        """
        if not self.num_general:
            return np.zeros(0, dtype=np.float64)
        kernel = self._value_kernel
        if kernel is None:
            kernel = self._value_kernel = _ValueKernel.derive(self)
        literals = assignment[self.fv_vars] ^ self.fv_negated
        true_counts = np.add.reduceat(literals.astype(np.int64), kernel.starts)
        values = np.empty(self.num_general, dtype=np.float64)
        sel = kernel.conj
        if len(sel):
            values[sel] = true_counts[sel] == kernel.arity[sel]
        sel = kernel.disj
        if len(sel):
            values[sel] = true_counts[sel] > 0
        sel = kernel.equal
        if len(sel):
            first = kernel.starts[sel]
            values[sel] = literals[first] == literals[first + 1]
        sel = kernel.imply
        if len(sel):
            head = literals[kernel.imply_heads]
            body_holds = true_counts[sel] - head == kernel.arity[sel] - 1
            values[sel] = ~body_holds | head
        return values

    def general_value_sums(self, assignment: np.ndarray) -> np.ndarray:
        """Per-weight sum of general factor values under ``assignment``."""
        if not self.num_general:
            return np.zeros(self.num_weights, dtype=np.float64)
        return np.bincount(self.general_weight,
                           weights=self.general_values(assignment),
                           minlength=self.num_weights)

    def general_delta(self, var: int, assignment: np.ndarray) -> float:
        """Log-weight delta of flipping ``var`` 0 -> 1 over its general factors.

        Each incident factor counts once, as its value with every occurrence
        of ``var`` at 1 minus its value with every occurrence at 0.
        """
        delta = 0.0
        lo, hi = self.vf_indptr[var], self.vf_indptr[var + 1]
        for fi in dict.fromkeys(self.vf_factors[lo:hi].tolist()):
            lo, hi = self.fv_indptr[fi], self.fv_indptr[fi + 1]
            members = self.fv_vars[lo:hi]
            literals = (assignment[members] ^ self.fv_negated[lo:hi]).tolist()
            own = [j for j, member in enumerate(members.tolist()) if member == var]
            delta += self.weight_values[self.general_weight[fi]] * evaluate_flip(
                int(self.general_function[fi]), literals,
                self.fv_negated[lo:hi].tolist(), own)
        return delta

    # ---------------------------------------------------------------- weights
    def note_mutation(self) -> None:
        """Record an in-place mutation of this graph's arrays.

        Callers that write ``weight_values`` / ``is_evidence`` / etc.
        directly (the learner, holdout clamping) must bump this so cached
        shared-memory packs of the graph are invalidated and re-synced.
        """
        self.mutation_version += 1

    def set_weights(self, values: np.ndarray) -> None:
        self.weight_values[:] = values
        self.note_mutation()

    def export_weights(self, graph: FactorGraph) -> None:
        """Write learned weight values back into the mutable graph."""
        for weight_id, index in self._weight_index.items():
            graph.weights[weight_id].value = float(self.weight_values[index])


@dataclass(frozen=True)
class _ValueKernel:
    """Per-function index sets for :meth:`CompiledGraph.general_values`.

    Derived from ``general_function`` / ``fv_indptr`` alone, so a
    shared-memory view re-derives them from the arrays it already maps.
    """

    starts: np.ndarray           # first edge of every general factor
    arity: np.ndarray            # literals per general factor
    imply: np.ndarray            # factor indices per function
    conj: np.ndarray
    disj: np.ndarray
    equal: np.ndarray
    imply_heads: np.ndarray      # head edge of each ``imply`` factor

    @classmethod
    def derive(cls, compiled: CompiledGraph) -> "_ValueKernel":
        function = compiled.general_function
        imply, conj, disj, equal = (
            np.nonzero(function == int(f))[0]
            for f in (FactorFunction.IMPLY, FactorFunction.AND,
                      FactorFunction.OR, FactorFunction.EQUAL))
        return cls(starts=compiled.fv_indptr[:-1],
                   arity=np.diff(compiled.fv_indptr),
                   imply=imply, conj=conj, disj=disj, equal=equal,
                   imply_heads=compiled.fv_indptr[imply + 1] - 1)


@dataclass(frozen=True)
class ColorBlock:
    """Flat index arrays for one color of the chromatic schedule.

    Each *slot* is one factor incident on the block, written as a
    conjunction or a disjunction of literals (an EQUAL factor is two
    conjunction slots, see ``_compile_color_block``), together with the one
    block variable among its members -- ``slot_var`` indexes into
    ``variables``.  The ``other_*`` arrays are the slot's remaining edges,
    slot after slot.  Flipping the variable 0 -> 1 moves the slot's value
    by ``slot_sign`` exactly when the count of true other literals equals
    ``slot_target`` (all of them for a conjunction, none for a disjunction),
    and by 0 otherwise.
    """

    variables: np.ndarray        # compiled variable indices in this block
    other_vars: np.ndarray       # member variable per other edge
    other_negated: np.ndarray    # literal polarity per other edge
    other_slot: np.ndarray       # other edge -> slot
    slot_var: np.ndarray         # slot -> position in ``variables``
    slot_weight: np.ndarray      # slot -> global weight index
    slot_sign: np.ndarray        # -1.0, 0.0 or +1.0
    slot_target: np.ndarray      # true other literals at which the slot fires
                                 # (float, like the counts it is compared to)

    @property
    def num_slots(self) -> int:
        return len(self.slot_var)


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of the CSR ``rows``, row after row, and their lengths."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths         # output offset of each row
    positions = np.repeat(starts - first, lengths) + np.arange(lengths.sum())
    return positions, lengths

