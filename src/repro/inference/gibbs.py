"""Gibbs sampling over compiled factor graphs.

"Like many other systems, DeepDive uses Gibbs sampling to estimate the
marginal probability of every tuple in the database" (Section 4.2).  The
sampler exploits the compiled layout's split between unary and general
factors:

* variables touched *only* by unary factors have conditionals independent of
  the rest of the world, so an entire sweep over them is two vectorized numpy
  operations;
* variables with general factors are scheduled by the compiled graph's
  **chromatic coloring** (two variables share a color only if they share no
  general factor), so each color block is sampled simultaneously with a
  handful of vectorized gathers -- the DimmWitted column-to-row access
  pattern, executed one conflict-free block at a time.

Blocked sampling preserves the Gibbs stationary distribution because the
conditional of a variable never depends on same-color variables (they share
no factor).  For the same reason, sampling a color block simultaneously is
*bit-identical* to sampling its variables sequentially with the same uniform
draws -- which is what :meth:`GibbsSampler.sweep_reference` (the scalar
oracle) does, and what the equivalence tests assert.

A block variable's conditional depends only on the values behind its few
*other* edges, so a color block whose variables have at most
:data:`TABLE_MAX_EDGES` of them each samples from a :class:`_FlipTable`: the
flip probability of every world of those edges, computed from the current
weights with the same addends in the same order as the direct path.  A sweep
then packs each variable's edge values into a row number and gathers, and
stays bit-identical.  The first sweep after a weight refresh still takes the
direct path (the learner sweeps once per refresh and would pay for a table it
never reads); the second rebuilds the table.

Every chain runs through one loop, :meth:`GibbsSampler.run_chain`: batch
marginals, the served refresh and each NUMA replica as long chains, the
learner's refresh and the annealed MAP search (its flip deltas scaled by an
inverse temperature ``beta``) as one-sweep chains through
:meth:`GibbsSampler.sweep`.  :meth:`GibbsSampler.sweep_reference` is its
scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import obs
from repro.factorgraph.compiled import ColorBlock, CompiledGraph, _csr_rows

#: Most other edges a block variable may have for its block to sample from
#: a flip table (``2**TABLE_MAX_EDGES`` rows for that variable alone).
TABLE_MAX_EDGES = 8

#: Uniforms per RNG draw of a chain: :meth:`GibbsSampler.run_chain` draws
#: this many sweeps' worth at once (at least one sweep's).
CHAIN_UNIFORMS = 1 << 15

#: Set bits of every ``TABLE_MAX_EDGES``-bit row number.
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << TABLE_MAX_EDGES)])


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function.

    Evaluated with masked branches (never ``np.where`` over both branches,
    which would compute ``exp`` of out-of-range arguments and raise spurious
    overflow warnings); clipping at +/-500 keeps even the taken branch away
    from overflow and underflow, so the function is silent under
    ``np.errstate(all="raise")``.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    positive = arr >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-np.minimum(arr[positive], 500.0)))
    exp_x = np.exp(np.maximum(arr[negative], -500.0))
    out[negative] = exp_x / (1.0 + exp_x)
    return float(out[0]) if scalar else out


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` for a float64 array, without the scalar prologue.

    Both branches of :func:`sigmoid` exponentiate ``-min(|x|, 500)`` and
    divide by one plus that, so one ``exp`` over the whole array plus a
    numerator select is element for element the same arithmetic (the tests
    pin it bit-identical) in half the numpy calls, with no masked gathers
    or scatters.  The exponent is never positive, so it is just as silent
    under ``np.errstate(all="raise")``.
    """
    e = np.abs(x)
    np.minimum(e, 500.0, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=numerator)


def _sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 500.0)))
    e = math.exp(max(x, -500.0))
    return e / (1.0 + e)


def check_chain_length(num_samples: int, burn_in: int) -> None:
    """Reject a chain that would estimate nothing: a marginal needs at least
    one sample, and a burn-in cannot be negative."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")


@dataclass
class MarginalResult:
    """Marginal estimates plus the bookkeeping error analysis wants."""

    marginals: np.ndarray          # P(v = 1) per compiled variable index
    num_samples: int
    burn_in: int

    def by_key(self, compiled: CompiledGraph) -> dict:
        """Map variable key -> marginal probability."""
        return {key: float(p) for key, p in zip(compiled.var_keys, self.marginals)}


class _FlipTable:
    """Flip log-odds and probabilities of a color block for every world of
    each block variable's other edges.

    A variable with ``k`` other edges owns ``2**k`` consecutive rows from
    its ``offsets`` entry; bit ``r`` of a row is the raw value of the
    variable behind its ``r``-th other edge (in block order), so a row can
    hold an inconsistent world (a repeated other member at two values) that
    no lookup reaches.  Everything but ``log_odds`` and ``probs`` is
    structure, built once from the block: each (row, slot) pair records
    whether the slot fires in that row's world.  The pairs run slot after
    slot, so every row meets its slots in slot order, and :meth:`refresh`
    sums each row's weighted pairs with the addends and in the order of
    :meth:`_BlockKernel.deltas`: every row is bit-identical to the direct
    delta of its world.
    """

    __slots__ = ("edge_position", "edge_bit", "offsets", "row_variable",
                 "pair_row", "pair_slot", "pair_fires", "log_odds", "probs")

    def __init__(self, block: ColorBlock, edge_position: np.ndarray,
                 edge_counts: np.ndarray) -> None:
        # each other edge's bit: its rank among its own variable's edges
        order = np.argsort(edge_position, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order)) - np.repeat(
            np.cumsum(edge_counts) - edge_counts, edge_counts)
        bit = np.left_shift(1, rank)
        sizes = np.left_shift(1, edge_counts)
        row_indptr = np.concatenate(([0], np.cumsum(sizes)))

        # a slot's other edges as masks over its variable's row bits, and
        # the true other literals of every (row, slot) pair
        num_slots = block.num_slots
        mask = np.bincount(block.other_slot, weights=bit,
                           minlength=num_slots).astype(np.int64)
        negated = np.bincount(block.other_slot,
                              weights=bit * block.other_negated,
                              minlength=num_slots).astype(np.int64)
        pair_row, rows_per_slot = _csr_rows(row_indptr, block.slot_var)
        pair_slot = np.repeat(np.arange(num_slots), rows_per_slot)
        world = pair_row - row_indptr[block.slot_var][pair_slot]
        true_others = _POPCOUNT[(world ^ negated[pair_slot]) & mask[pair_slot]]

        self.edge_position = edge_position
        self.edge_bit = bit.astype(np.float64)
        self.offsets = row_indptr[:-1].astype(np.float64)
        self.row_variable = np.repeat(np.arange(len(sizes)), sizes)
        self.pair_row = pair_row
        self.pair_slot = pair_slot
        self.pair_fires = true_others == block.slot_target[pair_slot]

    def refresh(self, signed_weights: np.ndarray, unary: np.ndarray) -> None:
        weighted = self.pair_fires * signed_weights[self.pair_slot]
        log_odds = np.bincount(self.pair_row, weights=weighted,
                               minlength=len(self.row_variable))
        self.log_odds = np.add(unary[self.row_variable], log_odds, out=log_odds)
        self.probs = _sigmoid_array(log_odds)

    def rows(self, others: np.ndarray) -> np.ndarray:
        """Every block variable's row, given the values behind the block's
        other edges (``world[block.other_vars]``, bool or 0.0/1.0)."""
        row = np.bincount(self.edge_position,
                          weights=others * self.edge_bit,
                          minlength=len(self.offsets))
        return (row + self.offsets).astype(np.intp)

    def probabilities(self, others: np.ndarray,
                      beta: float = 1.0) -> np.ndarray:
        """:meth:`_BlockKernel.probabilities` read from the table: the same
        bits, ``log_odds`` scaled by ``beta`` when it is not 1."""
        row = self.rows(others)
        if beta == 1.0:
            return self.probs[row]
        return _sigmoid_array(self.log_odds[row] * beta)


class _BlockKernel:
    """One color block bound to a sampler: cached weights plus scratch.

    :meth:`probabilities`, or its flip table's, is the per-color inner loop
    of every sweep, so everything that does not depend on the current world
    is hoisted out of it: the signed slot weights and the block's unary
    deltas are gathered once per :meth:`refresh`, the per-slot contribution
    buffer is allocated once, and the flip table is built once, on first
    use.
    """

    __slots__ = ("block", "signed_weights", "unary", "table_rows", "_table",
                 "_edge_position", "_edge_counts", "_sweeps",
                 "_contribution", "_hits")

    def __init__(self, block: ColorBlock) -> None:
        self.block = block
        self._contribution = np.empty(block.num_slots, dtype=np.float64)
        self._hits: tuple[np.ndarray, ...] | None = None
        self._edge_position = block.slot_var[block.other_slot]
        self._edge_counts = np.bincount(self._edge_position,
                                        minlength=len(block.variables))
        #: rows of the block's flip table; 0 keeps it on :meth:`deltas`
        self.table_rows = (int(np.left_shift(1, self._edge_counts).sum())
                           if self._edge_counts.max() <= TABLE_MAX_EDGES
                           else 0)
        self._table: _FlipTable | None = None
        self._sweeps = 0

    def refresh(self, weights: np.ndarray, unary_deltas: np.ndarray) -> None:
        block = self.block
        self.signed_weights = block.slot_sign * weights[block.slot_weight]
        self.unary = unary_deltas[block.variables]
        self._sweeps = 0                # the table is stale until rebuilt

    @property
    def from_table(self) -> bool:
        """Whether the last sweep sampled the block from its flip table."""
        return self._sweeps == 2

    def table(self) -> _FlipTable:
        """The block's flip table at the current weights, built on first
        use and refreshed once after each :meth:`refresh`.  Only for a
        block with ``table_rows``."""
        if self._sweeps != 2:
            if self._table is None:
                self._table = _FlipTable(self.block, self._edge_position,
                                         self._edge_counts)
            self._table.refresh(self.signed_weights, self.unary)
            self._sweeps = 2
        return self._table

    def probabilities(self, others: np.ndarray,
                      beta: float = 1.0) -> np.ndarray:
        """Flip probabilities ``sigmoid(beta * deltas)`` of the block through
        :meth:`deltas`, given the values behind its other edges
        (``world[block.other_vars]``).  Marks the block swept since its
        :meth:`refresh`, so the next one-sweep chain reads its table."""
        self._sweeps = 1
        deltas = self.deltas(others)
        if beta != 1.0:
            deltas *= beta
        return _sigmoid_array(deltas)

    def deltas(self, others: np.ndarray) -> np.ndarray:
        """Flip deltas (log-odds) for every variable of the block, given the
        values behind its other edges (bool or 0.0/1.0).

        A slot contributes its signed weight when the count of its true
        *other* literals equals its target, and nothing otherwise (see
        :class:`ColorBlock`).  Per-variable accumulation runs in slot order,
        the same factor order the scalar oracle adds in.
        """
        block = self.block
        literals = others != block.other_negated
        others_true = np.bincount(block.other_slot, weights=literals,
                                  minlength=len(block.slot_var))
        contribution = np.multiply(others_true == block.slot_target,
                                   self.signed_weights, out=self._contribution)
        deltas = np.bincount(block.slot_var, weights=contribution,
                             minlength=len(block.variables))
        return np.add(self.unary, deltas, out=deltas)

    def expected_deltas(self, mu: np.ndarray) -> np.ndarray:
        """:meth:`deltas` in expectation, every other variable independently
        true with probability ``mu``: each slot's signed weight times the
        probability that its other literals hit ``slot_target`` -- the
        product over its distinct other variables of the probability of the
        value each needs, 0 when one needs both."""
        if self._hits is None:
            self._hits = _slot_hits(self.block)
        variable, value, slots, starts, impossible = self._hits
        block = self.block
        p = mu[variable]
        p = np.where(value, p, 1.0 - p)
        probability = np.ones(block.num_slots)
        if len(p):
            probability[slots] = np.multiply.reduceat(p, starts)
        probability[impossible] = 0.0
        deltas = np.bincount(block.slot_var,
                             weights=probability * self.signed_weights,
                             minlength=len(block.variables))
        return np.add(self.unary, deltas, out=deltas)


def _slot_hits(block: ColorBlock) -> tuple[np.ndarray, ...]:
    """The distinct (other variable, value it needs) pairs slot after slot,
    the slots that have any and where each starts, and the slots needing a
    variable at both values.  A literal hits a conjunction when true and a
    disjunction (target 0) when false."""
    needed = block.other_negated ^ (block.slot_target[block.other_slot] > 0)
    n = int(block.other_vars.max()) + 1 if len(block.other_vars) else 1
    pair, value = np.divmod(
        np.unique((block.other_slot * n + block.other_vars) * 2 + needed), 2)
    slot, variable = np.divmod(pair, n)
    starts = np.flatnonzero(np.diff(slot, prepend=-1))
    impossible = slot[1:][pair[1:] == pair[:-1]]
    return variable, value.astype(bool), slot[starts], starts, impossible


class GibbsSampler:
    """Chromatic blocked Gibbs sampler with evidence clamping.

    ``clamp_evidence=True`` (the learner's clamped chain and the usual
    inference configuration when evidence should be respected) pins evidence
    variables to their labels; ``False`` resamples everything (the learner's
    free chain).

    :meth:`run_chain` is the sampler's one vectorized color loop: every
    chain, long or a single :meth:`sweep`, runs through it.
    :meth:`sweep_reference` is its oracle -- the scalar per-variable loop,
    which visits dependent variables in the same chromatic order and
    consumes the RNG identically, so with equal seeds the two produce
    bit-identical chains.  Tests call (or patch in) the oracle directly; no
    configuration reaches it.  :meth:`mean_field_pass` runs the same
    schedule in expectation (mean field).

    ``region``, a boolean mask, narrows the schedule (the served refresh):
    variables outside it join the clamped set and keep whatever value the
    world holds, so a sweep never writes them.  ``seed`` may be a
    ``numpy`` Generator, whose stream the sampler then continues.
    """

    def __init__(self, compiled: CompiledGraph,
                 seed: int | np.random.Generator = 0,
                 clamp_evidence: bool = True,
                 region: np.ndarray | None = None) -> None:
        self.compiled = compiled
        self.rng = np.random.default_rng(seed)
        clamped = compiled.is_evidence if clamp_evidence else np.zeros(
            compiled.num_variables, dtype=bool)
        if region is not None:
            clamped = clamped | ~region
        self.clamped = clamped
        has_general = compiled.vf_indptr[1:] > compiled.vf_indptr[:-1]
        self._independent = ~has_general & ~clamped
        self._independent_index = np.nonzero(self._independent)[0]
        self._blocks = compiled.color_blocks(has_general & ~clamped)
        self._kernels = [_BlockKernel(block) for block in self._blocks]
        dependent = (np.concatenate([b.variables for b in self._blocks])
                     if self._blocks else np.zeros(0, dtype=np.int64))
        self._dependent = dependent

        # run_chain's compact world: the block variables in block order,
        # then the clamped variables any block's other edges read
        position = np.full(compiled.num_variables, -1, dtype=np.int64)
        position[dependent] = np.arange(len(dependent))
        reads = np.concatenate([dependent]
                               + [b.other_vars for b in self._blocks])
        constant = np.unique(reads[position[reads] < 0])
        position[constant] = len(dependent) + np.arange(len(constant))
        self._compact_vars = np.concatenate((dependent, constant))
        self._color_layout, lo = [], 0
        for block in self._blocks:
            hi = lo + len(block.variables)
            self._color_layout.append((position[block.other_vars],
                                       slice(lo, hi)))
            lo = hi
        self.refresh_weights()

    # ----------------------------------------------------------------- state
    def initial_assignment(self) -> np.ndarray:
        """Random initial world with evidence variables at their labels."""
        assignment = self.rng.random(self.compiled.num_variables) < 0.5
        assignment[self.compiled.is_evidence] = self.compiled.evidence_values[
            self.compiled.is_evidence]
        return assignment

    def refresh_weights(self) -> None:
        """Recompute cached weight gathers after the learner updates weights."""
        self._unary_deltas = self.compiled.unary_deltas()
        for kernel in self._kernels:
            kernel.refresh(self.compiled.weight_values, self._unary_deltas)
        self._independent_probs = _sigmoid_array(
            self._unary_deltas[self._independent_index])

    # ----------------------------------------------------------------- sweeps
    def sweep(self, assignment: np.ndarray, beta: float = 1.0) -> int:
        """One full Gibbs sweep in place, a one-sweep :meth:`run_chain`;
        returns variables sampled."""
        return self.run_chain(assignment, 1, 0, beta)[1]

    def sweep_reference(self, assignment: np.ndarray,
                        beta: float = 1.0) -> int:
        """Scalar per-variable sweep, the oracle :meth:`run_chain` is tested
        against: identical RNG stream, identical chromatic visit order,
        sequential conditionals, each flip delta its unary delta plus
        :meth:`CompiledGraph.general_delta`."""
        probs = self._independent_probs
        if beta != 1.0:
            probs = _sigmoid_array(
                self._unary_deltas[self._independent_index] * beta)
        sampled = len(probs)
        if sampled:
            assignment[self._independent_index] = (
                self.rng.random(sampled) < probs)
        if len(self._dependent):
            uniforms = self.rng.random(len(self._dependent))
            unary = self._unary_deltas
            for i, var in enumerate(self._dependent.tolist()):
                delta = unary[var] + self.compiled.general_delta(var, assignment)
                assignment[var] = uniforms[i] < _sigmoid_scalar(
                    float(delta) * beta)
            sampled += len(self._dependent)
        return sampled

    def mean_field_pass(self, mu: np.ndarray) -> np.ndarray:
        """One Jacobi mean-field pass over the sweep's schedule: a copy of
        ``mu`` in which every variable a sweep would sample holds sigmoid of
        its expected flip delta, the others independent Bernoulli(``mu``).
        Unary-only variables get their exact marginal."""
        new_mu = mu.copy()
        new_mu[self._independent_index] = self._independent_probs
        for kernel in self._kernels:
            new_mu[kernel.block.variables] = _sigmoid_array(
                kernel.expected_deltas(mu))
        return new_mu

    # ------------------------------------------------------------------ chains
    @property
    def chunk_sweeps(self) -> int:
        """Sweeps per RNG draw of :meth:`run_chain`."""
        width = len(self._independent_index) + len(self._dependent)
        return max(1, CHAIN_UNIFORMS // max(width, 1))

    def run_chain(self, world: np.ndarray, num_samples: int, burn_in: int,
                  beta: float = 1.0) -> tuple[np.ndarray, int]:
        """Sweep ``world`` in place ``burn_in + num_samples`` times; return
        the per-variable totals of the ``num_samples`` post-burn-in worlds
        and the variable samples drawn.

        Each sweep samples the unary-only variables, then the color blocks
        in order; ``beta`` is the inverse temperature every flip delta is
        scaled by (annealed MAP search; at 1 the chain samples the model).
        A sweep draws ``n_independent + n_dependent`` uniforms, so one draw
        per chunk of :attr:`chunk_sweeps` sweeps (never past the last) is
        the same stream as a draw per sweep.  Per chunk, the unary-only
        variables are sampled in bulk.  Color blocks read and write a float
        *compact world* -- the block variables, then the clamped variables
        their other edges read -- comparing uniforms with flip
        probabilities straight into their slice of it; ``world`` is written
        back at the end.  Totals are exact integer counts, so their order
        of addition does not matter.  A tabled block reads its flip table
        from the first sweep of a chain of two or more, and in a one-sweep
        chain once it has swept since its refresh (the learner sweeps once
        per refresh and would pay for a table it never reads); the table's
        rows are the direct path's bits.
        """
        total_sweeps = burn_in + num_samples
        independent, dependent = self._independent_index, self._dependent
        n_independent, n_dependent = len(independent), len(dependent)
        width = n_independent + n_dependent
        unary_probs = self._independent_probs
        if beta != 1.0:
            unary_probs = _sigmoid_array(self._unary_deltas[independent] * beta)

        compact = world[self._compact_vars].astype(np.float64)
        colors = []
        for kernel, (pos, cols) in zip(self._kernels, self._color_layout):
            tabled = kernel.table_rows and (total_sweeps >= 2 or kernel._sweeps)
            colors.append((kernel.table() if tabled else kernel, pos, cols,
                           compact[cols]))

        traced = obs.enabled()
        seconds, flips = np.zeros(len(colors)), np.zeros(len(colors))
        independent_counts = np.zeros(n_independent, dtype=np.float64)
        dependent_counts = np.zeros(n_dependent, dtype=np.float64)
        block_world = compact[:n_dependent]
        done = 0
        while done < total_sweeps:
            k = min(self.chunk_sweeps, total_sweeps - done)
            uniforms = self.rng.random(k * width).reshape(k, width)
            unary_rows = uniforms[:, :n_independent] < unary_probs
            first_sample = max(0, burn_in - done)
            independent_counts += unary_rows[first_sample:].sum(axis=0)
            if n_independent:
                world[independent] = unary_rows[-1]
            for sweep in range(k if colors else 0):
                u = uniforms[sweep, n_independent:]
                for c, (source, pos, cols, out) in enumerate(colors):
                    if traced:
                        started, before = perf_counter(), out.copy()
                    np.less(u[cols], source.probabilities(compact[pos], beta),
                            out=out)
                    if traced:
                        seconds[c] += perf_counter() - started
                        flips[c] += np.count_nonzero(before != out)
                if sweep >= first_sample:
                    dependent_counts += block_world
            if traced:
                obs.count("gibbs.sweeps", k)
                obs.count("gibbs.samples", k * width)
                for c, (*_, out) in enumerate(colors):
                    obs.observe("gibbs.color_sweep_seconds", seconds[c] / k,
                                color=c)
                    obs.observe("gibbs.flip_fraction",
                                flips[c] / (k * len(out)), color=c)
                seconds[:] = flips[:] = 0.0
            done += k
        world[dependent] = block_world
        totals = world * np.float64(num_samples)
        totals[independent] = independent_counts
        totals[dependent] = dependent_counts
        return totals, total_sweeps * width

    # -------------------------------------------------------------- inference
    def marginals(self, num_samples: int = 100, burn_in: int = 20,
                  assignment: np.ndarray | None = None) -> MarginalResult:
        """Estimate marginals from ``num_samples`` post-burn-in sweeps
        (:meth:`run_chain`).

        Evidence variables (when clamped) report their label as probability
        0/1, matching DeepDive's output convention.  Raises ``ValueError``
        for ``num_samples < 1`` or ``burn_in < 0``.
        """
        check_chain_length(num_samples, burn_in)
        tables = [kernel.table_rows for kernel in self._kernels
                  if kernel.table_rows]
        with obs.span("inference.marginals", colors=len(self._blocks),
                      table_blocks=len(tables), table_rows=sum(tables),
                      variables=self.compiled.num_variables,
                      num_samples=num_samples, burn_in=burn_in,
                      chunk_sweeps=self.chunk_sweeps):
            if assignment is None:
                assignment = self.initial_assignment()
            totals, _ = self.run_chain(assignment, num_samples, burn_in)
            marginals = totals / num_samples
            marginals[self.clamped] = self.compiled.evidence_values[self.clamped]
        return MarginalResult(marginals=marginals, num_samples=num_samples, burn_in=burn_in)
