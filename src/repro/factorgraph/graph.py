"""The mutable factor graph built during grounding, stored as columns.

Grounding produces variables (one per candidate tuple), weights (one per
feature value, *tied* across all factors grounded from the same feature --
the paper's "weight tying"), and factors (one per rule grounding).  The
structure supports removal, which incremental grounding uses when DRed
reports that a tuple lost all its derivations.

Variables and factors live in append-only parallel columns (``array``
buffers), and an id is a position in them.  Removal writes a tombstone
instead of compacting, so ids are never reused and stay the same across a
checkpoint round trip.  Per variable: key, evidence (``-1`` none, ``0``/``1``
a label), initial value, the number of live factors touching it, and a live
flag.  Per factor: function, weight id, live flag, and a CSR (``indptr`` into
one flat variable/negation edge list).  Bulk grounding appends a whole rule
with :meth:`FactorGraph.add_factors`; ``CompiledGraph`` reads the columns
with numpy (:meth:`FactorGraph.columns`).

``variables`` and ``factors`` are read-only mappings that build a
:class:`Variable` / :class:`Factor` record per lookup -- the cold, per-item
face of the columns.  Weights stay a dict of mutable :class:`Weight`
objects: there are few of them and the learner writes their values back.

Evidence (from distant supervision) is recorded on variables; the learner
clamps evidence variables, the marginal inference step treats every
non-evidence variable as a query.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.factorgraph.factor_functions import FactorFunction, arity_constraint

_FUNCTIONS = tuple(FactorFunction)
_NO_EVIDENCE = -1


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class Variable(NamedTuple):
    """One Boolean random variable (= one candidate tuple in the database)."""

    var_id: int
    key: Hashable                      # e.g. ("MarriedMentions", mention_pair)
    evidence: bool | None              # None = query variable
    initial: bool
    factor_count: int                  # live factors touching the variable


class Factor(NamedTuple):
    """One grounded factor: a hyperedge over variables with a tied weight."""

    factor_id: int
    function: FactorFunction
    var_ids: tuple[int, ...]
    negated: tuple[bool, ...]
    weight_id: int


@dataclass
class Weight:
    """A (possibly tied) factor weight.

    ``key`` identifies the weight for tying: every factor whose rule+feature
    evaluates to the same key shares this weight.  ``fixed`` weights are not
    trained (used for hard correlation rules).  ``observations`` counts how
    many groundings reference the weight -- the statistic the error-analysis
    document surfaces so engineers can spot under-trained features.
    """

    weight_id: int
    key: Hashable
    value: float = 0.0
    fixed: bool = False
    observations: int = 0


class GraphColumns(NamedTuple):
    """numpy copies of a graph's columns, indexed by id (tombstones included)."""

    var_alive: np.ndarray        # bool
    var_evidence: np.ndarray     # int8: -1 none, 0 false, 1 true
    var_initial: np.ndarray      # bool
    factor_alive: np.ndarray     # bool
    factor_function: np.ndarray  # int8
    factor_weight: np.ndarray    # int64
    factor_indptr: np.ndarray    # int64, one more than factor ids
    edge_var: np.ndarray         # int64
    edge_negated: np.ndarray     # bool


def _live(flags: array, i) -> bool:
    try:
        return 0 <= i < len(flags) and flags[i] == 1
    except TypeError:            # not an id at all
        return False


class _Variables(Mapping):
    """Read-only ``var_id -> Variable`` view of the live variables."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "FactorGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._num_variables

    def __iter__(self) -> Iterator[int]:
        alive = self._graph._var_alive
        return compress(range(len(alive)), alive)

    def __contains__(self, var_id) -> bool:
        return _live(self._graph._var_alive, var_id)

    def __getitem__(self, var_id) -> Variable:
        graph = self._graph
        if not _live(graph._var_alive, var_id):
            raise KeyError(var_id)
        evidence = graph._var_evidence[var_id]
        return Variable(var_id, graph._var_key[var_id],
                        None if evidence == _NO_EVIDENCE else bool(evidence),
                        bool(graph._var_initial[var_id]),
                        graph._var_factors[var_id])


class _Factors(Mapping):
    """Read-only ``factor_id -> Factor`` view of the live factors."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "FactorGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return self._graph._num_factors

    def __iter__(self) -> Iterator[int]:
        alive = self._graph._factor_alive
        return compress(range(len(alive)), alive)

    def __contains__(self, factor_id) -> bool:
        return _live(self._graph._factor_alive, factor_id)

    def __getitem__(self, factor_id) -> Factor:
        graph = self._graph
        if not _live(graph._factor_alive, factor_id):
            raise KeyError(factor_id)
        lo, hi = graph._indptr[factor_id], graph._indptr[factor_id + 1]
        return Factor(factor_id, _FUNCTIONS[graph._factor_function[factor_id]],
                      tuple(graph._edge_var[lo:hi]),
                      tuple(map(bool, graph._edge_negated[lo:hi])),
                      graph._factor_weight[factor_id])


class FactorGraph:
    """Mutable factor graph with stable integer ids and key-based dedup."""

    def __init__(self) -> None:
        # variable columns
        self._var_key: list[Hashable] = []
        self._var_evidence = array("b")
        self._var_initial = array("b")
        self._var_factors = array("q")
        self._var_alive = array("b")
        # factor columns; factor f's edges are _indptr[f]:_indptr[f + 1]
        self._factor_function = array("b")
        self._factor_weight = array("q")
        self._factor_alive = array("b")
        self._indptr = array("q", [0])
        self._edge_var = array("q")
        self._edge_negated = array("b")

        self.weights: dict[int, Weight] = {}
        self._var_by_key: dict[Hashable, int] = {}
        self._weight_by_key: dict[Hashable, int] = {}
        self._num_variables = 0
        self._num_factors = 0
        self._next_weight = 0

    @property
    def variables(self) -> Mapping[int, Variable]:
        return _Variables(self)

    @property
    def factors(self) -> Mapping[int, Factor]:
        return _Factors(self)

    # -------------------------------------------------------------- variables
    def variable(self, key: Hashable, initial: bool = False) -> int:
        """Return the id of the variable with ``key``, creating it if needed."""
        var_id = self._var_by_key.get(key)
        if var_id is None:
            var_id = self._append_variables([key], initial)
        return var_id

    def intern(self, keys: Sequence[Hashable]) -> tuple[list[int], list[Hashable]]:
        """Ids of ``keys``, one per key, and the keys this call created.

        Missing variables are created in order of first appearance, so the
        ids equal those of calling :meth:`variable` on each key in turn.
        """
        by_key = self._var_by_key
        created = [key for key in dict.fromkeys(keys) if key not in by_key]
        if created:
            self._append_variables(created)
        return list(map(by_key.__getitem__, keys)), created

    def _append_variables(self, keys: list[Hashable], initial: bool = False,
                          alive: bool = True) -> int:
        first = len(self._var_key)
        n = len(keys)
        self._var_key.extend(keys)
        self._var_evidence.frombytes(b"\xff" * n)
        self._var_initial.frombytes(bytes([bool(initial)]) * n)
        self._var_factors.frombytes(bytes(8 * n))
        self._var_alive.frombytes(bytes([alive]) * n)
        if alive:
            self._var_by_key.update(zip(keys, range(first, first + n)))
            self._num_variables += n
        return first

    def _pad_variables(self, end: int) -> None:
        """Tombstone slots up to id ``end`` (ids a restored graph skips)."""
        self._append_variables([None] * (end - len(self._var_key)),
                               alive=False)

    def has_variable(self, key: Hashable) -> bool:
        return key in self._var_by_key

    def variable_id(self, key: Hashable) -> int:
        try:
            return self._var_by_key[key]
        except KeyError:
            raise GraphError(f"no variable with key {key!r}") from None

    def variable_keys(self) -> list[Hashable]:
        """Keys of the live variables, in id order."""
        return list(compress(self._var_key, self._var_alive))

    def set_evidence(self, key: Hashable, value: bool | None) -> None:
        """Mark the variable with ``key`` as evidence (or clear with None)."""
        self._var_evidence[self.variable_id(key)] = \
            _NO_EVIDENCE if value is None else int(bool(value))

    def remove_variable(self, key: Hashable) -> None:
        """Remove a variable and every factor attached to it."""
        var_id = self.variable_id(key)
        if self._var_factors[var_id]:
            for factor_id in self.factors_of(var_id):
                self.remove_factor(factor_id)
        self._var_alive[var_id] = 0
        self._var_key[var_id] = None
        self._var_evidence[var_id] = _NO_EVIDENCE
        del self._var_by_key[key]
        self._num_variables -= 1

    # ---------------------------------------------------------------- weights
    def weight(self, key: Hashable, initial_value: float = 0.0, fixed: bool = False) -> int:
        """Return the id of the (tied) weight with ``key``, creating if needed."""
        weight_id = self._weight_by_key.get(key)
        if weight_id is None:
            weight_id = self._next_weight
            self._next_weight += 1
            self.weights[weight_id] = Weight(weight_id, key, initial_value, fixed)
            self._weight_by_key[key] = weight_id
        return weight_id

    def weight_by_key(self, key: Hashable) -> Weight:
        try:
            return self.weights[self._weight_by_key[key]]
        except KeyError:
            raise GraphError(f"no weight with key {key!r}") from None

    # ---------------------------------------------------------------- factors
    def add_factor(self, function: FactorFunction, var_ids: Sequence[int],
                   weight_id: int, negated: Sequence[bool] | None = None) -> int:
        """Add a factor over ``var_ids`` with ``weight_id``; returns its id."""
        var_ids, negated = self._check_factor(function, var_ids, weight_id,
                                              negated)
        factor_id = self._append_factor(function, var_ids, weight_id, negated)
        self.weights[weight_id].observations += 1
        return factor_id

    def add_factors(self, function: FactorFunction, var_ids, weight_ids,
                    negated: Sequence[bool] | None = None) -> range:
        """Add one factor per row of the ``(n, arity)`` id matrix ``var_ids``,
        the i-th tied to ``weight_ids[i]``, every one with the same literal
        polarity ``negated``; returns the new ids.

        Checks everything :meth:`add_factor` checks before adding anything:
        the arity once, every variable id and every weight id.
        """
        members = np.asarray(var_ids, dtype=np.int64)
        weight_ids = np.asarray(weight_ids, dtype=np.int64)
        if members.ndim != 2 or weight_ids.shape != members.shape[:1]:
            raise GraphError("add_factors needs an (n, arity) variable id "
                             "matrix and one weight id per row")
        n, arity = members.shape
        first = len(self._factor_alive)
        if n == 0:
            return range(first, first)
        negated = self._check_shape(function, arity, negated)
        alive = np.asarray(self._var_alive, dtype=bool)
        bad = (members < 0) | (members >= len(alive))
        bad[~bad] = ~alive[members[~bad]]
        if bad.any():
            raise GraphError(f"unknown variable id {members[bad][0]}")
        used, uses = np.unique(weight_ids, return_counts=True)
        for weight_id in used.tolist():
            if weight_id not in self.weights:
                raise GraphError(f"unknown weight id {weight_id}")

        self._factor_function.frombytes(bytes([int(function)]) * n)
        self._factor_weight.frombytes(weight_ids.tobytes())
        self._factor_alive.frombytes(b"\x01" * n)
        self._indptr.frombytes((self._indptr[-1] + arity
                                * np.arange(1, n + 1, dtype=np.int64)).tobytes())
        self._edge_var.frombytes(members.tobytes())
        self._edge_negated.frombytes(bytes(negated) * n)
        # a factor counts once per distinct member variable
        if arity > 1:
            members = np.sort(members, axis=1)
            members = members[np.concatenate(
                [np.ones((n, 1), dtype=bool), members[:, 1:] != members[:, :-1]],
                axis=1)]
        degree = np.frombuffer(self._var_factors, dtype=np.int64)
        degree += np.bincount(members.ravel(), minlength=len(degree))
        del degree                       # release the buffer before any append
        for weight_id, count in zip(used.tolist(), uses.tolist()):
            self.weights[weight_id].observations += count
        self._num_factors += n
        return range(first, first + n)

    def _check_shape(self, function: FactorFunction, arity: int,
                     negated: Sequence[bool] | None) -> tuple[bool, ...]:
        negated = (False,) * arity if negated is None \
            else tuple(map(bool, negated))
        if len(negated) != arity:
            raise GraphError("negated mask length must match variable count")
        lo, hi = arity_constraint(function)
        if arity < lo or (hi is not None and arity > hi):
            raise GraphError(f"{function.name} factor cannot have arity {arity}")
        return negated

    def _check_factor(self, function: FactorFunction, var_ids: Sequence[int],
                      weight_id: int, negated: Sequence[bool] | None,
                      ) -> tuple[tuple[int, ...], tuple[bool, ...]]:
        var_ids = tuple(var_ids)
        negated = self._check_shape(function, len(var_ids), negated)
        alive = self._var_alive
        for var_id in var_ids:
            if not _live(alive, var_id):
                raise GraphError(f"unknown variable id {var_id}")
        if weight_id not in self.weights:
            raise GraphError(f"unknown weight id {weight_id}")
        return var_ids, negated

    def _append_factor(self, function: FactorFunction, var_ids: tuple[int, ...],
                       weight_id: int, negated: tuple[bool, ...]) -> int:
        factor_id = len(self._factor_alive)
        self._factor_function.append(int(function))
        self._factor_weight.append(weight_id)
        self._factor_alive.append(1)
        self._edge_var.extend(var_ids)
        self._edge_negated.extend(negated)
        self._indptr.append(len(self._edge_var))
        for var_id in set(var_ids):
            self._var_factors[var_id] += 1
        self._num_factors += 1
        return factor_id

    def remove_factor(self, factor_id: int) -> None:
        if not _live(self._factor_alive, factor_id):
            raise KeyError(factor_id)
        self._factor_alive[factor_id] = 0
        lo, hi = self._indptr[factor_id], self._indptr[factor_id + 1]
        for var_id in set(self._edge_var[lo:hi]):
            self._var_factors[var_id] -= 1
        self.weights[self._factor_weight[factor_id]].observations -= 1
        self._num_factors -= 1

    def factors_of(self, var_id: int) -> list[int]:
        """Ids of the live factors touching ``var_id``, ascending (a scan of
        the edge column: for cold readers and variable removal)."""
        edges = np.flatnonzero(np.asarray(self._edge_var) == var_id)
        owners = np.searchsorted(np.asarray(self._indptr), edges, side="right") - 1
        alive = self._factor_alive
        return [f for f in dict.fromkeys(owners.tolist()) if alive[f]]

    def _pad_factors(self, end: int) -> None:
        n = end - len(self._factor_alive)
        if n > 0:
            self._factor_function.frombytes(bytes(n))
            self._factor_weight.frombytes(bytes(8 * n))
            self._factor_alive.frombytes(bytes(n))
            self._indptr.frombytes(np.full(n, self._indptr[-1],
                                           dtype=np.int64).tobytes())

    # ----------------------------------------------------------- restoration
    # Checkpoint recovery must rebuild a graph whose variable/weight/factor
    # ids match the live graph exactly: CompiledGraph orders variables by id,
    # so id drift would reorder the Gibbs sweep and break bit-identical
    # replay, and the grounder's row->factor bookkeeping stores raw ids.
    # Ids are positions, so variables and factors are restored in increasing
    # id order (the order serialize.to_dict writes); skipped ids become
    # tombstones.
    def restore_variable(self, var_id: int, key: Hashable,
                         evidence: bool | None = None,
                         initial: bool = False) -> int:
        """Insert a variable under an explicit id (checkpoint restore)."""
        if var_id < len(self._var_key):
            raise GraphError(f"variable id {var_id} already allocated "
                             f"(restore in id order)")
        if key in self._var_by_key:
            raise GraphError(f"variable key {key!r} already present")
        self._pad_variables(var_id)
        self._append_variables([key], initial)
        if evidence is not None:
            self._var_evidence[var_id] = int(bool(evidence))
        return var_id

    def restore_weight(self, weight_id: int, key: Hashable, value: float = 0.0,
                       fixed: bool = False, observations: int = 0) -> int:
        """Insert a weight under an explicit id (checkpoint restore)."""
        if weight_id in self.weights:
            raise GraphError(f"weight id {weight_id} already present")
        if key in self._weight_by_key:
            raise GraphError(f"weight key {key!r} already present")
        self.weights[weight_id] = Weight(weight_id, key, value, fixed,
                                         observations)
        self._weight_by_key[key] = weight_id
        self._next_weight = max(self._next_weight, weight_id + 1)
        return weight_id

    def restore_factor(self, factor_id: int, function: FactorFunction,
                       var_ids: Sequence[int], weight_id: int,
                       negated: Sequence[bool] | None = None) -> int:
        """Insert a factor under an explicit id (checkpoint restore).

        Validates exactly as :meth:`add_factor` does, but does **not** bump
        the weight's observation count: restored weights carry their
        persisted counts.
        """
        if factor_id < len(self._factor_alive):
            raise GraphError(f"factor id {factor_id} already allocated "
                             f"(restore in id order)")
        var_ids, negated = self._check_factor(function, var_ids, weight_id,
                                              negated)
        self._pad_factors(factor_id)
        return self._append_factor(function, var_ids, weight_id, negated)

    def next_ids(self) -> dict[str, int]:
        """The id-allocation counters (persisted so restore + new insertions
        allocate the same ids the live graph would have)."""
        return {"variable": len(self._var_key),
                "factor": len(self._factor_alive),
                "weight": self._next_weight}

    def restore_next_ids(self, counters: dict[str, int]) -> None:
        """Fast-forward the id counters to persisted values."""
        self._pad_variables(counters.get("variable", 0))
        self._pad_factors(counters.get("factor", 0))
        self._next_weight = max(self._next_weight, counters.get("weight", 0))

    # -------------------------------------------------------------- inspection
    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def num_factors(self) -> int:
        return self._num_factors

    @property
    def num_weights(self) -> int:
        return len(self.weights)

    def columns(self) -> GraphColumns:
        """numpy copies of every variable and factor column."""
        return GraphColumns(
            var_alive=np.array(self._var_alive, dtype=bool),
            var_evidence=np.array(self._var_evidence, dtype=np.int8),
            var_initial=np.array(self._var_initial, dtype=bool),
            factor_alive=np.array(self._factor_alive, dtype=bool),
            factor_function=np.array(self._factor_function, dtype=np.int8),
            factor_weight=np.array(self._factor_weight, dtype=np.int64),
            factor_indptr=np.array(self._indptr, dtype=np.int64),
            edge_var=np.array(self._edge_var, dtype=np.int64),
            edge_negated=np.array(self._edge_negated, dtype=bool))

    def evidence_variables(self) -> Iterable[Variable]:
        return (v for v in self.variables.values() if v.evidence is not None)

    def query_variables(self) -> Iterable[Variable]:
        return (v for v in self.variables.values() if v.evidence is None)

    def stats(self) -> dict[str, int]:
        """Size statistics for execution-history logging."""
        # removal resets a tombstone's evidence, so every label is live
        evidence = int(np.count_nonzero(
            np.asarray(self._var_evidence, dtype=np.int8) != _NO_EVIDENCE))
        return {
            "variables": self.num_variables,
            "factors": self.num_factors,
            "weights": self.num_weights,
            "evidence": evidence,
            "query": self.num_variables - evidence,
        }
