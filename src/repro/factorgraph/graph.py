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
with numpy (:meth:`FactorGraph.columns`).  Restoring is bulk too:
:meth:`FactorGraph.image` exports the live rows as arrays
(:class:`GraphImage`) and :meth:`FactorGraph.from_image` validates and
rebuilds the columns from them, ids exact.

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


class GraphImage(NamedTuple):
    """A graph's live rows as arrays, ids ascending: the form checkpoints and
    :mod:`~repro.factorgraph.serialize` restore through."""

    next_ids: dict               # FactorGraph.next_ids()
    var_id: np.ndarray           # int64
    var_key: list
    var_evidence: np.ndarray     # int8: -1 none, 0 false, 1 true
    var_initial: np.ndarray      # bool
    weight_id: np.ndarray        # int64, in the graph's weight order
    weight_key: list
    weight_value: np.ndarray     # float64
    weight_fixed: np.ndarray     # bool
    weight_observations: np.ndarray  # int64
    factor_id: np.ndarray        # int64
    factor_function: np.ndarray  # int8
    factor_weight: np.ndarray    # int64
    factor_arity: np.ndarray     # int64: edges per factor
    edge_var: np.ndarray         # int64, factor by factor
    edge_negated: np.ndarray     # bool


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


def _check_arity(function: FactorFunction, arity: int) -> None:
    lo, hi = arity_constraint(function)
    if arity < lo or (hi is not None and arity > hi):
        raise GraphError(f"{function.name} factor cannot have arity {arity}")


def _check_live(var_ids: np.ndarray, alive: np.ndarray) -> None:
    """Raise for the first of ``var_ids`` that is not a live variable."""
    bad = (var_ids < 0) | (var_ids >= len(alive))
    bad[~bad] = ~alive[var_ids[~bad]]
    if bad.any():
        raise GraphError(f"unknown variable id {var_ids[bad][0]}")


def _check_weights(weight_ids: Iterable[int], known) -> None:
    for weight_id in weight_ids:
        if weight_id not in known:
            raise GraphError(f"unknown weight id {weight_id}")


def _scatter(ids: np.ndarray, values, size: int, fill: int, dtype) -> bytes:
    """A column of ``size`` slots: ``values`` at ``ids``, ``fill`` elsewhere."""
    column = np.full(size, fill, dtype=dtype)
    column[ids] = values
    return column.tobytes()


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

    def _append_variables(self, keys: list[Hashable],
                          initial: bool = False) -> int:
        first = len(self._var_key)
        n = len(keys)
        self._var_key.extend(keys)
        self._var_evidence.frombytes(b"\xff" * n)
        self._var_initial.frombytes(bytes([bool(initial)]) * n)
        self._var_factors.frombytes(bytes(8 * n))
        self._var_alive.frombytes(b"\x01" * n)
        self._var_by_key.update(zip(keys, range(first, first + n)))
        self._num_variables += n
        return first

    def has_variable(self, key: Hashable) -> bool:
        return key in self._var_by_key

    def variable_id(self, key: Hashable) -> int:
        try:
            return self._var_by_key[key]
        except KeyError:
            raise GraphError(f"no variable with key {key!r}") from None

    def variable_keys(self, var_ids=None) -> list[Hashable]:
        """Keys of the live variables in id order, or of the live variables
        ``var_ids`` (one key per id, in their order)."""
        if var_ids is None:
            return list(compress(self._var_key, self._var_alive))
        var_ids = np.asarray(var_ids, dtype=np.int64)
        _check_live(var_ids, np.asarray(self._var_alive, dtype=bool))
        return list(map(self._var_key.__getitem__, var_ids.tolist()))

    def variable_ids(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Ids of the live variables with ``keys``, one per key."""
        try:
            return np.fromiter(map(self._var_by_key.__getitem__, keys),
                               dtype=np.int64)
        except KeyError as error:
            raise GraphError(f"no variable with key {error.args[0]!r}") \
                from None

    def set_evidence(self, key: Hashable, value: bool | None) -> None:
        """Mark the variable with ``key`` as evidence (or clear with None)."""
        self._var_evidence[self.variable_id(key)] = \
            _NO_EVIDENCE if value is None else int(bool(value))

    def set_evidence_ids(self, var_ids: Iterable[int],
                         values: Iterable[bool]) -> None:
        """:meth:`set_evidence` by id: mark each variable of ``var_ids``
        as evidence with its value in ``values``."""
        evidence = self._var_evidence
        for var_id, value in zip(var_ids, values):
            evidence[var_id] = bool(value)

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
        _check_live(members, np.asarray(self._var_alive, dtype=bool))
        used, uses = np.unique(weight_ids, return_counts=True)
        _check_weights(used.tolist(), self.weights)

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
        _check_arity(function, arity)
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
        _check_weights((weight_id,), self.weights)
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

    # ----------------------------------------------------------- restoration
    def next_ids(self) -> dict[str, int]:
        """The id-allocation counters (persisted so restore + new insertions
        allocate the same ids the live graph would have)."""
        return {"variable": len(self._var_key),
                "factor": len(self._factor_alive),
                "weight": self._next_weight}

    def image(self) -> GraphImage:
        """The live variables, weights and factors as arrays, ids ascending:
        what :meth:`from_image` restores."""
        columns = self.columns()
        var_id = np.flatnonzero(columns.var_alive)
        factor_id = np.flatnonzero(columns.factor_alive)
        indptr = columns.factor_indptr
        arity = np.diff(indptr)
        edges = columns.factor_alive[np.repeat(np.arange(len(arity)), arity)]
        weights = self.weights.values()
        return GraphImage(
            next_ids=self.next_ids(),
            var_id=var_id,
            var_key=self.variable_keys(),
            var_evidence=columns.var_evidence[var_id],
            var_initial=columns.var_initial[var_id],
            weight_id=np.fromiter(self.weights, dtype=np.int64,
                                  count=len(self.weights)),
            weight_key=[w.key for w in weights],
            weight_value=np.array([w.value for w in weights],
                                  dtype=np.float64),
            weight_fixed=np.array([w.fixed for w in weights], dtype=bool),
            weight_observations=np.array([w.observations for w in weights],
                                         dtype=np.int64),
            factor_id=factor_id,
            factor_function=columns.factor_function[factor_id],
            factor_weight=columns.factor_weight[factor_id],
            factor_arity=arity[factor_id],
            edge_var=columns.edge_var[edges],
            edge_negated=columns.edge_negated[edges])

    @classmethod
    def from_image(cls, image: GraphImage) -> "FactorGraph":
        """The graph :meth:`image` describes, ids exact.

        Checkpoint recovery must rebuild a graph whose ids match the live
        graph's: ``CompiledGraph`` orders variables by id, so id drift would
        reorder the Gibbs sweep and break bit-identical replay, and the
        grounder's row->factor bookkeeping stores raw ids.  Skipped ids become
        tombstones and the id counters continue from ``next_ids``.  Weights
        keep their persisted observation counts.

        Checks everything :meth:`add_factors` checks -- arity per function,
        live variable ids, known weight ids -- plus ascending ids and unique
        keys, all before building anything.
        """
        var_id = np.asarray(image.var_id, dtype=np.int64)
        var_evidence = np.asarray(image.var_evidence, dtype=np.int64)
        weight_id = np.asarray(image.weight_id, dtype=np.int64).tolist()
        factor_id = np.asarray(image.factor_id, dtype=np.int64)
        function = np.asarray(image.factor_function, dtype=np.int64)
        arity = np.asarray(image.factor_arity, dtype=np.int64)
        edge_var = np.asarray(image.edge_var, dtype=np.int64)
        edge_negated = np.asarray(image.edge_negated, dtype=bool)
        for name, ids in (("variable", var_id), ("factor", factor_id)):
            if len(ids) and (ids[0] < 0 or (np.diff(ids) <= 0).any()):
                raise GraphError(f"{name} ids must ascend (restore in id "
                                 f"order)")
        if not (len(var_id) == len(image.var_key) == len(var_evidence)
                == len(image.var_initial)
                and len(weight_id) == len(image.weight_key)
                == len(image.weight_value) == len(image.weight_fixed)
                == len(image.weight_observations)
                and len(factor_id) == len(function) == len(arity)
                == len(image.factor_weight)
                and arity.sum() == len(edge_var) == len(edge_negated)):
            raise GraphError("graph image columns differ in length")
        if ((var_evidence < _NO_EVIDENCE) | (var_evidence > 1)).any():
            raise GraphError("variable evidence must be -1, 0 or 1")
        var_by_key = dict(zip(image.var_key, var_id.tolist()))
        weight_by_key = dict(zip(image.weight_key, weight_id))
        known_weights = set(weight_id)
        if (len(var_by_key) < len(var_id)
                or len(weight_by_key) < len(weight_id)
                or len(known_weights) < len(weight_id)):
            raise GraphError("variable keys, weight keys and weight ids "
                             "must be unique")
        bad = (function < 0) | (function >= len(_FUNCTIONS))
        if bad.any():
            raise GraphError(f"unknown factor function {function[bad][0]}")
        for code in np.unique(function).tolist():
            shapes = np.unique(arity[function == code])
            _check_arity(_FUNCTIONS[code], int(shapes[0]))
            _check_arity(_FUNCTIONS[code], int(shapes[-1]))
        counters = image.next_ids
        num_vars = max(counters.get("variable", 0),
                       int(var_id[-1]) + 1 if len(var_id) else 0)
        num_factors = max(counters.get("factor", 0),
                          int(factor_id[-1]) + 1 if len(factor_id) else 0)
        alive = np.zeros(num_vars, dtype=bool)
        alive[var_id] = True
        _check_live(edge_var, alive)
        _check_weights(np.unique(image.factor_weight).tolist(), known_weights)

        # a factor counts once per distinct member variable
        width = max(num_vars, 1)
        owner = np.repeat(np.arange(len(factor_id)), arity)
        members = np.unique(owner * width + edge_var) % width
        graph = cls()
        keys: list[Hashable] = [None] * num_vars
        for position, key in zip(var_id.tolist(), image.var_key):
            keys[position] = key
        graph._var_key = keys
        graph._var_evidence.frombytes(
            _scatter(var_id, var_evidence, num_vars, _NO_EVIDENCE, np.int8))
        graph._var_initial.frombytes(
            _scatter(var_id, image.var_initial, num_vars, 0, np.int8))
        graph._var_factors.frombytes(
            np.bincount(members, minlength=num_vars).astype(np.int64).tobytes())
        graph._var_alive.frombytes(alive.astype(np.int8).tobytes())
        graph._factor_function.frombytes(
            _scatter(factor_id, function, num_factors, 0, np.int8))
        graph._factor_weight.frombytes(
            _scatter(factor_id, image.factor_weight, num_factors, 0, np.int64))
        graph._factor_alive.frombytes(
            _scatter(factor_id, 1, num_factors, 0, np.int8))
        slot_arity = np.zeros(num_factors, dtype=np.int64)
        slot_arity[factor_id] = arity
        graph._indptr.frombytes(np.cumsum(slot_arity).tobytes())
        graph._edge_var.frombytes(edge_var.tobytes())
        graph._edge_negated.frombytes(edge_negated.astype(np.int8).tobytes())
        graph._var_by_key = var_by_key
        graph._num_variables = len(var_id)
        graph._num_factors = len(factor_id)
        for weight, key, value, fixed, observations in zip(
                weight_id, image.weight_key,
                np.asarray(image.weight_value, dtype=np.float64).tolist(),
                np.asarray(image.weight_fixed, dtype=bool).tolist(),
                np.asarray(image.weight_observations,
                           dtype=np.int64).tolist()):
            graph.weights[weight] = Weight(weight, key, value, fixed,
                                           observations)
        graph._weight_by_key = weight_by_key
        graph._next_weight = max([counters.get("weight", 0),
                                  *(w + 1 for w in weight_id)])
        return graph

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
