"""The object factor graph: the test oracle of the columnar store.

One ``Variable`` (with its set of factor ids) and one ``Factor`` object per
graph element, in dicts keyed by id -- the representation
:class:`repro.factorgraph.FactorGraph` had before it became columns.  It
keeps the store's contract in the plainest form: ids allocated in order and
never reused, removal by deletion.  :func:`reference_compile` is ``CompiledGraph``'s
per-factor loop over it.  ``tests/property/test_factor_store.py`` runs both
side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.factorgraph import FactorFunction, GraphError, Weight
from repro.factorgraph.factor_functions import arity_constraint


@dataclass
class Variable:
    var_id: int
    key: Hashable
    evidence: bool | None = None
    initial: bool = False
    factor_ids: set[int] = field(default_factory=set)


@dataclass
class Factor:
    factor_id: int
    function: FactorFunction
    var_ids: tuple[int, ...]
    negated: tuple[bool, ...]
    weight_id: int


class ObjectGraph:
    """Mutable factor graph with stable integer ids and key-based dedup."""

    def __init__(self) -> None:
        self.variables: dict[int, Variable] = {}
        self.factors: dict[int, Factor] = {}
        self.weights: dict[int, Weight] = {}
        self._var_by_key: dict[Hashable, int] = {}
        self._weight_by_key: dict[Hashable, int] = {}
        self._next_var = 0
        self._next_factor = 0
        self._next_weight = 0

    # -------------------------------------------------------------- variables
    def variable(self, key: Hashable, initial: bool = False) -> int:
        var_id = self._var_by_key.get(key)
        if var_id is None:
            var_id = self._next_var
            self._next_var += 1
            self.variables[var_id] = Variable(var_id, key, initial=initial)
            self._var_by_key[key] = var_id
        return var_id

    def variable_id(self, key: Hashable) -> int:
        try:
            return self._var_by_key[key]
        except KeyError:
            raise GraphError(f"no variable with key {key!r}") from None

    def set_evidence(self, key: Hashable, value: bool | None) -> None:
        self.variables[self.variable_id(key)].evidence = value

    def remove_variable(self, key: Hashable) -> None:
        var_id = self.variable_id(key)
        for factor_id in list(self.variables[var_id].factor_ids):
            self.remove_factor(factor_id)
        del self.variables[var_id]
        del self._var_by_key[key]

    # ---------------------------------------------------------------- weights
    def weight(self, key: Hashable, initial_value: float = 0.0,
               fixed: bool = False) -> int:
        weight_id = self._weight_by_key.get(key)
        if weight_id is None:
            weight_id = self._next_weight
            self._next_weight += 1
            self.weights[weight_id] = Weight(weight_id, key, initial_value, fixed)
            self._weight_by_key[key] = weight_id
        return weight_id

    # ---------------------------------------------------------------- factors
    def _check(self, function, var_ids, weight_id, negated):
        var_ids = tuple(var_ids)
        negated = (False,) * len(var_ids) if negated is None else tuple(negated)
        if len(negated) != len(var_ids):
            raise GraphError("negated mask length must match variable count")
        lo, hi = arity_constraint(function)
        if len(var_ids) < lo or (hi is not None and len(var_ids) > hi):
            raise GraphError(f"{function.name} factor cannot have arity "
                             f"{len(var_ids)}")
        for var_id in var_ids:
            if var_id not in self.variables:
                raise GraphError(f"unknown variable id {var_id}")
        if weight_id not in self.weights:
            raise GraphError(f"unknown weight id {weight_id}")
        return var_ids, negated

    def _insert(self, factor_id, function, var_ids, negated, weight_id):
        self.factors[factor_id] = Factor(factor_id, function, var_ids,
                                         negated, weight_id)
        for var_id in var_ids:
            self.variables[var_id].factor_ids.add(factor_id)

    def add_factor(self, function: FactorFunction, var_ids: Sequence[int],
                   weight_id: int, negated: Sequence[bool] | None = None) -> int:
        var_ids, negated = self._check(function, var_ids, weight_id, negated)
        factor_id = self._next_factor
        self._next_factor += 1
        self._insert(factor_id, function, var_ids, negated, weight_id)
        self.weights[weight_id].observations += 1
        return factor_id

    def add_factors(self, function: FactorFunction, var_ids, weight_ids,
                    negated: Sequence[bool] | None = None) -> list[int]:
        """One :meth:`add_factor` per row, after checking every row."""
        rows = [tuple(row) for row in var_ids]
        for row, weight_id in zip(rows, weight_ids, strict=True):
            self._check(function, row, weight_id, negated)
        return [self.add_factor(function, row, weight_id, negated)
                for row, weight_id in zip(rows, weight_ids)]

    def remove_factor(self, factor_id: int) -> None:
        factor = self.factors.pop(factor_id)
        for var_id in factor.var_ids:
            variable = self.variables.get(var_id)
            if variable is not None:
                variable.factor_ids.discard(factor_id)
        self.weights[factor.weight_id].observations -= 1

    # ----------------------------------------------------------- restoration
    def next_ids(self) -> dict[str, int]:
        return {"variable": self._next_var, "factor": self._next_factor,
                "weight": self._next_weight}

    # -------------------------------------------------------------- inspection
    def stats(self) -> dict[str, int]:
        evidence = sum(1 for v in self.variables.values()
                       if v.evidence is not None)
        return {"variables": len(self.variables),
                "factors": len(self.factors),
                "weights": len(self.weights),
                "evidence": evidence,
                "query": len(self.variables) - evidence}


def reference_compile(graph: ObjectGraph) -> dict[str, object]:
    """``CompiledGraph``'s arrays, built by a loop over the factor objects."""
    var_ids = sorted(graph.variables)
    var_index = {var_id: i for i, var_id in enumerate(var_ids)}
    n = len(var_ids)
    is_evidence = np.zeros(n, dtype=bool)
    evidence_values = np.zeros(n, dtype=bool)
    initial_values = np.zeros(n, dtype=bool)
    for var_id in var_ids:
        variable = graph.variables[var_id]
        i = var_index[var_id]
        initial_values[i] = variable.initial
        if variable.evidence is not None:
            is_evidence[i] = True
            evidence_values[i] = variable.evidence
    weight_ids = sorted(graph.weights)
    weight_index = {w: i for i, w in enumerate(weight_ids)}

    unary_var, unary_weight, unary_sign, general = [], [], [], []
    for factor in graph.factors.values():
        if factor.function == FactorFunction.IS_TRUE:
            unary_var.append(var_index[factor.var_ids[0]])
            unary_weight.append(weight_index[factor.weight_id])
            unary_sign.append(-1.0 if factor.negated[0] else 1.0)
        else:
            general.append(factor)
    fv_indptr, fv_vars, fv_negated = [0], [], []
    for factor in general:
        fv_vars.extend(var_index[v] for v in factor.var_ids)
        fv_negated.extend(factor.negated)
        fv_indptr.append(len(fv_vars))
    fv_indptr = np.array(fv_indptr, dtype=np.int64)
    fv_vars = np.array(fv_vars, dtype=np.int64)
    vf_indptr, vf_factors = reference_column_csr(n, fv_indptr, fv_vars)
    return {
        "num_variables": n,
        "var_keys": [graph.variables[v].key for v in var_ids],
        "is_evidence": is_evidence,
        "evidence_values": evidence_values,
        "initial_values": initial_values,
        "num_weights": len(weight_ids),
        "weight_keys": [graph.weights[w].key for w in weight_ids],
        "weight_values": np.array([graph.weights[w].value for w in weight_ids],
                                  dtype=np.float64),
        "weight_fixed": np.array([graph.weights[w].fixed for w in weight_ids],
                                 dtype=bool),
        "weight_observations": np.array(
            [graph.weights[w].observations for w in weight_ids], dtype=np.int64),
        "unary_var": np.array(unary_var, dtype=np.int64),
        "unary_weight": np.array(unary_weight, dtype=np.int64),
        "unary_sign": np.array(unary_sign, dtype=np.float64),
        "num_unary": len(unary_var),
        "num_general": len(general),
        "general_function": np.array([f.function for f in general],
                                     dtype=np.int8),
        "general_weight": np.array([weight_index[f.weight_id] for f in general],
                                   dtype=np.int64),
        "fv_indptr": fv_indptr,
        "fv_vars": fv_vars,
        "fv_negated": np.array(fv_negated, dtype=bool),
        "vf_indptr": vf_indptr,
        "vf_factors": vf_factors,
    }


def reference_column_csr(num_variables: int, fv_indptr: np.ndarray,
                         fv_vars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The variable -> general-factor CSR by a counting pass and a cursor
    per variable, factor after factor."""
    counts = np.zeros(num_variables + 1, dtype=np.int64)
    for v in fv_vars:
        counts[v + 1] += 1
    vf_indptr = np.cumsum(counts)
    vf_factors = np.zeros(len(fv_vars), dtype=np.int64)
    cursor = vf_indptr[:-1].copy()
    for fi in range(len(fv_indptr) - 1):
        for v in fv_vars[fv_indptr[fi]:fv_indptr[fi + 1]]:
            vf_factors[cursor[v]] = fi
            cursor[v] += 1
    return vf_indptr, vf_factors


def assert_compiled_equal(compiled, reference: dict[str, object]) -> None:
    """Every array (values *and* dtype) and scalar of ``reference`` equals
    the compiled graph's."""
    for name, expected in reference.items():
        actual = getattr(compiled, name)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            np.testing.assert_array_equal(actual, expected, err_msg=name)
        else:
            assert actual == expected, name
