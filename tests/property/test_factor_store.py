"""The columnar factor store against the object-graph oracle.

A hypothesis state machine drives :class:`repro.factorgraph.FactorGraph`
and ``tests/factorgraph/object_graph.py``'s :class:`ObjectGraph` through the
same random sequence of adds, bulk adds, removals and evidence changes --
valid and invalid alike -- with the store sometimes rebuilt from its own
:meth:`FactorGraph.image` as a checkpoint restore would, and after every step
requires the same ids (or the same rejection), the same ``stats()``, the
same variables, weights and factors (``assert_same_graph``) and the same
``CompiledGraph`` arrays.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.factorgraph import (CompiledGraph, FactorFunction, FactorGraph,
                               GraphError)
from repro.factorgraph.factor_functions import arity_constraint
from tests.factorgraph.object_graph import (ObjectGraph, assert_compiled_equal,
                                            assert_same_graph,
                                            reference_compile)

keys = st.integers(0, 9)
weight_keys = st.sampled_from(["a", "b", "c", ("t", 1), ("t", 2)])
functions = st.sampled_from(list(FactorFunction))
#: ids run a little past what exists, so unknown ids are exercised too
var_ids = st.integers(-1, 14)
weight_ids = st.integers(-1, 6)
evidence = st.sampled_from([None, True, False])


def outcome(call):
    """What a call did: ``("ok", result)`` or ``("raised", error type)``."""
    try:
        result = call()
    except (GraphError, KeyError) as exc:
        return ("raised", type(exc))
    return ("ok", list(result) if isinstance(result, range) else result)


class StoreMatchesOracle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = FactorGraph()
        self.oracle = ObjectGraph()

    def ids(self, data, pool: str, arbitrary, size: int) -> list[int]:
        """``size`` ids: usually drawn (with repeats) from the live ids of
        ``pool``, sometimes from ``arbitrary`` so rejections are exercised."""
        live = sorted(getattr(self.oracle, pool))
        choice = st.sampled_from(live) if live and data.draw(
            st.integers(0, 4)) else arbitrary
        return data.draw(st.lists(choice, min_size=size, max_size=size))

    def shape(self, data, function) -> tuple[int, list[bool] | None]:
        """An arity and a negation mask, valid for ``function`` four times
        in five."""
        if data.draw(st.integers(0, 4)):
            lo, hi = arity_constraint(function)
            arity = data.draw(st.integers(lo, hi or 3))
            width = st.just(arity)
        else:
            arity, width = data.draw(st.integers(1, 4)), st.integers(1, 4)
        negated = data.draw(st.none() | width.flatmap(
            lambda n: st.lists(st.booleans(), min_size=n, max_size=n)))
        return arity, negated

    @initialize(n=st.integers(0, 5))
    def some_variables_and_weights(self, n):
        for key in range(n):
            self.both("variable", key)
        for key in ("a", "b"):
            self.both("weight", key, 1.0)

    def both(self, method: str, *args, **kwargs) -> None:
        got = outcome(lambda: getattr(self.store, method)(*args, **kwargs))
        want = outcome(lambda: getattr(self.oracle, method)(*args, **kwargs))
        assert got == want, (method, args, kwargs)

    @rule(key=keys, initial=st.booleans())
    def variable(self, key, initial):
        self.both("variable", key, initial)

    @rule(key=weight_keys, value=st.floats(-2, 2), fixed=st.booleans())
    def weight(self, key, value, fixed):
        self.both("weight", key, value, fixed)

    @rule(function=functions, data=st.data())
    def add_factor(self, function, data):
        arity, negated = self.shape(data, function)
        members = self.ids(data, "variables", var_ids, arity)
        (weight,) = self.ids(data, "weights", weight_ids, 1)
        self.both("add_factor", function, members, weight, negated)

    @rule(function=functions, data=st.data())
    def add_factors(self, function, data):
        arity, negated = self.shape(data, function)
        rows = [self.ids(data, "variables", var_ids, arity)
                for _ in range(data.draw(st.integers(0, 4)))]
        weights = self.ids(data, "weights", weight_ids, len(rows))
        self.both("add_factors", function,
                  rows or np.zeros((0, arity), dtype=np.int64), weights,
                  negated)

    @rule(factor_id=st.integers(-1, 30))
    def remove_factor(self, factor_id):
        self.both("remove_factor", factor_id)

    @rule(key=keys)
    def remove_variable(self, key):
        self.both("remove_variable", key)

    @rule(key=keys, value=evidence)
    def set_evidence(self, key, value):
        self.both("set_evidence", key, value)

    @rule()
    def restore_from_image(self):
        """A checkpoint round trip: the store rebuilt from its own image must
        stay indistinguishable from the oracle, later ids included."""
        self.store = FactorGraph.from_image(self.store.image())

    @invariant()
    def same_graph(self):
        store, oracle = self.store, self.oracle
        assert store.stats() == oracle.stats()
        assert_same_graph(store, oracle)
        for var_id, variable in oracle.variables.items():
            assert store.variables[var_id].factor_count == \
                len(variable.factor_ids)
            assert store.factors_of(var_id) == sorted(variable.factor_ids)
        assert_compiled_equal(CompiledGraph(store), reference_compile(oracle))


StoreMatchesOracle.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestStoreMatchesOracle = StoreMatchesOracle.TestCase
