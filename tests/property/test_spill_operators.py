"""Spill-path equivalence: grace-hash join/aggregate/distinct results are
bit-identical to the in-memory columnar kernels for arbitrary data and
arbitrary budgets (including 0 = spill everything).

"Bit-identical" is checked the strongest way the datastore exposes: the full
``row -> count`` bags must be equal as Python objects, which for float
aggregate outputs means equal IEEE bit patterns (Python float equality on
the exact values the kernels produced; the partition argument in
``repro.datastore.spill`` explains why the accumulation order matches).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import Relation, Schema
from repro.datastore import query as Q
from repro.obs.config import EngineConfig

# small domains force key collisions, duplicates, and NULL handling
ints = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
texts = st.one_of(st.none(), st.sampled_from(["x", "y", "zz"]))
floats = st.one_of(st.none(),
                   st.sampled_from([0.0, 0.25, 0.5, 1.5, 2.0, -1.75]))

mixed_rows = st.lists(st.tuples(ints, texts, floats), max_size=40)
budgets = st.one_of(st.just(0), st.integers(min_value=1, max_value=4096))

IN_MEMORY = EngineConfig(datastore_backend="columnar")


def spilly(budget):
    return EngineConfig(datastore_backend="columnar", memory_budget=budget)


def mixed_relation(name, rows):
    relation = Relation(name, Schema.of(k="int", s="text", f="float"))
    for row in rows:
        relation.insert(row)
    return relation


class TestSpillEquivalence:
    @settings(deadline=None)
    @given(mixed_rows, mixed_rows, budgets)
    def test_join(self, left_rows, right_rows, budget):
        left = mixed_relation("l", left_rows)
        right = mixed_relation("r", right_rows)
        a = Q.join(left, right, on=[("k", "k")], config=IN_MEMORY)
        b = Q.join(left, right, on=[("k", "k")], config=spilly(budget))
        assert a.counts_copy() == b.counts_copy()
        assert a.schema == b.schema

    @settings(deadline=None)
    @given(mixed_rows, mixed_rows, budgets)
    def test_join_two_keys(self, left_rows, right_rows, budget):
        left = mixed_relation("l", left_rows)
        right = mixed_relation("r", right_rows)
        on = [("k", "k"), ("s", "s")]
        a = Q.join(left, right, on=on, config=IN_MEMORY)
        b = Q.join(left, right, on=on, config=spilly(budget))
        assert a.counts_copy() == b.counts_copy()

    @settings(deadline=None)
    @given(mixed_rows, budgets)
    def test_aggregate(self, rows, budget):
        relation = mixed_relation("r", rows)
        aggs = {"n": ("count", "*"), "total": ("sum", "f"),
                "mean": ("avg", "f"), "lo": ("min", "k"), "hi": ("max", "k")}
        a = Q.aggregate(relation, ["s"], aggs, config=IN_MEMORY)
        b = Q.aggregate(relation, ["s"], aggs, config=spilly(budget))
        # full-bag equality: float sums/avgs must match to the bit
        assert a.counts_copy() == b.counts_copy()

    @settings(deadline=None)
    @given(mixed_rows, budgets)
    def test_aggregate_multi_key(self, rows, budget):
        relation = mixed_relation("r", rows)
        aggs = {"n": ("count", "*"), "total": ("sum", "f")}
        a = Q.aggregate(relation, ["k", "s"], aggs, config=IN_MEMORY)
        b = Q.aggregate(relation, ["k", "s"], aggs, config=spilly(budget))
        assert a.counts_copy() == b.counts_copy()

    @settings(deadline=None)
    @given(mixed_rows, budgets)
    def test_distinct(self, rows, budget):
        relation = mixed_relation("r", rows)
        a = Q.distinct(relation, config=IN_MEMORY)
        b = Q.distinct(relation, config=spilly(budget))
        row = Q.distinct(relation, config=EngineConfig(datastore_backend="row"))
        assert a.counts_copy() == b.counts_copy() == row.counts_copy()

    @settings(deadline=None)
    @given(mixed_rows, mixed_rows)
    def test_budget_zero_forces_spill_path(self, left_rows, right_rows):
        """budget=0 must route every nonempty input through the spill code
        and still agree with the row-engine reference."""
        left = mixed_relation("l", left_rows)
        right = mixed_relation("r", right_rows)
        spilled = Q.join(left, right, on=[("k", "k")], config=spilly(0))
        reference = Q.join(left, right, on=[("k", "k")],
                           config=EngineConfig(datastore_backend="row"))
        assert spilled.counts_copy() == reference.counts_copy()
