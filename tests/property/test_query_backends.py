"""Backend equivalence: the vectorized columnar engine is bag-identical to
the row reference engine on every operator, for arbitrary data.

Randomized relations (mixed column types, NULLs, duplicate rows) are pushed
through each operator on both backends; results must agree as multisets.  A
final class checks the incremental-view-maintenance path: an evaluator built
on the columnar kernels tracks one built on the row engine across arbitrary
change batches.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import Database, Join, Project, Relation, Scan, Schema, Select
from repro import obs
from repro.datastore import query as Q
from repro.obs import EngineConfig

ROW = EngineConfig(datastore_backend="row")
COLUMNAR = EngineConfig(datastore_backend="columnar")
AUTO = EngineConfig(datastore_backend="auto")

# small value domains keep collision (and thus join/dup/NULL coverage) high
ints = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
texts = st.one_of(st.none(), st.sampled_from(["x", "y", "zz"]))
floats = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.5, 2.0]))
bools = st.one_of(st.none(), st.booleans())

mixed_rows = st.lists(st.tuples(ints, texts, floats, bools), max_size=25)
int_rows = st.lists(st.tuples(ints, ints), max_size=25)


def mixed_relation(name, rows):
    relation = Relation(
        name, Schema.of(a="int", s="text", f="float", flag="bool"))
    for row in rows:
        relation.insert(row)
    return relation


def int_relation(name, columns, rows):
    relation = Relation(name, Schema.of(**{c: "int" for c in columns}))
    for row in rows:
        relation.insert(row)
    return relation


def bag(relation):
    return Counter(iter(relation))


def both_backends(op):
    """Run ``op(config)`` on both engines and return the two bags."""
    return bag(op(ROW)), bag(op(COLUMNAR))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.tuples(ints, texts),
                          st.integers(min_value=-2, max_value=3)),
                max_size=20))
def test_to_counts_sums_duplicates_and_drops_zeros(counted):
    """``ColumnStore.to_counts`` is the per-row summing loop, whether the
    store is compact (its one-pass case) or holds duplicate and zero-count
    rows."""
    from repro.datastore.columnar import ColumnStore

    store = ColumnStore.from_counted_rows(Schema.of(a="int", s="text"),
                                          counted)
    expected: dict = {}
    for row, count in counted:
        expected[row] = expected.get(row, 0) + count
    expected = {row: count for row, count in expected.items() if count}
    out = store.to_counts()
    assert out == expected and list(out) == list(expected)


class TestOperatorEquivalence:
    @given(mixed_rows)
    def test_select_predicate(self, rows):
        relation = mixed_relation("r", rows)
        predicate = lambda r: r["a"] is not None and r["a"] >= 2
        row_bag, col_bag = both_backends(
            lambda b: Q.select(relation, predicate, config=b))
        assert row_bag == col_bag

    @given(mixed_rows,
           st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
           st.sampled_from([("a", 2), ("s", "y"), ("f", 1.5), ("f", 1)]))
    def test_select_condition(self, rows, op, column_constant):
        column, constant = column_constant
        if op not in ("==", "!=") and column == "s":
            op = "=="  # ordered comparisons on text are not a supported mask
        relation = mixed_relation("r", rows)
        condition = (op, ("col", column), ("const", constant))
        ops = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
               "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}

        def predicate(r):
            value = r[column]
            if op == "==":
                return value == constant
            if op == "!=":
                return value != constant
            return value is not None and ops[op](value, constant)

        row_bag, col_bag = both_backends(
            lambda b: Q.select(relation, predicate, condition=condition,
                               config=b))
        assert row_bag == col_bag

    @given(mixed_rows, st.sampled_from([["a"], ["s", "f"], ["flag", "a"]]),
           st.booleans())
    def test_project(self, rows, columns, distinct):
        relation = mixed_relation("r", rows)
        row_bag, col_bag = both_backends(
            lambda b: Q.project(relation, columns, distinct=distinct,
                                config=b))
        assert row_bag == col_bag

    @given(int_rows, int_rows)
    def test_join(self, rows_r, rows_s):
        left = int_relation("l", ("x", "y"), rows_r)
        right = int_relation("r", ("y", "z"), rows_s)
        row_bag, col_bag = both_backends(
            lambda b: Q.join(left, right, [("y", "y")], config=b))
        assert row_bag == col_bag

    @given(mixed_rows, mixed_rows)
    def test_join_mixed_key(self, rows_a, rows_b):
        left = mixed_relation("l", rows_a)
        right = mixed_relation("r", rows_b)
        row_bag, col_bag = both_backends(
            lambda b: Q.join(left, right, [("s", "s"), ("a", "a")],
                             config=b))
        assert row_bag == col_bag

    @given(mixed_rows, mixed_rows)
    def test_union(self, rows_a, rows_b):
        left = mixed_relation("l", rows_a)
        right = mixed_relation("r", rows_b)
        row_bag, col_bag = both_backends(
            lambda b: Q.union(left, right, config=b))
        assert row_bag == col_bag

    @given(mixed_rows, mixed_rows)
    def test_difference(self, rows_a, rows_b):
        left = mixed_relation("l", rows_a)
        right = mixed_relation("r", rows_b)
        row_bag, col_bag = both_backends(
            lambda b: Q.difference(left, right, config=b))
        assert row_bag == col_bag

    @given(mixed_rows)
    def test_aggregate(self, rows):
        relation = mixed_relation("r", rows)
        aggregates = {"n": ("count", "*"), "total": ("sum", "a"),
                      "lo": ("min", "f"), "hi": ("max", "f")}
        row_bag, col_bag = both_backends(
            lambda b: Q.aggregate(relation, ["s"], aggregates, config=b))
        assert row_bag == col_bag

    @given(int_rows)
    def test_threshold_boundary_agrees(self, rows):
        """Whatever `auto` picks must match both forced backends."""
        relation = int_relation("r", ("x", "y"), rows)
        auto = bag(Q.project(relation, ["x"], config=AUTO))
        assert auto == bag(Q.project(relation, ["x"], config=ROW))
        assert auto == bag(Q.project(relation, ["x"], config=COLUMNAR))


def dispatched(op_name, run):
    """The ``engine`` labels one call recorded on ``datastore.<op_name>``."""
    collector = obs.Collector()
    with obs.installed(collector):
        result = run()
    engines = [engine for engine in ("row", "columnar", "columnar-spill")
               if collector.metrics.counter_value(f"datastore.{op_name}",
                                                  engine=engine)]
    return result, engines


class TestAutoDispatch:
    """``auto`` picks by input size and key types, and by nothing else."""

    def test_size_constant_has_two_sides(self):
        assert Q.COLUMNAR_MIN_ROWS == 48
        below = int_relation("r", ("x", "y"), [(i, i) for i in range(47)])
        at = int_relation("r", ("x", "y"), [(i, i) for i in range(48)])
        _, engines = dispatched(
            "project", lambda: Q.project(below, ["x"], config=AUTO))
        assert engines == ["row"]
        _, engines = dispatched(
            "project", lambda: Q.project(at, ["x"], config=AUTO))
        assert engines == ["columnar"]

    def test_duplicates_do_not_count_towards_the_crossover(self):
        relation = int_relation("r", ("x", "y"), [(i % 47, 0)
                                                  for i in range(200)])
        _, engines = dispatched(
            "distinct", lambda: Q.distinct(relation, config=AUTO))
        assert engines == ["row"]

    def test_mixed_type_join_falls_back_to_the_row_join(self):
        left = Relation("l", Schema.of(k="int", a="int"))
        right = Relation("r", Schema.of(k="float", b="int"))
        for i in range(60):
            left.insert((i, i))
            right.insert((float(i), -i))
        for config in (AUTO, COLUMNAR):
            out, engines = dispatched(
                "join", lambda: Q.join(left, right, [("k", "k")],
                                       config=config))
            assert engines == ["row"]
            # 1 == 1.0: the row join matches what code equality would miss
            assert len(out) == 60
            assert bag(out) == bag(Q.join(left, right, [("k", "k")],
                                          config=ROW))

    def test_per_call_backend_keyword_is_gone(self):
        relation = int_relation("r", ("x", "y"), [(1, 2)])
        with pytest.raises(TypeError):
            Q.distinct(relation, backend="row")


# -------------------------------------------------------- IVM delta parity
values = st.integers(min_value=0, max_value=4)
ivm_row = st.tuples(values, values)


@st.composite
def ivm_batches(draw):
    initial_r = draw(st.lists(ivm_row, max_size=10))
    initial_s = draw(st.lists(ivm_row, max_size=10))
    num_batches = draw(st.integers(min_value=1, max_value=3))
    batches = []
    live = {"R": Counter(initial_r), "S": Counter(initial_s)}
    for _ in range(num_batches):
        inserts = {"R": draw(st.lists(ivm_row, max_size=4)),
                   "S": draw(st.lists(ivm_row, max_size=4))}
        deletes = {}
        for name in ("R", "S"):
            present = sorted(live[name].elements())
            chosen = draw(st.lists(st.sampled_from(present), max_size=3)) \
                if present else []
            capped, budget = [], Counter(live[name])
            for item in chosen:
                if budget[item] > 0:
                    budget[item] -= 1
                    capped.append(item)
            deletes[name] = capped
            live[name].update(inserts[name])
            live[name].subtract(deletes[name])
        batches.append((inserts, deletes))
    return initial_r, initial_s, batches


PLAN = Select(Project(Join(Scan("R"), Scan("S"), (("y", "y"),)),
                      ("x", "z")),
              lambda r: r["x"] != 3)


def make_db(initial_r, initial_s, config):
    db = Database(config=config)
    db.create("R", x="int", y="int")
    db.create("S", y="int", z="int")
    db.insert("R", initial_r)
    db.insert("S", initial_s)
    return db


class TestIncrementalBackendParity:
    @settings(max_examples=40, deadline=None)
    @given(ivm_batches())
    def test_columnar_evaluator_tracks_row_evaluator(self, scenario):
        """Both engines maintain identical view state across change batches
        (initial load AND every delta application)."""
        from repro.datastore.incremental import IncrementalEvaluator
        from repro.datastore.ivm import SignedDelta

        initial_r, initial_s, batches = scenario
        evaluators = {}
        databases = {}
        for backend, config in (("row", ROW), ("columnar", COLUMNAR)):
            databases[backend] = make_db(initial_r, initial_s, config)
            evaluators[backend] = IncrementalEvaluator(
                PLAN, databases[backend])
        assert evaluators["row"].current() == evaluators["columnar"].current()

        for inserts, deletes in batches:
            outputs = {}
            for backend in ("row", "columnar"):
                db = databases[backend]
                deltas = {
                    name: SignedDelta.from_changes(
                        db[name].schema, inserts[name], deletes[name])
                    for name in ("R", "S")
                }
                for name in ("R", "S"):
                    for r in inserts[name]:
                        db[name].insert(r)
                    for r in deletes[name]:
                        db[name].delete(r)
                applied = evaluators[backend].apply(deltas)
                outputs[backend] = Counter(dict(applied.items()))
            assert outputs["row"] == outputs["columnar"]
            assert evaluators["row"].current() == \
                evaluators["columnar"].current()
