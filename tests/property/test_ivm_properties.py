"""The central IVM property: for ANY sequence of insert/delete batches and
ANY plan shape, the DRed-maintained view equals full recomputation."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore import (Database, Extend, Join, Project, Scan, Select,
                             Union)

values = st.integers(min_value=0, max_value=4)
row = st.tuples(values, values)


@st.composite
def change_batches(draw):
    """A starting DB plus a sequence of valid insert/delete batches."""
    initial_r = draw(st.lists(row, max_size=10))
    initial_s = draw(st.lists(row, max_size=10))
    num_batches = draw(st.integers(min_value=1, max_value=4))
    batches = []
    live = {"R": Counter(initial_r), "S": Counter(initial_s)}
    for _ in range(num_batches):
        inserts = {"R": draw(st.lists(row, max_size=4)),
                   "S": draw(st.lists(row, max_size=4))}
        deletes = {}
        for name in ("R", "S"):
            present = sorted(live[name].elements())
            if present:
                chosen = draw(st.lists(st.sampled_from(present), max_size=3))
                # respect multiplicities: never delete more than live copies
                capped = []
                budget = Counter(live[name])
                for item in chosen:
                    if budget[item] > 0:
                        budget[item] -= 1
                        capped.append(item)
                deletes[name] = capped
            else:
                deletes[name] = []
        for name in ("R", "S"):
            live[name].update(inserts[name])
            live[name].subtract(deletes[name])
        batches.append((inserts, deletes))
    return initial_r, initial_s, batches


PLANS = {
    "join": Project(Join(Scan("R"), Scan("S"), (("y", "y"),)), ("x", "z")),
    "select_join": Select(
        Join(Scan("R"), Scan("S"), (("y", "y"),)),
        lambda r: r["x"] <= r["z"]),
    "union": Union((Scan("R"),
                    Project(Join(Scan("R"), Scan("S"), (("y", "y"),)),
                            ("x", "y")))),
    "extend": Extend(Project(Scan("R"), ("x",)), "double", "int",
                     lambda r: r["x"] * 2),
    "self_join": Project(Join(Scan("R"), Scan("R"), (("y", "x"),)),
                         ("x", "r_y")),
}


def make_db(initial_r, initial_s):
    db = Database()
    db.create("R", x="int", y="int")
    db.create("S", y="int", z="int")
    db.insert("R", initial_r)
    db.insert("S", initial_s)
    return db


class TestIncrementalEqualsRecompute:
    @settings(max_examples=60, deadline=None)
    @given(change_batches(), st.sampled_from(sorted(PLANS)))
    def test_view_matches_full_recompute(self, scenario, plan_name):
        initial_r, initial_s, batches = scenario
        plan = PLANS[plan_name]
        db = make_db(initial_r, initial_s)
        view = db.views.define("V", plan)
        for inserts, deletes in batches:
            db.views.apply_changes(inserts=inserts, deletes=deletes)
            incremental = set(view.iter_visible())
            recomputed = set(plan.evaluate(db))
            assert incremental == recomputed

    @settings(max_examples=40, deadline=None)
    @given(change_batches())
    def test_appear_disappear_events_are_exact(self, scenario):
        """Events reported by apply_changes are precisely the symmetric
        difference of the view's visible face before and after."""
        initial_r, initial_s, batches = scenario
        plan = PLANS["join"]
        db = make_db(initial_r, initial_s)
        view = db.views.define("V", plan)
        for inserts, deletes in batches:
            before = set(view.iter_visible())
            events = db.views.apply_changes(inserts=inserts, deletes=deletes)
            after = set(view.iter_visible())
            appeared, disappeared = events.get("V", ([], []))
            assert set(appeared) == after - before
            assert set(disappeared) == before - after

    @settings(max_examples=40, deadline=None)
    @given(change_batches())
    def test_textbook_delta_rules_agree(self, scenario):
        """The stateful evaluator and the textbook Plan.delta rules compute
        the same signed delta."""
        from repro.datastore.incremental import IncrementalEvaluator
        from repro.datastore.ivm import SignedDelta

        initial_r, initial_s, batches = scenario
        plan = PLANS["select_join"]
        db = make_db(initial_r, initial_s)
        evaluator = IncrementalEvaluator(plan, db)
        for inserts, deletes in batches:
            db_before = db.snapshot({"R", "S"})
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
            stateful = Counter(dict(evaluator.apply(deltas).items()))
            textbook = Counter(dict(plan.delta(db_before, db, deltas).items()))
            assert stateful == textbook
