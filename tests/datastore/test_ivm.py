"""Tests for DRed incremental view maintenance: the invariant throughout is
that incrementally-maintained views always equal full recomputation."""

import pytest

from repro.datastore import (Database, Join, Project, Scan, Select, SignedDelta,
                             Union)


def make_db():
    db = Database()
    db.create("R", x="int", y="int")
    db.create("S", y="int", z="int")
    db.insert("R", [(1, 10), (2, 20), (3, 30)])
    db.insert("S", [(10, 100), (20, 200)])
    return db


JOIN_PLAN = Project(Join(Scan("R"), Scan("S"), (("y", "y"),)), ("x", "z"))


class TestSignedDelta:
    def test_add_and_cancel(self):
        from repro.datastore import Schema
        delta = SignedDelta(Schema.of(a="int"))
        delta.add((1,), 1)
        delta.add((1,), -1)
        assert not delta


class TestMaterializedView:
    def test_initial_load_matches_full_eval(self):
        db = make_db()
        view = db.views.define("V", JOIN_PLAN)
        assert sorted(view.iter_visible()) == [(1, 100), (2, 200)]

    def test_insert_propagates(self):
        db = make_db()
        db.views.define("V", JOIN_PLAN)
        events = db.views.apply_changes(inserts={"S": [(30, 300)]})
        appeared, disappeared = events["V"]
        assert appeared == [(3, 300)]
        assert disappeared == []

    def test_delete_propagates(self):
        db = make_db()
        db.views.define("V", JOIN_PLAN)
        events = db.views.apply_changes(deletes={"R": [(1, 10)]})
        appeared, disappeared = events["V"]
        assert appeared == []
        assert disappeared == [(1, 100)]

    def test_simultaneous_insert_and_delete(self):
        db = make_db()
        db.views.define("V", JOIN_PLAN)
        events = db.views.apply_changes(
            inserts={"R": [(4, 20)]}, deletes={"S": [(10, 100)]})
        appeared, disappeared = events["V"]
        assert appeared == [(4, 200)]
        assert disappeared == [(1, 100)]

    def test_cross_delta_counted_once(self):
        # Insert matching rows on both sides in one batch: the joined row
        # must appear exactly once, not twice.
        db = make_db()
        view = db.views.define("V", JOIN_PLAN)
        db.views.apply_changes(inserts={"R": [(9, 90)], "S": [(90, 900)]})
        assert view._derivations[(9, 900)] == 1

    def test_duplicate_derivations_keep_row_visible(self):
        # Two R rows deriving the same projected output: deleting one
        # derivation must not hide the row.
        db = make_db()
        view = db.views.define("V", JOIN_PLAN)
        db.views.apply_changes(inserts={"R": [(1, 10)]})  # second derivation of (1,100)
        events = db.views.apply_changes(deletes={"R": [(1, 10)]})
        appeared, disappeared = events.get("V", ([], []))
        assert disappeared == []
        assert (1, 100) in set(view.iter_visible())

    def test_matches_recomputation_after_batches(self):
        db = make_db()
        view = db.views.define("V", JOIN_PLAN)
        batches = [
            ({"R": [(5, 10)]}, {}),
            ({}, {"S": [(20, 200)]}),
            ({"S": [(10, 111)], "R": [(6, 10)]}, {"R": [(2, 20)]}),
        ]
        for inserts, deletes in batches:
            db.views.apply_changes(inserts=inserts, deletes=deletes)
            recomputed = sorted(set(JOIN_PLAN.evaluate(db)))
            assert sorted(view.iter_visible()) == recomputed

    def test_delete_absent_row_raises(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.views.apply_changes(deletes={"R": [(99, 99)]})

    def test_untouched_views_not_reported(self):
        db = make_db()
        db.create("T", a="int")
        db.views.define("V", JOIN_PLAN)
        events = db.views.apply_changes(inserts={"T": [(1,)]})
        assert "V" not in events


class TestPlanDeltas:
    def test_select_delta_filters(self):
        db = make_db()
        plan = Select(Scan("R"), lambda r: r["x"] > 1)
        view = db.views.define("big_x", plan)
        db.views.apply_changes(inserts={"R": [(0, 5), (7, 70)]})
        assert (7, 70) in set(view.iter_visible())
        assert (0, 5) not in set(view.iter_visible())

    def test_union_delta(self):
        db = make_db()
        db.create("R2", x="int", y="int")
        db.insert("R2", [(8, 80)])
        plan = Union((Scan("R"), Scan("R2")))
        view = db.views.define("u", plan)
        db.views.apply_changes(inserts={"R2": [(9, 90)]})
        assert (9, 90) in set(view.iter_visible())
        assert len(view) == 5

    def test_view_redefinition_rejected(self):
        db = make_db()
        db.views.define("V", JOIN_PLAN)
        with pytest.raises(ValueError):
            db.views.define("V", JOIN_PLAN)


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create("T", a="int")
        assert "T" in db
        assert db.names() == ["T"]

    def test_duplicate_create_rejected(self):
        db = Database()
        db.create("T", a="int")
        with pytest.raises(KeyError):
            db.create("T", a="int")

    def test_missing_relation_raises(self):
        from repro.datastore import DatabaseError
        with pytest.raises(DatabaseError):
            Database()["nope"]

    def test_snapshot_isolates_named_relations(self):
        db = make_db()
        snap = db.snapshot({"R"})
        db["R"].insert((99, 99))
        assert (99, 99) not in snap["R"]

    def test_snapshot_shares_unnamed_relations(self):
        db = make_db()
        snap = db.snapshot({"R"})
        assert snap["S"] is db["S"]

    def test_stats(self):
        db = make_db()
        assert db.stats() == {"R": 3, "S": 2}
