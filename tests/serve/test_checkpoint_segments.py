"""Segment-manifest checkpoints: hard-link sealing, O(delta) saves,
refcounted pruning, and service-level round trips."""

import json

import pytest

from repro.datastore import Database, Schema
from repro.datastore.io import database_from_dict
from repro.datastore.segments import SegmentedRelation
from repro.serve import CheckpointError, CheckpointManager


def small_db():
    db = Database()
    db.create("people", name="text", age="int")
    db["people"].insert(("alice", 30), count=2)
    db["people"].insert(("bob", 25))
    db.create("empty", tag="text")
    return db


def payload():
    return {"engine_version": 0, "threshold": 0.9, "rule_deltas": [],
            "graph": {}, "grounder": {}, "state": {}}


class TestManifestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(payload(), lsn=1, database=db)
        restored = database_from_dict(manager.load()["database"])
        for name in db.names():
            assert restored[name].counts_copy() == db[name].counts_copy()
            assert (restored[name].mutation_version
                    == db[name].mutation_version)

    def test_inline_and_manifest_are_mutually_exclusive(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(ValueError, match="inline"):
            manager.save({**payload(), "database": {}}, lsn=1,
                         database=small_db())
        with pytest.raises(ValueError, match="no database"):
            manager.save(payload(), lsn=1)

    def test_unchanged_store_writes_no_segment_bytes(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(payload(), lsn=1, database=db)
        first = manager.last_save_bytes
        segments_before = sorted(p.name for p in manager.segments_dir.iterdir())
        manager.save(payload(), lsn=2, database=db)
        # seal cache: only the (small) checkpoint document was written
        assert manager.last_save_bytes < first
        assert sorted(p.name
                      for p in manager.segments_dir.iterdir()) == segments_before
        info = manager.load()
        assert database_from_dict(info["database"])["people"].counts_copy() \
            == db["people"].counts_copy()

    def test_delta_save_writes_only_new_segments(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(payload(), lsn=1, database=db)
        count_before = len(list(manager.segments_dir.iterdir()))
        db["people"].insert(("carol", 40))
        manager.save(payload(), lsn=2, database=db)
        count_after = len(list(manager.segments_dir.iterdir()))
        assert count_after == count_before + 1    # one relation re-sealed
        restored = database_from_dict(manager.load()["database"])
        assert restored["people"].counts_copy() == db["people"].counts_copy()

    def test_segmented_relation_segments_hard_linked(self, tmp_path):
        db = Database()
        relation = db.create_segmented(
            "events", directory=tmp_path / "events", segment_rows=3,
            k="int", v="text")
        for i in range(10):
            relation.insert((i, str(i)))
        manager = CheckpointManager(tmp_path / "ckpt", keep=2)
        manager.save(payload(), lsn=1, database=db)
        # sealed segments are shared, not copied: same inode, and the save
        # wrote (nearly) nothing beyond the tail seal + document
        for ref in relation.segment_refs:
            source = relation.directory / ref.filename
            target = manager.segments_dir / ref.filename
            assert target.exists()
            assert source.stat().st_ino == target.stat().st_ino
        restored = database_from_dict(manager.load()["database"])
        assert restored["events"].counts_copy() == relation.counts_copy()

    def test_missing_segment_fails_loudly(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(payload(), lsn=1, database=db)
        for path in manager.segments_dir.iterdir():
            path.unlink()
        with pytest.raises(CheckpointError, match="cannot be read"):
            manager.load()


class TestRefcountedPrune:
    def test_shared_segments_survive_prune(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(payload(), lsn=1, database=db)
        db["people"].insert(("carol", 40))
        manager.save(payload(), lsn=2, database=db)
        db["people"].insert(("dave", 50))
        manager.save(payload(), lsn=3, database=db)   # prunes lsn=1
        assert [info.lsn for info in manager.list()] == [2, 3]
        # the "empty" relation's segment is shared by lsn 2 and 3: alive;
        # every retained checkpoint must still restore completely
        for info in manager.list():
            restored = database_from_dict(manager.load(info)["database"])
            assert set(restored.names()) == set(db.names())
        newest = database_from_dict(manager.load()["database"])
        assert newest["people"].counts_copy() == db["people"].counts_copy()

    def test_unreferenced_segments_collected(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(payload(), lsn=1, database=db)
        first_segments = {p.name for p in manager.segments_dir.iterdir()}
        db["people"].insert(("erin", 60))
        manager.save(payload(), lsn=2, database=db)
        remaining = {p.name for p in manager.segments_dir.iterdir()}
        # lsn=1's people segment is gone, the shared "empty" one survives
        assert len(first_segments - remaining) == 1
        restored = database_from_dict(manager.load()["database"])
        assert restored["people"].counts_copy() == db["people"].counts_copy()

    def test_refs_sidecars_follow_their_checkpoints(self, tmp_path):
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(payload(), lsn=1, database=db)
        manager.save(payload(), lsn=2, database=db)
        names = {p.name for p in tmp_path.iterdir()}
        assert "checkpoint-000000000002.refs.json" in names
        assert "checkpoint-000000000001.refs.json" not in names

    def test_format_1_checkpoint_is_refused_and_blocks_nothing(
            self, tmp_path):
        """A ``format: 1`` checkpoint (the pre-segment inline layout, whose
        reader is gone) is refused with a typed error, and pruning around
        it never touches newer checkpoints or the segments they need."""
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=2)
        from repro.datastore.io import database_to_dict
        manager.save({**payload(),
                      "database": database_to_dict(db)}, lsn=1)
        info = manager.list()[0]
        document = json.loads(info.path.read_text())
        document["format"] = 1
        info.path.write_text(json.dumps(document))
        db["people"].insert(("frank", 70))
        manager.save(payload(), lsn=2, database=db)
        with pytest.raises(CheckpointError, match="reads version 2 only"):
            manager.load(manager.list()[0])
        segments = {p.name for p in manager.segments_dir.iterdir()}
        manager.prune()
        assert {p.name for p in manager.segments_dir.iterdir()} == segments
        assert [i.lsn for i in manager.list()] == [1, 2]
        restored_new = database_from_dict(manager.load()["database"])
        assert restored_new["people"].counts_copy() == db["people"].counts_copy()


class TestServiceLevel:
    def test_service_checkpoint_recovery_round_trip(self, tmp_path):
        """KBService.create -> ingest -> checkpoint -> KBService.open uses
        the manifest path end to end with bit-identical recovery."""
        from repro.serve import KBService, add_rows
        from tests.serve.conftest import RUN_KWARGS, make_app_factory
        from tests.serve.test_service import live_service

        with live_service(tmp_path) as service:
            service.ingest([add_rows("GoodList", [("fig",)])], wait=True)
            service.checkpoint()
            marginals_before = dict(service.client().snapshot().marginals)
        # the bootstrap + explicit checkpoints all carry manifests
        manager = service.checkpoints
        newest = manager.load()
        assert "segment_manifest" not in newest["database"]  # rehydrated
        assert newest["database"]["version"] == 3
        recovered = KBService.open(tmp_path / "svc", make_app_factory(),
                                   run_kwargs=RUN_KWARGS, start=False)
        try:
            assert dict(recovered.client().snapshot().marginals) == marginals_before
        finally:
            recovered.stop()
