"""Segment-manifest checkpoints: hard-link sealing, O(delta) saves, array
tables, refcounted pruning, and service-level round trips."""

import errno
import json
import os

import numpy as np
import pytest

from repro.datastore import Database, Schema
from repro.datastore.io import database_from_dict
from repro.datastore.segments import SegmentedRelation
from repro.serve import CheckpointError, CheckpointManager
from repro.serve.checkpoint import CHUNK_IDS, ArrayTable


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

    def test_cross_device_copy_is_fsynced_before_and_after_its_rename(
            self, tmp_path, monkeypatch):
        """Without a hard link the segment is copied: the copy's data is
        fsynced, then renamed into place, then the directory fsynced."""
        db = Database()
        relation = db.create_segmented(
            "events", directory=tmp_path / "events", segment_rows=3,
            k="int", v="text")
        for i in range(10):
            relation.insert((i, str(i)))
        manager = CheckpointManager(tmp_path / "ckpt", keep=2)
        events = []
        replace, fsync = os.replace, os.fsync

        def cross_device_link(source, target, *args, **kwargs):
            raise OSError(errno.EXDEV, "cross-device link")

        def recording_replace(source, target, *args, **kwargs):
            replace(source, target, *args, **kwargs)
            events.append(("replace", os.path.basename(target)))

        def recording_fsync(descriptor):
            fsync(descriptor)
            events.append(("fsync", os.fstat(descriptor).st_ino))

        with monkeypatch.context() as patch:
            patch.setattr(os, "link", cross_device_link)
            patch.setattr(os, "replace", recording_replace)
            patch.setattr(os, "fsync", recording_fsync)
            manager.save(payload(), lsn=1, database=db)
        directory = ("fsync", manager.segments_dir.stat().st_ino)
        for ref in relation.segment_refs:
            source = relation.directory / ref.filename
            target = manager.segments_dir / ref.filename
            assert source.stat().st_ino != target.stat().st_ino
            expected = [("fsync", target.stat().st_ino),
                        ("replace", ref.filename), directory]
            assert any(events[at:at + 3] == expected
                       for at in range(len(events))), events
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
        refuse_old_format(tmp_path, 1)

    def test_format_2_checkpoint_is_refused_and_blocks_nothing(
            self, tmp_path):
        """Likewise ``format: 2`` (graph and chain state as JSON lists)."""
        refuse_old_format(tmp_path, 2)

    def test_prune_deletes_what_a_failed_save_left(self, tmp_path):
        """A save that fails before its rename leaves a sidecar (and maybe
        a temp document) with no checkpoint; the next prune deletes them."""
        db = small_db()
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(payload(), lsn=1, database=db)
        with pytest.raises(TypeError):
            manager.save({**payload(), "unencodable": object()}, lsn=2,
                         database=db)
        (tmp_path / "checkpoint-000000000003.json.tmp").write_text("{torn")
        manager.save(payload(), lsn=4, database=db)
        assert {p.name for p in tmp_path.iterdir()} == {
            "segments",
            "checkpoint-000000000001.json",
            "checkpoint-000000000001.refs.json",
            "checkpoint-000000000004.json",
            "checkpoint-000000000004.refs.json"}


def refuse_old_format(tmp_path, version):
    """Save an inline checkpoint, stamp it ``format: version``, and check it
    is refused while newer checkpoints and their segments stay usable."""
    db = small_db()
    manager = CheckpointManager(tmp_path, keep=2)
    from repro.datastore.io import database_to_dict
    manager.save({**payload(),
                  "database": database_to_dict(db)}, lsn=1)
    info = manager.list()[0]
    document = json.loads(info.path.read_text())
    document["format"] = version
    info.path.write_text(json.dumps(document))
    db["people"].insert(("frank", 70))
    manager.save(payload(), lsn=2, database=db)
    with pytest.raises(CheckpointError, match="reads version 3 only"):
        manager.load(manager.list()[0])
    segments = {p.name for p in manager.segments_dir.iterdir()}
    manager.prune()
    assert {p.name for p in manager.segments_dir.iterdir()} == segments
    assert [i.lsn for i in manager.list()] == [1, 2]
    restored_new = database_from_dict(manager.load()["database"])
    assert restored_new["people"].counts_copy() == db["people"].counts_copy()


def key_table(n, first_id=0, value=0.5):
    """An array table of ``n`` rows: ids, a float column by bit pattern
    and nested-tuple keys."""
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    floats = np.full(n, value) + ids
    return ArrayTable(("id", "value"),
                      np.stack([ids, floats.view(np.int64)]),
                      [("R", (int(i), "x")) for i in ids])


class TestArrayTables:
    def test_round_trip_is_exact(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        table = key_table(CHUNK_IDS + 5)
        empty = ArrayTable(("id",), np.empty((1, 0), dtype=np.int64))
        manager.save({**payload(), "graph": {"t": table, "e": empty}},
                     lsn=1, database=small_db())
        loaded = manager.load()["graph"]
        assert loaded["t"].fields == table.fields
        assert loaded["t"].codes.tobytes() == table.codes.tobytes()
        assert loaded["t"].keys == table.keys      # tuples come back tuples
        assert loaded["t"].column("value").view(np.float64).tolist() \
            == (0.5 + np.arange(CHUNK_IDS + 5)).tolist()
        assert loaded["e"].codes.shape == (1, 0) and loaded["e"].keys is None
        stored = json.loads(manager.latest().path.read_text())["graph"]["t"]
        assert len(stored["$array_table"]["segments"]) == 2   # two id ranges

    def test_unchanged_chunks_are_re_referenced(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        db = small_db()
        manager.save({**payload(), "state": key_table(2 * CHUNK_IDS)},
                     lsn=1, database=db)
        before = {p.name for p in manager.segments_dir.iterdir()}
        changed = key_table(2 * CHUNK_IDS)
        changed.codes[1, -1] += 1                 # touches the last range
        manager.save({**payload(), "state": changed}, lsn=2, database=db)
        after = {p.name for p in manager.segments_dir.iterdir()}
        (new,) = after - before
        assert manager.last_save_bytes == (
            (manager.segments_dir / new).stat().st_size
            + manager.latest().path.stat().st_size)

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_damaged_array_segment_names_its_digest(self, tmp_path, damage):
        manager = CheckpointManager(tmp_path)
        manager.save({**payload(), "state": key_table(3)}, lsn=1,
                     database=small_db())
        stored = json.loads(manager.latest().path.read_text())["state"]
        (digest,) = stored["$array_table"]["segments"]
        path = manager.segments_dir / f"seg-{digest}.seg"
        if damage == "missing":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=digest):
            manager.load()

    def test_both_retained_checkpoints_load_after_three_saves(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        db = small_db()
        for lsn in (1, 2, 3):
            db["people"].insert((f"p{lsn}", lsn))
            manager.save({**payload(), "state": key_table(3, value=lsn)},
                         lsn=lsn, database=db)
        assert [info.lsn for info in manager.list()] == [2, 3]
        for info in manager.list():
            loaded = manager.load(info)
            assert loaded["state"].codes.tobytes() \
                == key_table(3, value=info.lsn).codes.tobytes()
            people = database_from_dict(loaded["database"])["people"]
            assert ("p%d" % info.lsn, info.lsn) in people


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
