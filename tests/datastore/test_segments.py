"""Segmented relations: sealing, content addressing, reopen, crash safety."""

import json

import numpy as np
import pytest

from repro.datastore import Database, Relation, Schema
from repro.datastore import columnar as C
from repro.datastore.segments import (SegmentCache, SegmentedRelation,
                                      SegmentError, open_segment,
                                      segment_path, write_segment)


def make(tmp_path, segment_rows=4, name="t"):
    return SegmentedRelation(name, Schema.of(k="int", v="text"),
                             tmp_path / name, segment_rows=segment_rows)


class TestSegmentFiles:
    def test_round_trip(self, tmp_path):
        codes = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.int64)
        counts = np.array([1, 2, 3], dtype=np.int64)
        pool = [10, "x", ("a", "b")]
        ref = write_segment(tmp_path, codes, counts, pool)
        data = open_segment(segment_path(tmp_path, ref.digest))
        assert data.pool_values == pool           # tuples survive JSON
        assert np.array_equal(np.asarray(data.codes), codes)
        assert np.array_equal(np.asarray(data.counts), counts)
        assert data.total == 6 and ref.total == 6

    def test_content_addressing_dedupes(self, tmp_path):
        codes = np.array([[0, 1]], dtype=np.int64)
        counts = np.array([1, 1], dtype=np.int64)
        ref1 = write_segment(tmp_path, codes, counts, ["a", "b"])
        ref2 = write_segment(tmp_path, codes, counts, ["a", "b"])
        assert ref1.digest == ref2.digest
        assert len(list(tmp_path.glob("seg-*.seg"))) == 1
        ref3 = write_segment(tmp_path, codes, counts, ["a", "c"])
        assert ref3.digest != ref1.digest

    def test_truncated_segment_rejected(self, tmp_path):
        ref = write_segment(tmp_path, np.array([[0]], dtype=np.int64),
                            np.array([5], dtype=np.int64), ["only"])
        path = segment_path(tmp_path, ref.digest)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SegmentError, match="truncated"):
            open_segment(path)

    def test_non_segment_file_rejected(self, tmp_path):
        bogus = tmp_path / ("seg-" + "0" * 40 + ".seg")
        bogus.write_bytes(b"not a segment at all")
        with pytest.raises(SegmentError, match="magic"):
            open_segment(bogus)


class TestSegmentedRelation:
    def test_seal_threshold_and_contents(self, tmp_path):
        relation = make(tmp_path, segment_rows=4)
        rows = [(i, f"r{i}") for i in range(10)]
        for row in rows:
            relation.insert(row)
        relation.insert((0, "r0"), count=2)
        assert len(relation.segment_refs) == 2    # 8 rows sealed, 2+dup tail
        assert len(relation) == 12
        assert sorted(relation) == sorted(rows + [(0, "r0")] * 2)
        assert relation.count((0, "r0")) == 3

    def test_flush_then_reopen_identical(self, tmp_path):
        relation = make(tmp_path, segment_rows=4)
        for i in range(11):
            relation.insert((i, str(i)))
        relation.flush()
        reopened = SegmentedRelation.open(relation.directory)
        assert reopened.counts_copy() == relation.counts_copy()
        assert reopened.mutation_version == relation.mutation_version
        assert reopened.schema == relation.schema

    def test_crash_during_seal_partial_ignored(self, tmp_path):
        relation = make(tmp_path, segment_rows=4)
        for i in range(9):
            relation.insert((i, str(i)))
        relation.flush()
        before = relation.counts_copy()
        # a crashed process sealed a segment but never committed meta.json:
        # the file exists, unreferenced
        write_segment(relation.directory,
                      np.array([[0], [1]], dtype=np.int64),
                      np.array([7], dtype=np.int64), [999, "ghost"])
        # ... and another crash left a torn temp file
        (relation.directory / "seg-deadbeef.seg.tmp-123").write_bytes(b"torn")
        reopened = SegmentedRelation.open(relation.directory)
        assert reopened.counts_copy() == before
        assert (999, "ghost") not in reopened

    def test_batch_commits_meta_once(self, tmp_path, monkeypatch):
        relation = make(tmp_path, segment_rows=4)
        commits = []
        write_meta = SegmentedRelation._write_meta
        monkeypatch.setattr(
            SegmentedRelation, "_write_meta",
            lambda self: (commits.append(len(self._refs)), write_meta(self)))
        relation.insert_many((i, str(i)) for i in range(14))
        assert len(relation.segment_refs) == 3
        assert commits == [3]               # one commit, naming all three
        assert len(relation) == 14 and relation.distinct_count == 14
        reopened = SegmentedRelation.open(relation.directory)
        assert len(reopened.segment_refs) == 3 and len(reopened) == 12

    def test_crash_before_meta_commit_reopens_previous_manifest(
            self, tmp_path, monkeypatch):
        relation = make(tmp_path, segment_rows=4)
        relation.insert_many((i, str(i)) for i in range(5))
        before = SegmentedRelation.open(relation.directory)
        committed = before.counts_copy()
        assert len(before.segment_refs) == 1

        def crash(self):
            raise KeyboardInterrupt("killed before the meta commit")

        monkeypatch.setattr(SegmentedRelation, "_write_meta", crash)
        with pytest.raises(KeyboardInterrupt):
            relation.insert_many((i, str(i)) for i in range(5, 14))
        monkeypatch.undo()
        # all three segment files are on disk, the manifest names one
        assert len(list(relation.directory.glob("seg-*.seg"))) == 3
        reopened = SegmentedRelation.open(relation.directory)
        assert reopened.segment_refs == before.segment_refs
        assert reopened.counts_copy() == committed

    def test_failed_seal_keeps_memory_consistent(self, tmp_path, monkeypatch):
        from repro.datastore import segments
        relation = make(tmp_path, segment_rows=4)
        real = segments.write_segment
        calls = []

        def second_write_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(segments, "write_segment", second_write_fails)
        rows = [(i, str(i)) for i in range(9)]
        with pytest.raises(OSError):
            relation.insert_many(rows)
        # the first segment is sealed and out of the tail; nothing is twice
        assert len(relation.segment_refs) == 1
        assert sorted(relation) == rows
        relation.flush()
        assert sorted(SegmentedRelation.open(relation.directory)) == rows

    def test_digests_equal_reference_built_segments(self, tmp_path):
        """Sealing is the per-cell interning loop it replaced, byte for byte:
        codes in column-major first-appearance order over a fresh pool."""
        schema = Schema.of(key="text", n="int", score="float", tags="array",
                           note="text")
        rows = [(f"k{i}", i % 3, float(i % 2), ("a", f"t{i % 4}"),
                 None if i % 5 == 0 else f"k{i % 7}") for i in range(12)]
        relation = SegmentedRelation("t", schema, tmp_path / "t",
                                     segment_rows=4)
        relation.insert_many(rows)
        relation.insert((rows[0][0], 0, 0.0, ("a", "t0"), None), count=2)
        relation.flush()

        counted = [(row, 1) for row in rows] + [(rows[0], 2)]
        expected = []
        for start in range(0, len(counted), 4):
            codes_of, pool = {}, []
            chunk = counted[start:start + 4]
            codes = np.empty((schema.arity, len(chunk)), dtype=np.int64)
            for j in range(schema.arity):
                for i, (row, _) in enumerate(chunk):
                    value = row[j]
                    key = value if type(value) is str else (type(value), value)
                    if key not in codes_of:
                        codes_of[key] = len(pool)
                        pool.append(value)
                    codes[j, i] = codes_of[key]
            counts = np.array([count for _, count in chunk], dtype=np.int64)
            expected.append(write_segment(tmp_path / "reference", codes,
                                          counts, pool))
        assert len(expected) == 4
        assert relation.segment_refs == expected

    def test_missing_referenced_segment_refused(self, tmp_path):
        relation = make(tmp_path, segment_rows=2)
        for i in range(4):
            relation.insert((i, str(i)))
        victim = relation.segment_paths()[0]
        victim.unlink()
        with pytest.raises(SegmentError, match="missing"):
            SegmentedRelation.open(relation.directory)

    def test_meta_version_gate(self, tmp_path):
        relation = make(tmp_path)
        relation.flush()
        meta_path = relation.directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SegmentError, match="version"):
            SegmentedRelation.open(relation.directory)

    def test_sealed_rows_immutable(self, tmp_path):
        relation = make(tmp_path, segment_rows=2)
        for i in range(4):
            relation.insert((i, str(i)))
        relation.insert((100, "tail"))
        assert relation.delete((100, "tail")) == 1     # tail rows deletable
        assert relation.delete((555, "absent")) == 0   # absent rows: no-op
        with pytest.raises(SegmentError, match="sealed"):
            relation.delete((0, "0"))
        with pytest.raises(SegmentError, match="cleared"):
            relation.clear()

    def test_copy_is_readonly_snapshot(self, tmp_path):
        relation = make(tmp_path, segment_rows=2)
        for i in range(5):
            relation.insert((i, str(i)))
        snapshot = relation.copy()
        assert snapshot.counts_copy() == relation.counts_copy()
        with pytest.raises(SegmentError, match="read-only"):
            snapshot.insert((9, "nope"))
        relation.insert((9, "later"))                  # original still writable
        assert (9, "later") not in snapshot

    def test_lookup_scans(self, tmp_path):
        relation = make(tmp_path, segment_rows=2)
        for i in range(6):
            relation.insert((i % 3, str(i)))
        hits = sorted(relation.lookup(["k"], [1]))
        assert hits == sorted(r for r in relation if r[0] == 1)
        # repeated lookups stay correct across further seals (no stale cache)
        relation.insert((1, "new"))
        assert (1, "new") in set(relation.lookup(["k"], [1]))

    def test_distinct_count_upper_bound(self, tmp_path):
        relation = make(tmp_path, segment_rows=2)
        relation.insert((1, "a"))
        relation.insert((2, "b"))                      # seals [ (1,a),(2,b) ]
        relation.insert((1, "a"))                      # same row, new segment
        relation.insert((3, "c"))
        assert relation.distinct_count >= 3            # documented upper bound
        assert len(relation) == 4                      # multiplicities exact
        assert relation.counts_copy()[(1, "a")] == 2

    def test_queries_over_segmented_relation(self, tmp_path):
        from repro.datastore import query as Q
        from repro.obs import EngineConfig
        relation = make(tmp_path, segment_rows=4)
        plain = Relation("p", relation.schema)
        for i in range(30):
            row = (i % 5, f"v{i % 7}")
            relation.insert(row)
            plain.insert(row)
        for backend in ("row", "columnar"):
            config = EngineConfig(datastore_backend=backend)
            agg_seg = Q.aggregate(relation, ["k"], {"n": ("count", "*")},
                                  config=config)
            agg_plain = Q.aggregate(plain, ["k"], {"n": ("count", "*")},
                                    config=config)
            assert agg_seg.counts_copy() == agg_plain.counts_copy()

    def test_database_create_segmented(self, tmp_path):
        db = Database()
        relation = db.create_segmented("big", directory=tmp_path / "big",
                                       segment_rows=3, k="int", v="text")
        assert isinstance(relation, SegmentedRelation)
        for i in range(10):
            relation.insert((i, str(i)))
        assert len(relation.segment_refs) == 3
        assert db["big"] is relation


class TestSegmentCache:
    def test_lru_eviction_under_budget(self, tmp_path):
        cache = SegmentCache(budget_bytes=1)           # evict aggressively
        relation = SegmentedRelation("t", Schema.of(k="int"),
                                     tmp_path / "t", segment_rows=2,
                                     cache=cache)
        for i in range(8):
            relation.insert((i,))
        assert len(relation.segment_refs) == 4
        assert sorted(relation) == [(i,) for i in range(8)]
        # budget of 1 byte: at most one entry stays resident
        assert len(cache._entries) <= 1

    def test_iter_stores_streams_chunks(self, tmp_path):
        relation = make(tmp_path, segment_rows=3)
        for i in range(8):
            relation.insert((i, str(i)))
        stores = list(relation.iter_stores())
        assert len(stores) == 3                        # 2 sealed + tail
        total = sum(int(s.counts.sum()) for s in stores)
        assert total == 8
        # every chunk decodes through its own pool, the tail's included
        assert stores[-1].pool is not C.DEFAULT_POOL
        assert stores[-1].pool.values == [6, 7, "6", "7"]


class TestColumnInterning:
    COLUMN = ["a", 1, 1.0, True, None, ("a", 1), "a", 1, "b", (), 0, False,
              None, ("a", 1), 2.5, "1"]

    def test_encode_column_is_code_per_value(self):
        for seeded in ([], ["b", 1, None]):
            bulk, scalar = C.InternPool(), C.InternPool()
            for value in seeded:
                bulk.code(value)
                scalar.code(value)
            codes = bulk.encode_column(iter(self.COLUMN))
            assert codes.dtype == np.int64
            assert codes.tolist() == [scalar.code(v) for v in self.COLUMN]
            assert list(map(repr, bulk.values)) \
                == list(map(repr, scalar.values))
            assert [bulk.lookup(v) for v in self.COLUMN] == codes.tolist()

    def test_all_text_and_empty_columns(self):
        pool = C.InternPool()
        assert pool.encode_column(["x", "y", "x"]).tolist() == [0, 1, 0]
        assert pool.encode_column([]).tolist() == []
        assert pool.values == ["x", "y"]

    def test_an_empty_pool_argument_is_used(self):
        pool = C.InternPool()
        store = C.ColumnStore.from_counted_rows(
            Schema.of(k="int"), [((41,), 1)], pool)
        assert store.pool is pool and pool.values == [41]
