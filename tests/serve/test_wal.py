"""Write-ahead log: append/replay round-trips and corruption handling."""

import json
import os
import warnings

import pytest

from repro.serve import (AddRules, WalError, WriteAheadLog, add_documents,
                         add_rows, remove_rows)
from repro.serve.ops import (OpError, RemoveDocuments, op_from_record)


def sample_batch():
    return (add_documents([("d1", "the apple sat there .")]),
            add_rows("GoodList", [("apple",)]))


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            assert wal.append(sample_batch()) == 1
            assert wal.append((remove_rows("GoodList", [("apple",)]),)) == 2
            records = wal.replay()
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].batch == sample_batch()
        assert records[1].batch[0].rows == (("apple",),)

    def test_replay_after_lsn(self, tmp_path):
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            for _ in range(4):
                wal.append(sample_batch())
            assert [r.lsn for r in wal.replay(after_lsn=2)] == [3, 4]

    def test_lsn_resumes_across_reopen(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        with WriteAheadLog(path) as wal:
            assert wal.last_lsn == 2
            assert wal.append(sample_batch()) == 3
            assert len(wal.replay()) == 3

    def test_empty_log(self, tmp_path):
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            assert wal.last_lsn == 0
            assert wal.replay() == []

    def test_all_op_kinds_round_trip(self, tmp_path):
        batch = (add_documents([("d1", "text .")]),
                 RemoveDocuments(("d0",)),
                 add_rows("GoodList", [("apple", 3), (None, True)]),
                 remove_rows("BadList", [("rust",)]),
                 AddRules("Extra(x text)."))
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            wal.append(batch)
            assert wal.replay()[0].batch == batch

    def test_nested_tuple_rows_round_trip(self, tmp_path):
        batch = (add_rows("KB", [(("s1", ("a", "b")), 1)]),)
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            wal.append(batch)
            restored = wal.replay()[0].batch[0]
        assert restored.rows == ((("s1", ("a", "b")), 1),)


class TestCorruption:
    def test_truncated_tail_discarded_with_warning(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        # simulate a crash mid-append: chop the final record in half
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        with pytest.warns(UserWarning, match="truncated tail"):
            records = WriteAheadLog(path).replay()
        assert [r.lsn for r in records] == [1]

    def test_truncated_tail_reopen_resumes_before_it(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        with pytest.warns(UserWarning):
            wal = WriteAheadLog(path)
        # the torn lsn-2 append was never committed, so 2 is reused
        assert wal.append(sample_batch()) == 2

    def test_open_physically_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        with pytest.warns(UserWarning, match="truncated tail"):
            WriteAheadLog(path).close()
        repaired = path.read_text()
        assert repaired.endswith("\n")
        assert json.loads(repaired.splitlines()[-1])["lsn"] == 1

    def test_append_after_torn_tail_does_not_corrupt(self, tmp_path):
        # a crash-truncated final line must be cut from the file before the
        # append stream opens — otherwise the next record concatenates onto
        # the torn bytes and a later restart reads a corrupt merged line
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        text = path.read_text()
        path.write_text(text[:len(text) - 20])
        with pytest.warns(UserWarning, match="truncated tail"):
            wal = WriteAheadLog(path)
        wal.append(sample_batch())
        wal.close()
        # the restarted log is fully clean: no warning, both records intact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with WriteAheadLog(path) as reopened:
                records = reopened.replay()
        assert [r.lsn for r in records] == [1, 2]
        assert records[1].batch == sample_batch()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]                 # damage a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalError, match="corrupt WAL record"):
            WriteAheadLog(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "ingest.wal"
        path.write_text('{"something_else": true}\n')
        with pytest.raises(WalError, match="unsupported WAL format"):
            WriteAheadLog(path)

    def test_non_contiguous_lsn_raises(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            wal.append(sample_batch())
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({"lsn": 5, "batch": []}) + "\n")
        with pytest.raises(WalError, match="non-contiguous"):
            WriteAheadLog(path)

    def test_fsync_mode_appends(self, tmp_path):
        with WriteAheadLog(tmp_path / "ingest.wal", fsync=True) as wal:
            assert wal.append(sample_batch()) == 1

    def test_new_log_is_fsynced_then_its_directory(self, tmp_path,
                                                   monkeypatch):
        """A power loss after the first acknowledged commit must not lose
        the log: a new file's header, then its directory entry, are
        fsynced before anything is appended."""
        events = []
        fsync = os.fsync

        def recording_fsync(descriptor):
            fsync(descriptor)
            events.append(("fsync", os.fstat(descriptor).st_ino))

        path = tmp_path / "ingest.wal"
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", recording_fsync)
            WriteAheadLog(path, fsync=True).close()
        assert events == [("fsync", path.stat().st_ino),
                          ("fsync", tmp_path.stat().st_ino)]


class TestCompaction:
    def test_compact_drops_checkpointed_prefix(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            for _ in range(3):
                wal.append(sample_batch())
            assert wal.compact(2) == 2
            assert wal._scan().base_lsn == 2
            assert [r.lsn for r in wal.replay()] == [3]
            assert wal.append(sample_batch()) == 4
        with WriteAheadLog(path) as wal:
            assert wal.last_lsn == 4
            assert [r.lsn for r in wal.replay(after_lsn=3)] == [4]

    def test_compact_everything_leaves_header_only(self, tmp_path):
        path = tmp_path / "ingest.wal"
        with WriteAheadLog(path) as wal:
            for _ in range(5):
                wal.append(sample_batch())
            assert wal.compact() == 5            # default: the whole log
            assert wal.replay() == []
            assert wal.last_lsn == 5             # LSNs keep counting up
        assert len(path.read_text().splitlines()) == 1
        with WriteAheadLog(path) as wal:
            assert wal.append(sample_batch()) == 6
            assert [r.lsn for r in wal.replay(after_lsn=5)] == [6]

    def test_compact_is_idempotent_and_monotonic(self, tmp_path):
        with WriteAheadLog(tmp_path / "ingest.wal") as wal:
            wal.append(sample_batch())
            wal.append(sample_batch())
            assert wal.compact(1) == 1
            assert wal.compact(1) == 0           # already at base 1
            assert wal.compact(0) == 0           # never goes backwards
            assert [r.lsn for r in wal.replay()] == [2]


class TestOpRecords:
    def test_unknown_kind_rejected(self):
        with pytest.raises(OpError, match="unknown ingest op kind 'explode'"):
            op_from_record({"op": "explode"})

    def test_record_is_json_compatible(self):
        for op in sample_batch():
            assert json.loads(json.dumps(op.to_record())) == op.to_record()
