"""KBService: the queue, the apply loop, and concurrent readers."""

import os
import queue
import threading
import time
import types

import pytest

from repro import obs
from repro.serve import (IngestRejected, KBService, ServeConfig, ServiceFailed,
                         Snapshot, WriteAheadLog, add_documents, add_rows)
from repro.serve.checkpoint import CheckpointManager
from tests.serve.conftest import RUN_KWARGS, bootstrap_ops, make_app_factory


def live_service(tmp_path, **config_changes):
    options = dict(checkpoint_every=0, refresh_samples=40, refresh_burn_in=10)
    options.update(config_changes)
    return KBService.create(tmp_path / "svc", make_app_factory(),
                            bootstrap_ops(), config=ServeConfig(**options),
                            run_kwargs=RUN_KWARGS)


def stub_service(tmp_path, **config_changes):
    """Queue mechanics without a real engine (the loop is never started)."""
    config = ServeConfig(**config_changes)
    engine = types.SimpleNamespace(config=config)
    snapshot = Snapshot(version=0, lsn=0, marginals={}, threshold=0.9)
    return KBService(engine, tmp_path,
                     WriteAheadLog(tmp_path / "ingest.wal"),
                     CheckpointManager(tmp_path / "checkpoints"), snapshot)


class TestIngestPath:
    def test_ingest_and_query(self, tmp_path):
        with live_service(tmp_path) as service:
            v0 = service.client().snapshot()
            after = service.ingest(
                [add_documents([("n0", "the grape sat there .")])], wait=True)
            assert after.version == v0.version + 1
            assert service.client().snapshot().version == after.version
            assert service.client().query("GoodName", threshold=0.0) \
                >= v0.output_tuples("GoodName", threshold=0.0)

    def test_submit_coalesces_and_flush_applies_all(self, tmp_path):
        with live_service(tmp_path, max_batch_ops=8) as service:
            for i, token in enumerate(("grape", "melon")):
                service.ingest([add_documents(
                    [(f"n{i}", f"the {token} sat there .")])], wait=False)
            snapshot = service.flush()
            assert snapshot.relation_counts["Content"] == 4 + 2
            # coalescing commits fewer batches than ops when the queue backs
            # up, never more
            assert snapshot.version <= 2 + 1

    def test_explicit_batch_is_one_commit(self, tmp_path):
        with live_service(tmp_path) as service:
            before = service.client().snapshot().version
            after = service.ingest(
                [add_documents([("n0", "the grape sat there .")]),
                 add_rows("GoodList", [("grape",)])], wait=True)
            assert after.version == before + 1   # one batch, one version

    def test_requested_checkpoint_lands_on_disk(self, tmp_path):
        with live_service(tmp_path) as service:
            service.ingest([add_rows("GoodList", [("fig",)])], wait=True)
            info = service.checkpoint()
            assert info.path.exists()
            assert info.lsn == service.wal.last_lsn

    def test_periodic_checkpoint_cadence(self, tmp_path):
        with live_service(tmp_path, checkpoint_every=1,
                          keep_checkpoints=8) as service:
            for i in range(3):
                service.ingest([add_rows("GoodList", [(f"tok{i}",)])],
                               wait=True)
            service.flush()
            lsns = [info.lsn for info in service.checkpoints.list()]
        assert lsns == [0, 1, 2, 3]              # bootstrap + one per batch

    def test_checkpoint_compacts_the_wal(self, tmp_path):
        with live_service(tmp_path, checkpoint_every=1) as service:
            for i in range(3):
                service.ingest([add_rows("GoodList", [(f"tok{i}",)])],
                               wait=True)
            service.flush()
            # every committed batch is covered by a checkpoint, so the WAL
            # holds no records — reopen/recovery cost is the tail only
            assert service.wal.replay() == []
            assert service.wal._scan().base_lsn == 3
            assert service.wal.last_lsn == 3

    def test_checkpoint_is_durable_before_the_wal_drops_its_records(
            self, tmp_path, monkeypatch):
        """Directory fsyncs order the renames: the checkpoint's entry is
        durable before the compacted WAL replaces the records it covers."""
        events = []
        replace, fsync = os.replace, os.fsync

        def recording_replace(source, target, *args, **kwargs):
            replace(source, target, *args, **kwargs)
            events.append(("replace", os.path.basename(target)))

        def recording_fsync(descriptor):
            fsync(descriptor)
            events.append(("fsync", os.fstat(descriptor).st_ino))

        with live_service(tmp_path) as service:
            service.ingest([add_rows("GoodList", [("fig",)])], wait=True)
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", recording_replace)
                patch.setattr(os, "fsync", recording_fsync)
                info = service.checkpoint()
        expected = [
            ("fsync", service.checkpoints.segments_dir.stat().st_ino),
            ("replace", info.path.name),
            ("fsync", info.path.parent.stat().st_ino),
            ("replace", service.wal.path.name),
            ("fsync", service.wal.path.parent.stat().st_ino),
        ]
        remaining = iter(events)
        assert all(event in remaining for event in expected), events


    def test_create_fsyncs_the_service_directory_last(self, tmp_path,
                                                      monkeypatch):
        """Bootstrap leaves nothing behind a power loss can take: the new
        WAL and its entry, the checkpoint, and then the service
        directory's entry for ``checkpoints/``."""
        events = []
        fsync = os.fsync

        def recording_fsync(descriptor):
            fsync(descriptor)
            events.append(("fsync", os.fstat(descriptor).st_ino))

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", recording_fsync)
            service = live_service(tmp_path, wal_fsync=True)
        with service:
            directory = service.wal.path.parent.stat().st_ino
            expected = [("fsync", service.wal.path.stat().st_ino),
                        ("fsync", directory),
                        ("fsync", service.checkpoints.directory.stat().st_ino),
                        ("fsync", directory)]
        remaining = iter(events)
        assert all(event in remaining for event in expected), events
        assert events[-1] == ("fsync", directory)


class TestAdmissionControl:
    def test_reject_policy_fails_fast(self, tmp_path):
        service = stub_service(tmp_path, queue_capacity=2, admission="reject")
        op = add_rows("GoodList", [("x",)])
        service.ingest([op], wait=False)
        service.ingest([op], wait=False)
        with pytest.raises(IngestRejected, match="queue full"):
            service.ingest([op], wait=False)
        service.stop()

    def test_block_policy_times_out(self, tmp_path):
        service = stub_service(tmp_path, queue_capacity=1, admission="block")
        op = add_rows("GoodList", [("x",)])
        service.ingest([op], wait=False)
        with pytest.raises(IngestRejected):
            service.ingest([op], wait=False, timeout=0.05)
        service.stop()

    def test_queue_drains_once_loop_runs(self, tmp_path):
        with live_service(tmp_path, queue_capacity=4,
                          admission="reject") as service:
            for i in range(3):
                service.ingest([add_rows("GoodList", [(f"t{i}",)])],
                               wait=False)
            snapshot = service.flush()
            assert snapshot.relation_counts["GoodList"] == 3 + 3


class TestCheckpointFailureIsolation:
    def test_periodic_checkpoint_failure_does_not_fail_the_batch(
            self, tmp_path):
        # the batch is WAL-committed, applied, and published before the
        # periodic checkpoint runs: a failing save must not turn into a
        # ServiceFailed for the waiter (inviting a duplicate retry of a
        # committed batch) and must not kill the loop
        with live_service(tmp_path, checkpoint_every=1) as service:
            real_save = service.checkpoints.save
            calls = []

            def flaky_save(payload, lsn, database=None):
                calls.append(lsn)
                if len(calls) == 1:
                    raise OSError("disk full")
                return real_save(payload, lsn, database=database)

            service.checkpoints.save = flaky_save
            with pytest.warns(UserWarning, match="periodic checkpoint "
                                                 "failed"):
                snapshot = service.ingest(
                    [add_rows("GoodList", [("fig",)])], wait=True)
                service.flush()
            assert snapshot.version == 1         # the batch succeeded
            after = service.ingest([add_rows("GoodList", [("lime",)])],
                                   wait=True)
            assert after.version == 2            # the loop is still alive
            service.flush()
            assert calls == [1, 2]               # retried after next batch
            assert service.checkpoints.latest().lsn == 2

    def test_explicit_checkpoint_failure_keeps_serving(self, tmp_path):
        with live_service(tmp_path) as service:
            def broken_save(payload, lsn, database=None):
                raise OSError("disk full")

            service.checkpoints.save = broken_save
            with pytest.raises(ServiceFailed, match="disk full"):
                service.checkpoint()
            del service.checkpoints.save
            # a failed checkpoint leaves state intact; serving continues
            after = service.ingest([add_rows("GoodList", [("fig",)])],
                                   wait=True)
            assert after.version == 1


class TestEnqueueFailureRace:
    def test_enqueue_after_concurrent_loop_death_fails_fast(self, tmp_path):
        # the loop can fail (and drain the queue) between _check_alive and
        # the put; the producer must notice and fail, not wait forever
        service = stub_service(tmp_path)
        boom = RuntimeError("injected loop death")

        class RacyQueue(queue.Queue):
            def put(self, item, block=True, timeout=None):
                super().put(item, block, timeout)
                if service._failure is None:     # the loop dies right here
                    service._failure = boom
                    service._drain_failed()

        service._queue = RacyQueue(maxsize=service.config.queue_capacity)
        with pytest.raises(ServiceFailed, match="injected loop death"):
            service.ingest([add_rows("GoodList", [("x",)])], wait=True,
                           timeout=2)
        service.stop()


class TestConcurrentReads:
    def test_readers_never_block_and_see_consistent_versions(self, tmp_path):
        with live_service(tmp_path) as service:
            stop = threading.Event()
            failures: list[str] = []
            reads = [0, 0, 0]

            def reader(slot):
                last_version = -1
                while not stop.is_set():
                    snapshot = service.client().snapshot()
                    if snapshot.version < last_version:
                        failures.append(
                            f"version went backwards: {snapshot.version} "
                            f"after {last_version}")
                    last_version = snapshot.version
                    # a snapshot is internally consistent: its marginals
                    # never change after publication
                    if len(snapshot) != len(dict(snapshot.marginals)):
                        failures.append("snapshot mutated underneath reader")
                    service.client().query("GoodName")
                    reads[slot] += 1

            threads = [threading.Thread(target=reader, args=(slot,))
                       for slot in range(3)]
            for thread in threads:
                thread.start()
            try:
                for i, token in enumerate(("grape", "melon", "decay")):
                    service.ingest(
                        [add_documents([(f"n{i}", f"the {token} sat there .")])],
                        wait=True)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not failures
            # readers made progress *while* batches were applying
            assert all(count > 0 for count in reads)
            assert service.client().snapshot().version == 3

    def test_snapshot_is_immutable_across_ingest(self, tmp_path):
        with live_service(tmp_path) as service:
            held = service.client().snapshot()
            before = dict(held.marginals)
            service.ingest(
                [add_documents([("n0", "the grape sat there .")])], wait=True)
            assert dict(held.marginals) == before
            assert service.client().snapshot().version == held.version + 1


class TestObservability:
    def test_read_and_ingest_metrics_recorded(self, tmp_path):
        collector = obs.Collector()
        with obs.installed(collector):
            with live_service(tmp_path) as service:
                service.ingest([add_rows("GoodList", [("fig",)])], wait=True)
                service.client().query("GoodName")
                service.client().snapshot()
        metrics = collector.metrics
        assert metrics.counter_total("serve.reads") >= 2
        assert metrics.counter_total("serve.ops.applied") == 1
        assert metrics.histogram("serve.read.seconds").count >= 2
        names = {span.name for root in collector.roots
                 for span in root.walk()}
        assert "serve.bootstrap" in names
        assert "serve.commit" in names

    def test_reader_spans_from_other_threads(self, tmp_path):
        collector = obs.Collector()
        with obs.installed(collector):
            with live_service(tmp_path) as service:
                worker = threading.Thread(
                    target=lambda: service.client().query("GoodName"))
                worker.start()
                worker.join()
        names = {span.name for root in collector.roots
                 for span in root.walk()}
        assert "serve.read" in names


class TestLifecycle:
    def test_stopped_service_refuses_work(self, tmp_path):
        service = live_service(tmp_path)
        service.stop()
        from repro.serve import ServiceFailed
        with pytest.raises(ServiceFailed, match="stopped"):
            service.ingest([add_rows("GoodList", [("x",)])], wait=False)

    def test_stop_with_checkpoint(self, tmp_path):
        service = live_service(tmp_path)
        service.ingest([add_rows("GoodList", [("fig",)])], wait=True)
        service.stop(checkpoint=True)
        assert service.checkpoints.latest().lsn == 1

    def test_stop_does_not_wait_for_queue_capacity(self, tmp_path):
        # stop is signalled out-of-band: with the queue full and a producer
        # blocked on admission, the stop call must neither hang behind the
        # backpressure nor strand the blocked producer
        service = stub_service(tmp_path, queue_capacity=1)
        op = add_rows("GoodList", [("x",)])
        service.ingest([op], wait=False)         # fills the queue; no loop
        outcomes = []

        def producer():
            try:
                service.ingest([op], wait=True, timeout=10)
                outcomes.append("completed")
            except ServiceFailed:
                outcomes.append("refused")
            except TimeoutError:
                outcomes.append("stranded")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.1)                          # let it block on the put
        started = time.monotonic()
        service.stop(timeout=2.0)
        assert time.monotonic() - started < 2.0
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcomes == ["refused"]
