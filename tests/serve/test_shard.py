"""Sharded serving: routing, merged views, tenants, recovery, rebalance."""

import os
import threading
import time

import pytest

from repro import Document
from repro.serve import (AddDocuments, AddRows, AddRules, HashRing, KBService,
                         MergedSnapshot, QuotaExceeded, RemoveDocuments,
                         ServeConfig, ServiceFailed, ShardedKBService,
                         add_documents, add_rows, route_ops)

from .conftest import GOOD, BAD, RUN_KWARGS, bootstrap_ops, make_app_factory


def sharded_config(**overrides):
    options = dict(shards=2, checkpoint_every=0, refresh_samples=40,
                   refresh_burn_in=10)
    options.update(overrides)
    return ServeConfig(**options)


def make_sharded(tmp_path, **config_overrides):
    return ShardedKBService.create(
        tmp_path / "kb", make_app_factory(), bootstrap_ops(),
        config=sharded_config(**config_overrides), run_kwargs=RUN_KWARGS)


def doc_for(token, doc_id):
    return Document(doc_id, f"the {token} sat there .")


class TestHashRing:
    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert {ring.shard_of(f"d{i}") for i in range(50)} == {0}

    def test_routing_is_deterministic_across_instances(self):
        keys = [f"doc-{i}" for i in range(100)]
        first = [HashRing(4).shard_of(key) for key in keys]
        second = [HashRing(4).shard_of(key) for key in keys]
        assert first == second

    def test_every_shard_owns_some_keys(self):
        ring = HashRing(4)
        owners = {ring.shard_of(f"doc-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        keys = [f"doc-{i}" for i in range(300)]
        before, after = HashRing(4), HashRing(5)
        moved = sum(1 for key in keys
                    if before.shard_of(key) != after.shard_of(key))
        # consistent hashing: ~1/5 of keys move, never a majority
        assert moved < len(keys) // 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestRouteOps:
    def test_documents_partition_and_rows_broadcast(self):
        ring = HashRing(3)
        docs = [(f"d{i}", f"text {i}") for i in range(12)]
        rows = AddRows("GoodList", (("apple",),))
        routed = route_ops([AddDocuments(tuple(docs)), rows], ring)
        seen = []
        for index, ops in routed.items():
            for op in ops:
                if isinstance(op, AddDocuments):
                    for doc_id, _ in op.documents:
                        assert ring.shard_of(doc_id) == index
                        seen.append(doc_id)
        assert sorted(seen) == sorted(doc_id for doc_id, _ in docs)
        for index in range(3):
            assert rows in routed[index]

    def test_document_order_preserved_within_shard(self):
        ring = HashRing(2)
        docs = [(f"d{i}", "x") for i in range(20)]
        routed = route_ops([AddDocuments(tuple(docs))], ring)
        for index, ops in routed.items():
            ids = [doc_id for op in ops for doc_id, _ in op.documents]
            expected = [doc_id for doc_id, _ in docs
                        if ring.shard_of(doc_id) == index]
            assert ids == expected

    def test_removals_follow_the_same_routing(self):
        ring = HashRing(2)
        routed = route_ops([RemoveDocuments(tuple(f"d{i}"
                                                  for i in range(8)))], ring)
        for index, ops in routed.items():
            for op in ops:
                assert all(ring.shard_of(doc_id) == index
                           for doc_id in op.doc_ids)


class TestShardedService:
    def test_create_lays_out_shards_and_manifest(self, tmp_path):
        with make_sharded(tmp_path) as service:
            assert len(service.shards) == 2
            assert (tmp_path / "kb" / "shard-00" / "ingest.wal").exists()
            assert (tmp_path / "kb" / "shard-01" / "ingest.wal").exists()
        manifest = ShardedKBService.read_manifest(tmp_path / "kb")
        assert manifest["shards"] == 2

    def test_manifest_is_fsynced_before_and_after_its_rename(
            self, tmp_path, monkeypatch):
        """``shards.json`` decides how ``KBClient.open`` recovers the
        directory, so it is as durable as the shards: file fsync, rename,
        directory fsync."""
        events = []
        replace, fsync = os.replace, os.fsync

        def recording_replace(source, target, *args, **kwargs):
            replace(source, target, *args, **kwargs)
            events.append(("replace", os.path.basename(target)))

        def recording_fsync(descriptor):
            fsync(descriptor)
            events.append(("fsync", os.fstat(descriptor).st_ino))

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", recording_replace)
            patch.setattr(os, "fsync", recording_fsync)
            ShardedKBService._write_manifest(tmp_path, 2, 64)
        path = tmp_path / "shards.json"
        assert events == [("fsync", path.stat().st_ino),
                          ("replace", "shards.json"),
                          ("fsync", tmp_path.stat().st_ino)]
        assert ShardedKBService.read_manifest(tmp_path)["shards"] == 2

    def test_merged_view_unions_the_shards(self, tmp_path):
        with make_sharded(tmp_path) as service:
            merged = service.client().snapshot()
            assert isinstance(merged, MergedSnapshot)
            per_shard = [shard._read_snapshot() for shard in service.shards]
            union = {}
            for part in per_shard:
                union.update(part.marginals)
            assert dict(merged.marginals) == union
            assert len(merged.lsn_vector) == 2

    def test_bootstrap_results_match_routed_single_services(self, tmp_path):
        """The sharded layout is exactly N independent services fed the
        routed slices of the same operations."""
        with make_sharded(tmp_path) as service:
            ring = service.ring
            merged = service.client().snapshot()
        routed = route_ops(bootstrap_ops(), ring)
        union = {}
        for index in range(2):
            with KBService.create(
                    tmp_path / f"ref{index}", make_app_factory(),
                    routed.get(index, []), config=sharded_config(shards=1),
                    run_kwargs=RUN_KWARGS) as reference:
                union.update(reference._read_snapshot().marginals)
        assert dict(merged.marginals) == union

    def test_ingest_routes_documents_and_publishes_vector(self, tmp_path):
        with make_sharded(tmp_path) as service:
            client = service.client()
            before = client.lsn_vector()
            docs = [doc_for(GOOD[4], "dx-1"), doc_for(GOOD[5], "dx-2")]
            merged = client.ingest([add_documents(docs)])
            for doc in docs:
                index = service.ring.shard_of(doc.doc_id)
                assert merged.lsn_vector[index] > before[index]
            accepted = client.query("GoodName")
            assert any(GOOD[4] in str(values) for values in accepted) \
                or any(key[1] for key in merged.marginals
                       if "dx-1" in str(key))

    def test_broadcast_rows_touch_every_shard(self, tmp_path):
        with make_sharded(tmp_path) as service:
            before = service.lsn_vector()
            after = service.client().ingest(
                [add_rows("GoodList", [(GOOD[4],)])]).lsn_vector
            assert all(late > early
                       for early, late in zip(before, after))

    def test_empty_shard_is_valid(self, tmp_path):
        """All bootstrap documents forced onto one shard: the other boots
        empty and still serves (version 0, empty marginals)."""
        ring = HashRing(2)
        target = ring.shard_of("solo")
        with ShardedKBService.create(
                tmp_path / "kb", make_app_factory(),
                [add_documents([doc_for(GOOD[0], "solo")]),
                 add_rows("GoodList", [(GOOD[0],)])],
                config=sharded_config(), run_kwargs=RUN_KWARGS) as service:
            empty = service.shards[1 - target]._read_snapshot()
            assert empty.version == 0 and len(empty) == 0
            assert len(service.client().snapshot()) > 0

    def test_snapshot_at_reconstructs_published_vectors(self, tmp_path):
        with make_sharded(tmp_path) as service:
            client = service.client()
            v0 = client.lsn_vector()
            client.ingest([add_documents([doc_for(GOOD[4], "da")])])
            v1 = client.lsn_vector()
            old = client.snapshot_at(v0)
            assert old.lsn_vector == v0
            assert client.snapshot_at(v1).lsn_vector == v1
            assert len(client.snapshot()) >= len(old)

    def test_snapshot_at_rejects_bad_vectors(self, tmp_path):
        with make_sharded(tmp_path) as service:
            with pytest.raises(ValueError):
                service.snapshot_at((0,))
            with pytest.raises(KeyError):
                service.snapshot_at((999, 999))

    def test_flush_is_a_publication_barrier(self, tmp_path):
        with make_sharded(tmp_path) as service:
            client = service.client()
            group = client.ingest([add_documents([doc_for(GOOD[4], "df")])],
                                  wait=False)
            flushed = client.flush()
            assert group.done
            assert flushed.lsn_vector == client.lsn_vector()

    def test_readers_never_block_during_ingest(self, tmp_path):
        with make_sharded(tmp_path) as service:
            client = service.client()
            client.ingest([add_documents([doc_for(GOOD[4], "slow-doc")])],
                          wait=False)
            started = time.perf_counter()
            for _ in range(50):
                client.snapshot()
            elapsed = time.perf_counter() - started
            assert elapsed < 0.5                 # reference loads, no waits
            client.flush()


class TestTenants:
    def test_quota_admits_then_rejects(self, tmp_path):
        with make_sharded(tmp_path, tenant_quota=2) as service:
            service.register_tenant("acme")
            group = service.ingest(
                [add_rows("GoodList", [(GOOD[4],)]),
                 add_rows("GoodList", [(GOOD[5],)])],
                wait=False, tenant="acme")
            with pytest.raises(QuotaExceeded):
                service.ingest([add_rows("GoodList", [("nope",)])],
                               tenant="acme")
            group.wait()
            # commit released the quota: admission succeeds again
            service.ingest([add_rows("BadList", [(BAD[4],)])],
                           tenant="acme")
            assert service.tenants()["acme"]["pending"] == 0

    def test_per_tenant_quota_overrides_default(self, tmp_path):
        with make_sharded(tmp_path, tenant_quota=1) as service:
            service.register_tenant("big", quota=50)
            service.ingest([add_rows("GoodList", [(GOOD[4],)]),
                            add_rows("GoodList", [(GOOD[5],)])],
                           tenant="big")

    def test_zero_quota_is_unlimited(self, tmp_path):
        with make_sharded(tmp_path, tenant_quota=0) as service:
            service.ingest([add_rows("GoodList", [(g,) for g in GOOD])],
                           tenant="anyone")

    def test_quota_rejection_never_reaches_the_shards(self, tmp_path):
        with make_sharded(tmp_path, tenant_quota=1) as service:
            before = service.lsn_vector()
            service.register_tenant("tiny")
            with pytest.raises(QuotaExceeded):
                service.ingest([add_rows("GoodList", [(GOOD[4],)]),
                                add_rows("GoodList", [(GOOD[5],)])],
                               tenant="tiny")
            assert service.flush().lsn_vector == before

    def test_tenant_rules_broadcast_to_all_shards(self, tmp_path):
        with make_sharded(tmp_path) as service:
            service.register_tenant(
                "acme", rules="GoodName_Ev(m, true) :- "
                              "NameMention(s, m, t, p), Content(s, c).")
            assert service.tenants()["acme"]["rules"]
            for shard in service.shards:
                assert shard.engine.rule_deltas


class TestRecovery:
    def test_reopen_republishes_identical_vector_and_marginals(self, tmp_path):
        with make_sharded(tmp_path) as service:
            service.client().ingest(
                [add_documents([doc_for(GOOD[4], "dr-1"),
                                doc_for(GOOD[5], "dr-2")])])
            expected = service.client().snapshot()
            vector = expected.lsn_vector
            versions = expected.version_vector
            marginals = dict(expected.marginals)
        reopened = ShardedKBService.open(
            tmp_path / "kb", make_app_factory(),
            config=sharded_config(), run_kwargs=RUN_KWARGS)
        with reopened:
            merged = reopened.client().snapshot()
            assert merged.lsn_vector == vector
            assert merged.version_vector == versions
            assert dict(merged.marginals) == marginals

    def test_shard_crash_after_wal_append_recovers_the_group(self, tmp_path):
        """Kill one shard right after its WAL append: the router fail-stops
        without publishing a torn view, and reopen replays the batch on
        every shard — the group commits exactly once."""
        service = make_sharded(tmp_path)
        try:
            view_before = service.client().snapshot()
            boom = RuntimeError("simulated crash after WAL append")

            def crash(lsn, batch):
                raise boom

            service.shards[0].fault_hooks["after_wal_append"] = crash
            with pytest.raises(ServiceFailed):
                service.ingest([add_rows("GoodList", [(GOOD[4],)])])
            # the broken group never published: the view is unchanged
            assert service._read_snapshot() is view_before
            with pytest.raises(ServiceFailed):
                service.ingest([add_rows("GoodList", [(GOOD[5],)])])
        finally:
            service.shards[0].fault_hooks.clear()
            service.stop()
        with ShardedKBService.open(
                tmp_path / "kb", make_app_factory(),
                config=sharded_config(), run_kwargs=RUN_KWARGS) as reopened:
            after = reopened.client().snapshot()
            # the WAL-durable batch replayed on every shard it reached
            assert all(late >= early for early, late
                       in zip(view_before.lsn_vector, after.lsn_vector))
            assert any(late > early for early, late
                       in zip(view_before.lsn_vector, after.lsn_vector))


class TestRebalance:
    def test_rebalance_preserves_documents_and_variables(self, tmp_path):
        with make_sharded(tmp_path) as service:
            service.client().ingest(
                [add_documents([doc_for(GOOD[4], "rb-1")])])
            expected_keys = set(service.client().snapshot().marginals)
            expected_docs = sorted(
                doc_id for shard in service.shards
                for doc_id, _ in shard.engine.app.db["documents"]
                .distinct_rows())
        rebalanced = ShardedKBService.rebalance(
            tmp_path / "kb", tmp_path / "kb3", make_app_factory(),
            new_shards=3, config=sharded_config(shards=3),
            run_kwargs=RUN_KWARGS)
        with rebalanced:
            assert len(rebalanced.shards) == 3
            merged = rebalanced.client().snapshot()
            assert set(merged.marginals) == expected_keys
            docs = sorted(
                doc_id for shard in rebalanced.shards
                for doc_id, _ in shard.engine.app.db["documents"]
                .distinct_rows())
            assert docs == expected_docs
        manifest = ShardedKBService.read_manifest(tmp_path / "kb3")
        assert manifest["shards"] == 3

    def test_rebalance_carries_rule_deltas(self, tmp_path):
        extra = ("GoodName_Ev(m, true) :- "
                 "NameMention(s, m, t, p), Content(s, c).")
        with make_sharded(tmp_path) as service:
            service.ingest([AddRules(extra)])
        with ShardedKBService.rebalance(
                tmp_path / "kb", tmp_path / "kb1", make_app_factory(),
                new_shards=1, config=sharded_config(shards=1),
                run_kwargs=RUN_KWARGS) as rebalanced:
            assert all(extra in "\n".join(shard.engine.rule_deltas)
                       for shard in rebalanced.shards)


class TestConcurrentGroups:
    def test_interleaved_writers_publish_monotonic_vectors(self, tmp_path):
        with make_sharded(tmp_path) as service:
            client = service.client()
            errors = []

            def writer(token, count):
                try:
                    for i in range(count):
                        client.ingest(
                            [add_documents([doc_for(GOOD[4],
                                                    f"{token}-{i}")])])
                except Exception as error:          # pragma: no cover
                    errors.append(error)

            observed = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    observed.append(client.lsn_vector())

            threads = [threading.Thread(target=writer, args=(t, 3))
                       for t in ("wa", "wb")]
            watcher = threading.Thread(target=reader)
            watcher.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stop.set()
            watcher.join()
            assert not errors
            for early, late in zip(observed, observed[1:]):
                assert all(a <= b for a, b in zip(early, late)), \
                    f"non-monotonic publish {early} -> {late}"
