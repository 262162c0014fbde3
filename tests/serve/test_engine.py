"""ServeEngine: the deterministic ingest-batch -> KB-version state machine."""

import pytest

from repro.serve import (AddRules, CheckpointManager, RemoveDocuments,
                         ServeConfig, ServeEngine, add_documents, add_rows,
                         remove_rows)
from tests.serve.conftest import (RUN_KWARGS, bootstrap_ops, keys_for_token,
                                  make_app_factory)


def fresh_engine(**config_changes):
    config = ServeConfig(refresh_samples=40, refresh_burn_in=10,
                         **config_changes)
    return ServeEngine(make_app_factory(), config=config,
                       run_kwargs=RUN_KWARGS)


def round_trip(engine, directory, lsn=1):
    """Checkpoint ``engine`` into ``directory`` and restore it from disk."""
    manager = CheckpointManager(directory)
    manager.save(engine.checkpoint_payload(), lsn=lsn, database=engine.app.db)
    return ServeEngine.restore(manager.load(), make_app_factory(),
                               config=engine.config, run_kwargs=RUN_KWARGS)


@pytest.fixture(scope="module")
def booted():
    engine = fresh_engine()
    snapshot = engine.bootstrap(bootstrap_ops())
    return engine, snapshot


class TestBootstrap:
    def test_publishes_version_zero(self, booted):
        _, snapshot = booted
        assert snapshot.version == 0
        assert snapshot.lsn == 0
        assert snapshot.refresh == "full_run"
        # four documents, one good + one bad mention each
        assert len(snapshot) == 8

    def test_supervised_marginals_split(self, booted):
        _, snapshot = booted
        accepted = snapshot.output_tuples("GoodName")
        values = {v[0] for v in accepted}
        assert any("apple" not in v and ":1" in v for v in values) or accepted
        # good mentions (positions 1) accepted, bad (position 4) rejected
        top = snapshot.top("GoodName", k=3)
        assert all(probability > 0.5 for _, probability in top)

    def test_double_bootstrap_rejected(self, booted):
        engine, _ = booted
        with pytest.raises(RuntimeError, match="already bootstrapped"):
            engine.bootstrap([])

    def test_apply_before_bootstrap_rejected(self):
        engine = fresh_engine()
        with pytest.raises(RuntimeError, match="bootstrap the engine"):
            engine.apply_batch([], lsn=1)


class TestSnapshotReads:
    def test_marginal_lookup_and_default(self, booted):
        _, snapshot = booted
        key = next(iter(snapshot.marginals))
        assert snapshot.marginal(key) == snapshot.marginals[key]
        assert snapshot.marginal(("GoodName", ("nope",)), default=0.5) == 0.5
        with pytest.raises(KeyError):
            snapshot.marginal(("GoodName", ("nope",)))

    def test_relations_and_thresholds(self, booted):
        _, snapshot = booted
        assert snapshot.relations() == ["GoodName"]
        assert snapshot.output_tuples("GoodName", threshold=0.0) \
            >= snapshot.output_tuples("GoodName", threshold=1.0)


class TestApplyBatch:
    def test_document_arrival_adds_variables(self):
        engine = fresh_engine()
        before = engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch(
            [add_documents([("new", "the grape and the blight sat there .")])],
            lsn=1)
        assert after.version == 1 and after.lsn == 1
        assert after.refresh in ("sampling", "variational")
        new_keys = set(after.marginals) - set(before.marginals)
        assert len(new_keys) == 2

    def test_untouched_marginals_bit_identical(self):
        engine = fresh_engine(strategy="sampling")
        before = engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch(
            [add_documents([("new", "the melon sat there .")])], lsn=1)
        for key, probability in before.marginals.items():
            assert after.marginals[key] == probability

    def test_document_removal(self):
        engine = fresh_engine()
        before = engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch([RemoveDocuments(("d3",))], lsn=1)
        gone = set(before.marginals) - set(after.marginals)
        assert len(gone) == 2                    # d3's two mentions retracted
        assert all("d3" in str(key) for key in gone)

    def test_supervision_retraction(self):
        # variational refresh: an unclamped variable's mean-field marginal
        # is strictly inside (0, 1), so retraction is unambiguous
        engine = fresh_engine(strategy="variational")
        engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch(
            [remove_rows("GoodList", [("apple",)])], lsn=1)
        apple = keys_for_token(engine.app, "apple")
        assert apple
        # no longer clamped to 1.0; the learned feature keeps it high
        assert all(0.5 < after.marginals[key] < 1.0 for key in apple)

    def test_empty_batch_publishes_unchanged(self):
        engine = fresh_engine()
        before = engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch([], lsn=1)
        assert after.refresh == "none"
        assert after.version == 1
        assert dict(after.marginals) == dict(before.marginals)

    def test_forced_strategies(self):
        for strategy in ("sampling", "variational"):
            engine = fresh_engine(strategy=strategy)
            engine.bootstrap(bootstrap_ops())
            after = engine.apply_batch(
                [add_documents([("new", "the fig sat there .")])], lsn=1)
            assert after.refresh == strategy

    def test_large_delta_falls_back_to_full_run(self):
        engine = fresh_engine(full_rerun_fraction=0.001)
        engine.bootstrap(bootstrap_ops())
        after = engine.apply_batch(
            [add_documents([("new", "the fig sat there .")])], lsn=1)
        assert after.refresh == "full_run"


class TestRuleDeltas:
    def test_rule_delta_triggers_rebuild(self):
        engine = fresh_engine()
        before = engine.bootstrap(bootstrap_ops())
        rules = ("ExtraGood(token text).\n"
                 "GoodName_Ev(m, true) :- "
                 "NameMention(s, m, t, p), ExtraGood(t).")
        rebuilt = engine.apply_batch([AddRules(rules)], lsn=1)
        assert rebuilt.refresh == "full_run"
        # the data survived the rebuild
        assert set(rebuilt.marginals) == set(before.marginals)
        # the new relation is live: supervising 'fig' clamps it to true
        after = engine.apply_batch([add_rows("ExtraGood", [("fig",)])], lsn=2)
        fig = keys_for_token(engine.app, "fig")
        assert fig and all(after.marginals[key] == 1.0 for key in fig)

    def test_rebuild_does_not_double_supervision(self):
        engine = fresh_engine()
        engine.bootstrap(bootstrap_ops())
        before = engine.app.grounder.state_dict()["evidence_votes"]
        engine.apply_batch([AddRules("ExtraGood(token text).")], lsn=1)
        after = engine.app.grounder.state_dict()["evidence_votes"]
        # re-extraction reproduces exactly the votes one grounding pass
        # produces (copying evidence relations over would double them)
        assert after == before
        assert all(positive + negative == 1
                   for _values, positive, negative in after["GoodName"])


class TestOneRefreshPath:
    """The engine's refresh and ``DeepDive.run_incremental`` are the same
    function (``repro.grounding.refresh``) behind two thin callers: given
    the same seed and sampling arguments they publish the same bits."""

    def test_engine_and_run_incremental_publish_identical_marginals(
            self, monkeypatch):
        from repro import Document
        from repro.serve.engine import DEFAULT_RUN_KWARGS

        # the engine seeds per version; pin it to run_incremental's seed
        monkeypatch.setattr(ServeEngine, "_refresh_seed",
                            lambda self: self.app.seed + 7)
        engine = fresh_engine(strategy="sampling", radius=1)
        engine.bootstrap(bootstrap_ops())

        app = make_app_factory()("")
        for op in bootstrap_ops():
            if hasattr(op, "documents"):
                app.load_documents([Document(*d) for d in op.documents])
            else:
                app.add_rows(op.relation, op.rows)
        app.run(**{**DEFAULT_RUN_KWARGS, **RUN_KWARGS})

        deltas = [
            ("n0", "the grape and the blight sat there ."),
            ("n1", "the melon sat there ."),
        ]
        for lsn, doc in enumerate(deltas, start=1):
            served = engine.apply_batch([add_documents([doc])], lsn=lsn)
            app.load_documents([Document(*doc)])
            direct = app.run_incremental(threshold=0.7, radius=1,
                                         num_samples=40, burn_in=10)
            assert served.refresh == "sampling"
            assert dict(served.marginals) == direct.marginals
            assert list(served.marginals) == list(direct.marginals)
        # ... and hold the same chain state afterwards
        served, direct = engine.app.chain_state, app.chain_state
        assert served.keys == direct.keys
        for name in ("world", "marginals", "mu"):
            assert (getattr(served, name).tobytes()
                    == getattr(direct, name).tobytes())

    def test_engine_keeps_no_chain_state_of_its_own(self):
        engine = fresh_engine()
        engine.bootstrap(bootstrap_ops())
        for name in ("_world", "_marginals", "_mu"):
            assert not hasattr(engine, name)
        with pytest.raises(AttributeError):
            engine.app.chain_state = None            # no setter
        with pytest.raises(TypeError):
            engine.app.adopt(engine.app.db, engine.app.grounder)


class TestCheckpointRestore:
    def test_restore_is_bit_identical(self, tmp_path):
        engine = fresh_engine()
        engine.bootstrap(bootstrap_ops())
        published = engine.apply_batch(
            [add_documents([("new", "the grape sat there .")])], lsn=1)

        restored = round_trip(engine, tmp_path)
        for name in ("world", "marginals", "mu"):
            assert (getattr(restored.app.chain_state, name).tobytes()
                    == getattr(engine.app.chain_state, name).tobytes())
        snapshot = restored.current_snapshot(lsn=1)
        assert snapshot.version == engine.version
        assert dict(snapshot.marginals) == dict(published.marginals)

        # and the *next* batch behaves identically on both engines
        batch = [add_documents([("n2", "the melon and the decay sat there .")])]
        original_next = engine.apply_batch(batch, lsn=2)
        restored_next = restored.apply_batch(batch, lsn=2)
        assert dict(original_next.marginals) == dict(restored_next.marginals)

    def test_checkpoint_document_is_json_with_arrays_in_segments(
            self, tmp_path):
        import json
        engine = fresh_engine()
        engine.bootstrap(bootstrap_ops())
        manager = CheckpointManager(tmp_path)
        info = manager.save(engine.checkpoint_payload(), lsn=0,
                            database=engine.app.db)
        document = json.loads(info.path.read_text())
        assert document["engine_version"] == 0
        # graph columns and chain state are segment references, not lists
        for table in (*(document["graph"][name] for name in
                        ("variables", "weights", "factors", "edges")),
                      document["state"]):
            assert set(table) == {"$array_table"}
            for digest in table["$array_table"]["segments"]:
                assert (manager.segments_dir / f"seg-{digest}.seg").exists()

    def test_rule_deltas_survive_restore(self, tmp_path):
        engine = fresh_engine()
        engine.bootstrap(bootstrap_ops())
        engine.apply_batch([AddRules("ExtraGood(token text).")], lsn=1)
        restored = round_trip(engine, tmp_path)
        assert restored.rule_deltas == engine.rule_deltas
        assert "ExtraGood" in restored.app.db
