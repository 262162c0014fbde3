"""KBClient: one facade over single and sharded backends."""

import pytest

from repro.serve import (KBClient, KBService, ServeConfig, ShardedKBService,
                         add_documents, add_rows)

from .conftest import GOOD, RUN_KWARGS, bootstrap_ops, make_app_factory


def fast_config(**overrides):
    options = dict(checkpoint_every=0, refresh_samples=40, refresh_burn_in=10)
    options.update(overrides)
    return ServeConfig(**options)


def create_client(tmp_path, **overrides):
    return KBClient.create(tmp_path / "kb", make_app_factory(),
                           bootstrap_ops(), config=fast_config(**overrides),
                           run_kwargs=RUN_KWARGS)


class TestBackendSelection:
    def test_default_is_single_shard(self, tmp_path):
        with create_client(tmp_path) as client:
            assert not client.sharded
            assert isinstance(client.service, KBService)
            assert ShardedKBService.read_manifest(tmp_path / "kb") is None

    def test_config_shards_selects_sharded(self, tmp_path):
        with create_client(tmp_path, shards=2) as client:
            assert client.sharded
            assert isinstance(client.service, ShardedKBService)

    def test_shard_count_comes_only_from_config(self, tmp_path):
        with pytest.raises(TypeError):
            KBClient.create(tmp_path / "kb", make_app_factory(),
                            bootstrap_ops(), config=fast_config(),
                            run_kwargs=RUN_KWARGS, shards=2)
        with pytest.raises(TypeError):
            ShardedKBService.create(tmp_path / "kb", make_app_factory(),
                                    bootstrap_ops(),
                                    config=fast_config(shards=2),
                                    run_kwargs=RUN_KWARGS, vnodes=8)

    def test_open_sniffs_the_layout(self, tmp_path):
        with create_client(tmp_path, shards=2):
            pass
        with KBClient.open(tmp_path / "kb", make_app_factory(),
                           config=fast_config(shards=2),
                           run_kwargs=RUN_KWARGS) as client:
            assert client.sharded
        with create_client(tmp_path / "single"):
            pass
        with KBClient.open(tmp_path / "single" / "kb", make_app_factory(),
                           config=fast_config(),
                           run_kwargs=RUN_KWARGS) as client:
            assert not client.sharded


class TestUniformSurface:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_reads_are_backend_agnostic(self, tmp_path, shards):
        with create_client(tmp_path, shards=shards) as client:
            snapshot = client.snapshot()
            assert len(client.lsn_vector()) == shards
            accepted = client.query("GoodName")
            assert accepted == snapshot.output_tuples("GoodName")
            key = next(iter(snapshot.marginals))
            assert client.marginal(key) == snapshot.marginal(key)
            assert client.top("GoodName", 3) == snapshot.top("GoodName", 3)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ingest_flush_checkpoint_round_trip(self, tmp_path, shards):
        with create_client(tmp_path, shards=shards) as client:
            client.ingest([add_rows("GoodList", [(GOOD[4],)])])
            handle = client.ingest([add_rows("GoodList", [(GOOD[5],)])],
                                   wait=False)
            client.flush()
            assert handle.done
            client.checkpoint()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_snapshot_at_takes_int_or_vector(self, tmp_path, shards):
        with create_client(tmp_path, shards=shards) as client:
            vector = client.lsn_vector()
            assert client.snapshot_at(vector) is not None
            if shards == 1:
                assert client.snapshot_at(vector[0]).lsn == vector[0]
            else:
                with pytest.raises(ValueError):
                    client.snapshot_at(vector[0])

    def test_tenant_requires_sharded_backend(self, tmp_path):
        with create_client(tmp_path) as client:
            with pytest.raises(ValueError):
                client.ingest([add_rows("GoodList", [(GOOD[4],)])],
                              tenant="acme")

    def test_snapshot_history_window_ages_out(self, tmp_path):
        with create_client(tmp_path, snapshot_history=2) as client:
            first = client.lsn_vector()
            for index in range(3):
                client.ingest([add_rows("GoodList",
                                        [(f"tok{index}",)])])
            with pytest.raises(KeyError):
                client.snapshot_at(first)


class TestFacadeRouting:
    def test_client_is_cached_per_service(self, tmp_path):
        with create_client(tmp_path) as client:
            assert client.service.client() is client

    def test_service_has_no_read_methods_of_its_own(self, tmp_path):
        """Reads live on the client (TestUniformSurface); the service's
        deprecated snapshot()/query()/marginal() wrappers are gone."""
        with create_client(tmp_path) as client:
            for removed in ("snapshot", "query", "marginal"):
                assert not hasattr(client.service, removed)

    def test_facade_reads_do_not_warn(self, tmp_path, recwarn):
        import warnings
        with create_client(tmp_path) as client:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                client.snapshot()
                client.query("GoodName")
