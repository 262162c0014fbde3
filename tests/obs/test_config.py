"""EngineConfig: validation, env fallback parsing, and immutability."""

import dataclasses
import os
import warnings

import pytest

from repro.datastore import query as Q
from repro.obs import ENV_VARS, VALID_BACKENDS, EngineConfig


class TestDefaults:
    def test_default_fields(self):
        config = EngineConfig()
        assert config.datastore_backend == "auto"
        assert config.trace is False
        assert config.memory_budget is None
        assert config.segment_rows == 8192
        assert len(dataclasses.fields(EngineConfig)) == 4

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.datastore_backend = "row"

    def test_with_options(self):
        config = EngineConfig().with_options(datastore_backend="columnar",
                                             trace=True)
        assert config.datastore_backend == "columnar"
        assert config.trace is True
        # the original is untouched
        assert EngineConfig().datastore_backend == "auto"

    def test_bench_harness_construction_still_works(self):
        # bench/harness.py builds exactly this; bench/ is frozen
        config = EngineConfig(datastore_backend="columnar",
                              memory_budget=1 << 20, segment_rows=512)
        assert config.datastore_backend == "columnar"


class TestValidation:
    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(datastore_backend="gpu")

    @pytest.mark.parametrize("removed", [
        {"gibbs_engine": "chromatic"}, {"pool_warm": True},
        {"columnar_threshold": 48}, {"numa_sockets": 2}, {"workers": 2},
        {"parallel_mode": "fork"}, {"pool_min_work": 0},
        {"pool_owner": "shard-00"}])
    def test_removed_fields_are_type_errors(self, removed):
        with pytest.raises(TypeError):
            EngineConfig(**removed)

    def test_valid_constants(self):
        assert set(VALID_BACKENDS) == {"auto", "row", "columnar"}


#: One accepted and one rejected raw value per remaining variable.
ENV_CASES = {
    "datastore_backend": ("columnar", "columnar", "quantum"),
    "trace": ("YES", True, "maybe"),
    "memory_budget": ("4096", 4096, "4k"),
    "segment_rows": ("64", 64, "0"),
}


class TestFromEnv:
    def test_cases_cover_every_variable(self):
        assert set(ENV_CASES) == set(ENV_VARS)

    def test_empty_environ_gives_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EngineConfig.from_env({}) == EngineConfig()

    @pytest.mark.parametrize("field", sorted(ENV_CASES))
    def test_each_variable_honoured(self, field):
        raw, parsed, _ = ENV_CASES[field]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = EngineConfig.from_env({ENV_VARS[field]: raw})
        assert config == EngineConfig(**{field: parsed})

    def test_all_variables_together(self):
        env = {ENV_VARS[f]: raw for f, (raw, _, _) in ENV_CASES.items()}
        assert EngineConfig.from_env(env) == EngineConfig(
            **{f: parsed for f, (_, parsed, _) in ENV_CASES.items()})

    @pytest.mark.parametrize("field", sorted(ENV_CASES))
    def test_rejected_value_warns_once_and_defaults(self, field):
        bad = ENV_CASES[field][2]
        var = ENV_VARS[field]
        with pytest.warns(RuntimeWarning) as caught:
            config = EngineConfig.from_env({var: bad})
        assert config == EngineConfig()
        assert len(caught) == 1
        assert var in str(caught[0].message)
        assert repr(bad) in str(caught[0].message)

    def test_one_bad_variable_does_not_discard_the_good_ones(self):
        env = {ENV_VARS["memory_budget"]: "4k",
               ENV_VARS["segment_rows"]: "64"}
        with pytest.warns(RuntimeWarning, match="REPRO_MEMORY_BUDGET='4k'"):
            config = EngineConfig.from_env(env)
        assert config == EngineConfig(segment_rows=64)

    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_trace_truthy(self, value):
        assert EngineConfig.from_env({ENV_VARS["trace"]: value}).trace

    @pytest.mark.parametrize("value", ["0", "false", "", "off"])
    def test_trace_falsy(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not EngineConfig.from_env({ENV_VARS["trace"]: value}).trace

    def test_empty_value_counts_as_unset(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EngineConfig.from_env(
                {ENV_VARS["segment_rows"]: " "}) == EngineConfig()


class TestDispatchIsolation:
    """Backend dispatch never consults the environment."""

    def test_env_mutation_after_construction_has_no_effect(self, monkeypatch):
        config = EngineConfig(datastore_backend="row")
        monkeypatch.setitem(os.environ,
                            ENV_VARS["datastore_backend"], "columnar")
        assert Q.current_backend(config) == "row"

    def test_process_default_frozen_at_import(self, monkeypatch):
        before = Q.current_backend()
        monkeypatch.setitem(os.environ,
                            ENV_VARS["datastore_backend"], "columnar")
        monkeypatch.setitem(os.environ, ENV_VARS["trace"], "1")
        assert Q.current_backend() == before
        assert Q.active_config().trace is False
