"""ServeConfig.from_env: the serve and compliance tables through the one
``REPRO_*`` reader (set, unset, invalid, typo'd flag)."""

import dataclasses
import warnings

import pytest

from repro.compliance import CompliancePolicy, PolicyError
from repro.obs.config import COMPLIANCE_ENV_VARS, SERVE_ENV_VARS
from repro.serve import ServeConfig

#: field -> (raw that parses, its value, raw the reader must reject)
SERVE_CASES = {
    "checkpoint_every": ("7", 7, "-1"),
    "keep_checkpoints": ("3", 3, "0"),
    "wal_fsync": ("yes", True, "maybe"),
    "max_batch_ops": ("8", 8, "eight"),
    "queue_capacity": ("16", 16, "0"),
    "admission": ("reject", "reject", "maybe"),
    "full_rerun_fraction": ("0.25", 0.25, "1.5"),
    "strategy": ("variational", "variational", "exact"),
    "shards": ("2", 2, "two"),
    "tenant_quota": ("5", 5, "-5"),
    "snapshot_history": ("4", 4, "0"),
}


def test_cases_cover_every_serve_variable_and_no_field_was_added():
    assert set(SERVE_CASES) == set(SERVE_ENV_VARS)
    assert len(dataclasses.fields(ServeConfig)) == 16
    assert len(COMPLIANCE_ENV_VARS) == 7


def test_unset_environment_gives_defaults_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ServeConfig.from_env({}) == ServeConfig()
        # blank counts as unset, as it does for the engine table
        assert ServeConfig.from_env(
            {var: " " for var in SERVE_ENV_VARS.values()}) == ServeConfig()


@pytest.mark.parametrize("field", sorted(SERVE_CASES))
def test_each_serve_variable_honoured(field):
    raw, parsed, _ = SERVE_CASES[field]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = ServeConfig.from_env({SERVE_ENV_VARS[field]: raw})
    assert config == ServeConfig(**{field: parsed})


@pytest.mark.parametrize("field", sorted(SERVE_CASES))
def test_rejected_serve_value_warns_once_and_defaults(field):
    """REPRO_SHARDS=two and REPRO_SERVE_FSYNC=maybe used to vanish without
    a trace; a rejected value (unparseable *or* out of range) now keeps the
    default, leaves every other override alone and says so, once."""
    bad = SERVE_CASES[field][2]
    var = SERVE_ENV_VARS[field]
    other = "queue_capacity" if field != "queue_capacity" else "shards"
    environ = {var: bad, SERVE_ENV_VARS[other]: SERVE_CASES[other][0]}
    with pytest.warns(RuntimeWarning) as caught:
        config = ServeConfig.from_env(environ)
    assert config == ServeConfig(**{other: SERVE_CASES[other][1]})
    assert len(caught) == 1
    message = str(caught[0].message)
    assert message.startswith("ignoring invalid environment override")
    assert f"{var}={bad!r}" in message


def test_compliance_table_rides_along():
    config = ServeConfig.from_env({
        "REPRO_SERVE_STRATEGY": "sampling",
        "REPRO_COMPLIANCE_ENABLED": "on",
        "REPRO_COMPLIANCE_ACTION": "anonymize",
        "REPRO_COMPLIANCE_RULES": "AdPhone.phone=drop",
        "REPRO_COMPLIANCE_MAX_EXAMPLES": "1",
    })
    assert config.strategy == "sampling"
    assert config.compliance == CompliancePolicy(
        enabled=True, default_action="anonymize",
        rules=(("AdPhone.phone", "drop"),), max_examples=1)


def test_invalid_compliance_value_under_a_disabled_policy_warns():
    with pytest.warns(RuntimeWarning,
                      match="REPRO_COMPLIANCE_MIN_CONFIDENCE='1.5'"):
        config = ServeConfig.from_env(
            {"REPRO_COMPLIANCE_MIN_CONFIDENCE": "1.5"})
    assert config == ServeConfig()


@pytest.mark.parametrize("environ", [
    {"REPRO_COMPLIANCE_ENABLED": "ture"},                  # typo'd flag
    {"REPRO_COMPLIANCE_ENABLED": "1",
     "REPRO_COMPLIANCE_ACTION": "anonimize"},              # typo'd action
], ids=["flag", "action"])
def test_serving_refuses_a_misconfigured_compliance_environment(environ):
    with pytest.warns(RuntimeWarning, match="REPRO_COMPLIANCE_"):
        with pytest.raises(PolicyError, match="refusing"):
            ServeConfig.from_env(environ)
