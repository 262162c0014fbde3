"""Policy parsing, precedence, validation, and env plumbing."""

import pytest

from repro.compliance.policy import (VALID_ACTIONS, CompliancePolicy,
                                     PolicyError, parse_rules)
from repro.obs.config import COMPLIANCE_ENV_VARS, compliance_env_overrides


def test_parse_rules():
    assert parse_rules("AdPhone.phone=anonymize, docs.*=drop") == (
        ("AdPhone.phone", "anonymize"), ("docs.*", "drop"))
    assert parse_rules("") == ()
    with pytest.raises(PolicyError):
        parse_rules("AdPhone.phone")


def test_rule_precedence_first_match_wins():
    policy = CompliancePolicy(rules=(("AdPhone.phone", "allow"),
                                     ("AdPhone.*", "drop")))
    assert policy.action_for("AdPhone", "phone") == "allow"
    assert policy.action_for("AdPhone", "ad") == "drop"
    assert policy.action_for("AdEmail", "email") is None


def test_wildcards_and_bare_relation_patterns():
    policy = CompliancePolicy(rules=(("docs", "drop"),      # bare = all cols
                                     ("*.ssn", "redact")))
    assert policy.action_for("docs", "anything") == "drop"
    assert policy.action_for("people", "ssn") == "redact"
    assert policy.action_for("people", "name") is None


def test_validation():
    with pytest.raises(PolicyError):
        CompliancePolicy(default_action="shred")
    with pytest.raises(PolicyError):
        CompliancePolicy(min_confidence=1.5)
    with pytest.raises(PolicyError):
        CompliancePolicy(rules=(("a.b", "shred"),))
    with pytest.raises(PolicyError):
        CompliancePolicy(key="")
    with pytest.raises(PolicyError):
        CompliancePolicy(sample_rows=-1)
    assert set(VALID_ACTIONS) == {"allow", "redact", "anonymize", "drop"}


def test_active_requires_a_non_allow_action():
    assert not CompliancePolicy(enabled=True).active
    assert CompliancePolicy(enabled=True, default_action="redact").active
    assert CompliancePolicy(enabled=True,
                            rules=(("a.b", "drop"),)).active
    assert not CompliancePolicy(enabled=False,
                                default_action="redact").active


def test_with_options():
    policy = CompliancePolicy().with_options(enabled=True,
                                             default_action="anonymize")
    assert policy.enabled and policy.default_action == "anonymize"


def test_env_overrides_parse():
    environ = {
        "REPRO_COMPLIANCE_ENABLED": "1",
        "REPRO_COMPLIANCE_ACTION": "anonymize",
        "REPRO_COMPLIANCE_MIN_CONFIDENCE": "0.7",
        "REPRO_COMPLIANCE_KEY": "secret",
        "REPRO_COMPLIANCE_RULES": "AdPhone.phone=drop",
    }
    overrides, invalid = compliance_env_overrides(environ)
    assert not invalid
    assert overrides["enabled"] is True
    assert overrides["default_action"] == "anonymize"

    policy = CompliancePolicy.from_env(environ)
    assert policy.enabled and policy.key == "secret"
    assert policy.min_confidence == 0.7
    assert policy.action_for("AdPhone", "phone") == "drop"


def test_env_overrides_warn_and_report_unparseable_values():
    with pytest.warns(RuntimeWarning, match="SAMPLE_ROWS='not-a-number'"):
        overrides, invalid = compliance_env_overrides(
            {"REPRO_COMPLIANCE_SAMPLE_ROWS": "not-a-number"})
    assert "sample_rows" not in overrides
    assert invalid == {"sample_rows": "not-a-number"}


@pytest.mark.parametrize("raw", ["ture", "enabled", "2"])
def test_unparseable_enabled_flag_fails_closed(raw):
    # 'ture' used to parse as *disabled*, silently: raw PII published while
    # the operator believed a policy was on
    with pytest.warns(RuntimeWarning, match="REPRO_COMPLIANCE_ENABLED"):
        with pytest.raises(PolicyError, match="enabled="):
            CompliancePolicy.from_env({"REPRO_COMPLIANCE_ENABLED": raw,
                                       "REPRO_COMPLIANCE_ACTION": "redact"})


@pytest.mark.parametrize("raw,enabled", [("1", True), ("TRUE", True),
                                         ("off", False), ("0", False),
                                         ("", False), ("  ", False)])
def test_enabled_flag_spellings(raw, enabled):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = CompliancePolicy.from_env({"REPRO_COMPLIANCE_ENABLED": raw})
    assert policy.enabled is enabled


@pytest.mark.parametrize("variable,raw,named", [
    ("REPRO_COMPLIANCE_ACTION", "anonimize", "anonimize"),          # typo
    ("REPRO_COMPLIANCE_SAMPLE_ROWS", "not-a-number", "sample_rows"),
    ("REPRO_COMPLIANCE_RULES", "AdPhone.phone", "rules"),       # no action
])
def test_from_env_enabled_with_invalid_value_fails_closed(variable, raw, named):
    # a typo'd action under an enabled policy must not silently fall back
    # to 'allow' and publish raw PII — construction refuses instead
    with pytest.warns(RuntimeWarning, match=variable):
        with pytest.raises(PolicyError, match=named):
            CompliancePolicy.from_env({"REPRO_COMPLIANCE_ENABLED": "1",
                                       variable: raw})


def test_from_env_disabled_invalid_value_warns_and_falls_back():
    with pytest.warns(RuntimeWarning,
                      match="REPRO_COMPLIANCE_ACTION='shred'"):
        policy = CompliancePolicy.from_env({
            "REPRO_COMPLIANCE_ACTION": "shred",           # invalid
        })
    assert not policy.enabled
    assert policy.default_action == "allow"


def test_every_compliance_env_var_is_declared():
    assert set(COMPLIANCE_ENV_VARS) == {
        "enabled", "default_action", "min_confidence", "key", "rules",
        "sample_rows", "max_examples"}
    assert all(name.startswith("REPRO_COMPLIANCE_")
               for name in COMPLIANCE_ENV_VARS.values())
