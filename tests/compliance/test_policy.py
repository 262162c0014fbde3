"""Policy rule shape, precedence and validation."""

import pytest

from repro.compliance.policy import (VALID_ACTIONS, CompliancePolicy,
                                     PolicyError)


@pytest.mark.parametrize("rules", [
    ("AdPhone.phone", "drop"),           # one flat pair, not a tuple of pairs
    ("ab", "cd"),                        # used to split into characters
    "AdPhone.phone=drop",                # the string grammar is not accepted
    (("AdPhone.phone", "drop", "x"),),
    (("AdPhone.phone", 3),),
], ids=["flat-pair", "flat-short-pair", "string", "triple", "non-string"])
def test_rules_must_be_string_pairs(rules):
    with pytest.raises(PolicyError, match=r"\(pattern, action\) pair"):
        CompliancePolicy(rules=rules)


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
