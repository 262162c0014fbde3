"""scrub_marginals unit tests: the publish-time transform's contract."""

import pytest

from repro.compliance import (Anonymizer, CompliancePolicy, scrub_marginals,
                              scrub_value)
from tests.compliance.reads import find_report, ruled_actions

SCHEMAS = {"AdPhone": ("ad", "phone"), "AdEmail": ("ad", "email")}

MARGINALS = {
    ("AdPhone", ("ad0", "555-0187")): 0.91,
    ("AdPhone", ("ad1", "555-0188")): 0.13,
    ("AdEmail", ("ad0", "ann@x.io")): 0.77,
    ("AdEmail", ("ad1", "plain text")): 0.42,
}


def anonymize_policy(**changes):
    base = dict(enabled=True, default_action="anonymize", min_confidence=0.5)
    base.update(changes)
    return CompliancePolicy(**base)


def test_probabilities_pass_through_bit_identical():
    scrubbed, _ = scrub_marginals(MARGINALS, SCHEMAS, anonymize_policy())
    assert sorted(scrubbed.values()) == sorted(MARGINALS.values())
    assert len(scrubbed) == len(MARGINALS)


def test_anonymize_rewrites_only_detected_cells():
    scrubbed, manifest = scrub_marginals(MARGINALS, SCHEMAS,
                                         anonymize_policy())
    keys = set(scrubbed)
    # ad ids survive untouched; raw PII is gone
    assert all(values[0] in ("ad0", "ad1") for _r, values in keys)
    flat = " ".join(str(v) for _r, values in keys for v in values)
    assert "555-0187" not in flat and "ann@x.io" not in flat
    # the undetected cell of a mixed column is left alone
    assert ("AdEmail", ("ad1", "plain text")) in keys
    assert {("AdPhone", "phone"), ("AdEmail", "email")} \
        == set(ruled_actions(manifest))
    assert ruled_actions(manifest)[("AdPhone", "phone")] == "anonymize"


def test_anonymize_preserves_join_keys():
    shared = {
        ("R", ("ad0", "555-0187")): 0.9,
        ("S", ("555-0187", "extra")): 0.8,
    }
    scrubbed, _ = scrub_marginals(shared, None, anonymize_policy())
    r_phone = [v[1] for (rel, v) in scrubbed if rel == "R"][0]
    s_phone = [v[0] for (rel, v) in scrubbed if rel == "S"][0]
    assert r_phone == s_phone                   # the join survives


def test_scrub_is_a_pure_function():
    once, manifest_once = scrub_marginals(MARGINALS, SCHEMAS,
                                          anonymize_policy())
    twice, manifest_twice = scrub_marginals(MARGINALS, SCHEMAS,
                                            anonymize_policy())
    assert once == twice
    assert manifest_once == manifest_twice


def test_drop_removes_variables():
    policy = anonymize_policy(rules=(("AdEmail.email", "drop"),))
    scrubbed, manifest = scrub_marginals(MARGINALS, SCHEMAS, policy)
    assert not [k for k in scrubbed if k[0] == "AdEmail"]
    assert len([k for k in scrubbed if k[0] == "AdPhone"]) == 2
    assert ruled_actions(manifest)[("AdEmail", "email")] == "drop"


def test_explicit_rule_scrubs_whole_column_even_undetected():
    policy = CompliancePolicy(enabled=True,
                              rules=(("AdEmail.email", "redact"),))
    scrubbed, manifest = scrub_marginals(MARGINALS, SCHEMAS, policy)
    emails = {v[1] for (rel, v) in scrubbed if rel == "AdEmail"}
    # both cells redacted — the operator ruled the column, detection or not
    assert emails == {"[REDACTED:email]"}
    # the synthetic rule report records the coverage
    report = find_report(manifest, "AdEmail", "email", "rule")
    assert report is None or report.action == "redact"
    assert ruled_actions(manifest)[("AdEmail", "email")] == "redact"


def test_redact_collision_merges_to_max_order_independently():
    policy = CompliancePolicy(enabled=True, default_action="redact",
                              min_confidence=0.5)
    forward = {
        ("R", ("555-0187",)): 0.9,
        ("R", ("555-0188",)): 0.2,
    }
    backward = dict(reversed(list(forward.items())))
    for marginals in (forward, backward):
        scrubbed, _ = scrub_marginals(marginals, None, policy)
        assert set(scrubbed) == {("R", ("[REDACTED:phone]",))}
        # merged keys keep the max probability, whatever the publish order
        assert scrubbed[("R", ("[REDACTED:phone]",))] == 0.9


def test_surrogate_collision_degrades_cell_to_redaction(monkeypatch):
    # force every phone onto one surrogate: the second distinct raw value
    # must degrade to redaction instead of raising out of the publish (a
    # SurrogateCollision escaping here would kill the service apply loop)
    anonymizer = Anonymizer()
    monkeypatch.setattr(anonymizer, "_digest",
                        lambda detector, value: b"\x00" * 32)
    marginals = {
        ("R", ("555-0187",)): 0.4,
        ("R", ("555-0188",)): 0.8,
    }
    scrubbed, _ = scrub_marginals(marginals, None, anonymize_policy(),
                                  anonymizer=anonymizer)
    claimed = anonymizer.surrogate("phone", "555-0187")   # stable re-use
    assert set(scrubbed) == {("R", (claimed,)),
                             ("R", ("[REDACTED:phone]",))}
    assert scrubbed[("R", (claimed,))] == 0.4
    assert scrubbed[("R", ("[REDACTED:phone]",))] == 0.8


def test_min_confidence_gates_detection_driven_scrubbing():
    # 7-digit local phones score 0.6: a 0.95 floor ignores them while
    # emails (0.97) are still scrubbed
    strict = anonymize_policy(min_confidence=0.95)
    scrubbed, manifest = scrub_marginals(MARGINALS, SCHEMAS, strict)
    assert ("AdPhone", ("ad0", "555-0187")) in scrubbed
    assert find_report(manifest, "AdPhone", "phone", "phone") is None
    assert find_report(manifest, "AdEmail", "email", "email").hits == 1
    assert ("AdEmail", ("ad0", "ann@x.io")) not in scrubbed


def test_disabled_or_allow_policy_is_identity():
    scrubbed, manifest = scrub_marginals(
        MARGINALS, SCHEMAS, CompliancePolicy(enabled=True))
    assert scrubbed == dict(MARGINALS)
    assert ruled_actions(manifest) == {}


def test_scrub_value_paths():
    anonymizer = Anonymizer()
    assert scrub_value("x", "allow", "phone", anonymizer) == "x"
    assert scrub_value("555-0187", "redact", "phone", anonymizer) \
        == "[REDACTED:phone]"
    surrogate = scrub_value("555-0187", "anonymize", "phone", anonymizer)
    assert surrogate == anonymizer.surrogate("phone", "555-0187")


def test_shared_anonymizer_registry_spans_calls():
    anonymizer = Anonymizer()
    scrub_marginals(MARGINALS, SCHEMAS, anonymize_policy(),
                    anonymizer=anonymizer)
    assert anonymizer._seen["phone"]           # backstop accumulated


def test_max_examples_zero_keeps_no_publish_example():
    # the publish manifest honours max_examples=0 as the scan does: one
    # tally builds both, so neither keeps a masked example
    policy = CompliancePolicy(enabled=True, default_action="redact",
                              max_examples=0)
    marginals = {("AdEmail", ("ad0", "ann@x.io")): 0.77}
    _, manifest = scrub_marginals(marginals, SCHEMAS, policy)
    report = find_report(manifest, "AdEmail", "email", "email")
    assert report.hits == 1 and report.action == "redact"
    assert report.examples == ()
