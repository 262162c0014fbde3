"""Anonymizer invariants: stability, injectivity backstop, span rewriting."""

import re

import pytest

from repro.compliance.anonymizer import Anonymizer, SurrogateCollision
from repro.compliance.detectors import Detection, PhoneDetector


def test_surrogates_are_stable_within_and_across_instances():
    a, b = Anonymizer("k1"), Anonymizer("k1")
    assert a.surrogate("phone", "555-0187") == a.surrogate("phone", "555-0187")
    assert a.surrogate("phone", "555-0187") == b.surrogate("phone", "555-0187")


def test_surrogates_depend_on_key():
    assert Anonymizer("k1").surrogate("email", "a@b.co") \
        != Anonymizer("k2").surrogate("email", "a@b.co")


def test_surrogates_depend_on_detector_class():
    a = Anonymizer()
    assert a.surrogate("phone", "457-55-5462") \
        != a.surrogate("ssn", "457-55-5462")


def test_surrogate_shapes():
    a = Anonymizer()
    email = a.surrogate("email", "ann@x.io")
    assert email.startswith("anon.") and email.endswith("@redacted.example")
    assert a.surrogate("phone", "555-0187").startswith("555-")
    # 9xx area numbers are never issued; all 8 remaining digits derived
    ssn = a.surrogate("ssn", "457-55-5462")
    assert re.fullmatch(r"9\d{2}-\d{2}-\d{4}", ssn)
    card = a.surrogate("credit_card", "4111111111111111")
    assert card.startswith("9") and len(card) == 16
    location = a.surrogate("location", "Fairview")
    assert location.startswith("Place-")
    assert len(location) == len("Place-") + 16     # 64-bit token
    assert a.surrogate("anything_else", "x").startswith("anon:")


def test_ssn_surrogates_use_the_full_derived_digit_space():
    # the 8 derived digits must all vary — a fixed prefix would shrink the
    # surrogate space and invite birthday collisions (review finding)
    a = Anonymizer()
    surrogates = {a.surrogate("ssn", f"457-55-{i:04d}") for i in range(200)}
    assert len(surrogates) == 200
    digit_tails = {s.replace("-", "")[1:] for s in surrogates}
    assert len(digit_tails) == 200


def test_distinct_raws_get_distinct_surrogates():
    a = Anonymizer()
    values = [f"555-{i:04d}" for i in range(500)]
    surrogates = {a.surrogate("phone", v) for v in values}
    assert len(surrogates) == len(values)


def test_collision_backstop_raises(monkeypatch):
    a = Anonymizer()
    monkeypatch.setattr(a, "_digest",
                        lambda detector, value: b"\x00" * 32)
    a.surrogate("phone", "555-0001")
    with pytest.raises(SurrogateCollision):
        a.surrogate("phone", "555-0002")
    # re-anonymizing the first value is still fine (stable, not colliding)
    assert a.surrogate("phone", "555-0001")


def test_anonymize_text_replaces_spans():
    a = Anonymizer()
    text = "call 555-0187 or (555) 301-0187 ."
    out = a.anonymize_text(text, PhoneDetector().detect(text))
    assert "555-0187" not in out
    assert "(555) 301-0187" not in out
    assert out.startswith("call ") and out.endswith(" .")
    # deterministic: same input, same output
    assert out == a.anonymize_text(text, PhoneDetector().detect(text))


def test_redact_text_uses_class_markers():
    a = Anonymizer()
    text = "call 555-0187 now"
    out = a.anonymize_text(text, PhoneDetector().detect(text), redact=True)
    assert out == "call [REDACTED:phone] now"


def test_overlapping_detections_keep_earliest_then_longest():
    a = Anonymizer()
    text = "xx392-555-0187yy"
    detections = [
        Detection("phone", "392-555-0187", 2, 14, 0.9),
        Detection("phone", "555-0187", 6, 14, 0.6),     # same span's tail
    ]
    out = a.anonymize_text(text, detections)
    assert out == "xx" + a.surrogate("phone", "392-555-0187") + "yy"
