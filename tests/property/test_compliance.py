"""Compliance invariants under hypothesis: the scrub transform is a pure,
deterministic, probability-preserving relabeling; surrogates are stable and
injective; scanning the same data twice yields the same manifest; scan and
publish manifests honour the policy's example, sampling and confidence
bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compliance import (VALID_ACTIONS, Anonymizer, CompliancePolicy,
                              Scanner, scrub_marginals)
from repro.compliance.detectors import DETECTOR_NAMES

# ------------------------------------------------------------------ strategies
plain_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs")),
    min_size=0, max_size=20)

phones = st.builds("555-{:04d}".format, st.integers(0, 9999))
full_phones = st.builds("{:03d}-555-{:04d}".format,
                        st.integers(200, 799), st.integers(0, 9999))
emails = st.builds("u{}@host{}.example".format,
                   st.integers(0, 9999), st.integers(0, 99))
ssns = st.builds("{:03d}-{:02d}-{:04d}".format, st.integers(100, 699),
                 st.integers(10, 99), st.integers(1000, 9999))

cells = st.one_of(plain_text, phones, full_phones, emails, ssns,
                  st.integers(-1000, 1000))

rows2 = st.lists(st.tuples(plain_text, cells), min_size=0, max_size=12)

marginal_maps = st.dictionaries(
    keys=st.tuples(st.sampled_from(["R", "S"]),
                   st.tuples(plain_text, cells)),
    values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=0, max_size=15)

ragged_marginal_maps = st.dictionaries(
    keys=st.tuples(st.sampled_from(["R", "S"]),
                   st.lists(cells, min_size=0, max_size=3).map(tuple)),
    values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=0, max_size=15)

policies = st.builds(
    CompliancePolicy, enabled=st.just(True),
    default_action=st.sampled_from(VALID_ACTIONS),
    min_confidence=st.sampled_from([0.0, 0.5, 0.9]),
    rules=st.lists(st.tuples(st.sampled_from(["R.col0", "S", "*.col1"]),
                             st.sampled_from(VALID_ACTIONS)),
                   max_size=2).map(tuple),
    sample_rows=st.integers(0, 4), max_examples=st.integers(0, 3))

ANON = CompliancePolicy(enabled=True, default_action="anonymize",
                        min_confidence=0.5)


# ------------------------------------------------------------------ surrogates
@settings(max_examples=80, deadline=None)
@given(detector=st.sampled_from(DETECTOR_NAMES + ("other",)),
       value=st.text(min_size=1, max_size=40))
def test_surrogates_are_stable(detector, value):
    assert Anonymizer("k").surrogate(detector, value) \
        == Anonymizer("k").surrogate(detector, value)


@settings(max_examples=50, deadline=None)
@given(detector=st.sampled_from(DETECTOR_NAMES),
       values=st.lists(st.text(min_size=1, max_size=30), min_size=2,
                       max_size=20, unique=True))
def test_surrogates_never_collide_across_distinct_raws(detector, values):
    anonymizer = Anonymizer()
    surrogates = [anonymizer.surrogate(detector, value) for value in values]
    assert len(set(surrogates)) == len(values)
    # raw values never survive into their own surrogate space verbatim
    for value, surrogate in zip(values, surrogates):
        assert surrogate != value


# --------------------------------------------------------------------- scanner
@settings(max_examples=50, deadline=None)
@given(rows=rows2)
def test_scanning_is_deterministic(rows):
    first = Scanner().scan_rows("t", ("a", "b"), rows)
    second = Scanner().scan_rows("t", ("a", "b"), rows)
    assert first == second
    assert first.rows_scanned == len(rows)


@settings(max_examples=50, deadline=None)
@given(rows=rows2)
def test_scan_examples_never_contain_detected_raw_values(rows):
    manifest = Scanner().scan_rows("t", ("a", "b"), rows)
    for report in manifest:
        for example in report.examples:
            # masking keeps at most the first character of the raw value
            assert not any(example == str(cell)
                           for row in rows for cell in row
                           if len(str(cell)) > 1)


def _rows_read(rows, limit):
    """Rows a prefix scan reads: all of them, or under ``limit`` just
    enough for every column to reach ``limit`` cells."""
    width = max(len(row) for row in rows)
    filled = [0] * width
    for read, row in enumerate(rows, start=1):
        for index in range(len(row)):
            filled[index] += 1
        if limit and read >= limit and min(filled, default=limit) >= limit:
            return read
    return len(rows)


@settings(max_examples=80, deadline=None)
@given(marginals=ragged_marginal_maps, policy=policies)
def test_scan_and_publish_manifests_honour_the_policy(marginals, policy):
    scan = Scanner(policy).scan_marginals(marginals)
    _, publish = scrub_marginals(marginals, None, policy)
    by_relation = {}
    for relation, values in marginals:
        by_relation.setdefault(relation, []).append(values)
    assert scan.rows_scanned == sum(
        _rows_read(rows, policy.sample_rows) for rows in by_relation.values())
    assert publish.rows_scanned == len(marginals)
    for report in scan.reports:
        assert len(report.examples) <= policy.max_examples
        assert not policy.sample_rows \
            or report.rows_scanned <= policy.sample_rows
    for report in publish.reports:
        assert len(report.examples) <= policy.max_examples
        assert report.confidence >= policy.min_confidence


# ----------------------------------------------------------------- the scrub
@settings(max_examples=60, deadline=None)
@given(marginals=marginal_maps)
def test_scrub_preserves_probabilities_bit_identically(marginals):
    scrubbed, manifest = scrub_marginals(marginals, None, ANON)
    assert sorted(map(repr, scrubbed.values())) \
        == sorted(map(repr, marginals.values()))
    assert len(scrubbed) == len(marginals)       # anonymize is injective
    assert manifest.rows_scanned == len(marginals)


@settings(max_examples=60, deadline=None)
@given(marginals=marginal_maps)
def test_scrub_is_pure(marginals):
    once = scrub_marginals(marginals, None, ANON)
    twice = scrub_marginals(marginals, None, ANON)
    assert once == twice


@settings(max_examples=60, deadline=None)
@given(marginals=marginal_maps)
def test_scrub_preserves_acceptance_decisions(marginals):
    """Acceptance at any threshold commutes with the scrub: accepting then
    scrubbing equals scrubbing then accepting, at every probability cut."""
    scrubbed, _ = scrub_marginals(marginals, None, ANON)
    key_map = dict(zip(marginals, scrubbed))     # order-preserving relabel
    for threshold in (0.0, 0.25, 0.5, 0.9):
        raw_accepted = {key for key, p in marginals.items()
                        if p >= threshold}
        scrub_accepted = {key for key, p in scrubbed.items()
                          if p >= threshold}
        assert scrub_accepted == {key_map[key] for key in raw_accepted}


@settings(max_examples=40, deadline=None)
@given(marginals=marginal_maps)
def test_disabled_policy_is_identity(marginals):
    scrubbed, manifest = scrub_marginals(marginals, None,
                                         CompliancePolicy(enabled=True))
    assert scrubbed == dict(marginals)
    assert manifest.actions() == {}
