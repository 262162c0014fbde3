"""End-to-end compliance over the serving layer, on both backends.

The ads application (``AdsConfig(pii=True)``) publishes contact phone and
email relations, so these tests exercise the real pipeline: corpus with
seeded PII → extraction → learning → published snapshots scrubbed at
publish time, while WAL + checkpoints keep the raw ground truth.
"""

import pytest

from repro.apps import ads
from repro.compliance import CompliancePolicy, scrub_marginals
from repro.corpus.ads import AdsConfig, generate
from repro.nlp.pipeline import Document
from repro.serve import KBClient, ServeConfig, add_documents
from tests.compliance.reads import ruled_actions

from .conftest import RUN_KWARGS

SCHEMAS = {"AdPhone": ("ad", "phone"), "AdEmail": ("ad", "email")}

pytestmark = pytest.mark.parametrize("shards", [1, 2])


@pytest.fixture(scope="module")
def corpus():
    return generate(AdsConfig(num_ads=8, forum_posts_per_ad=0.75, pii=True),
                    seed=5)


def raw_pii_values(corpus):
    """Every seeded raw PII string: short phones, full phones, emails."""
    values = {phone for _ad, phone in corpus.truth["ad_phone"]}
    values |= {phone for _ad, phone in corpus.truth["ad_contact_phone"]}
    values |= {email for _ad, email in corpus.truth["ad_email"]}
    return values


def flatten_keys(marginals):
    return " ".join(str(cell) for _rel, values in marginals
                    for cell in values)


def make_client(tmp_path, corpus, policy, shards, name="kb"):
    config = ServeConfig(checkpoint_every=0, refresh_samples=40,
                         refresh_burn_in=10, compliance=policy,
                         shards=shards)
    return KBClient.create(tmp_path / name, ads.make_serve_factory(),
                           ads.serve_bootstrap_ops(corpus), config=config,
                           run_kwargs=RUN_KWARGS)


def anonymize_policy(**changes):
    options = dict(enabled=True, default_action="anonymize",
                   min_confidence=0.5)
    options.update(changes)
    return CompliancePolicy(**options)


class TestPublishedViewsAreScrubbed:
    def test_published_pii_is_anonymized(self, tmp_path, corpus, shards):
        with make_client(tmp_path, corpus, anonymize_policy(),
                         shards) as client:
            snapshot = client.snapshot()
            assert snapshot.output_tuples("AdPhone")   # phones ARE published
            flat = flatten_keys(snapshot.marginals)
            for raw in raw_pii_values(corpus):
                assert raw not in flat

            # the manifest reports every seeded PII column with its action
            manifest = client.compliance_manifest()
            assert manifest is not None
            detected = set(manifest.detected_columns())
            assert ("AdPhone", "phone") in detected
            assert ("AdEmail", "email") in detected
            assert ruled_actions(manifest)[("AdPhone", "phone")] == "anonymize"

            # versioned reads resolve to the scrubbed view too
            past = client.snapshot_at(client.lsn_vector())
            assert flatten_keys(past.marginals) == flat
            assert past.manifest is not None

    def test_ingested_deltas_are_scrubbed_on_next_publish(
            self, tmp_path, corpus, shards):
        with make_client(tmp_path, corpus, anonymize_policy(),
                         shards) as client:
            client.ingest([add_documents([Document(
                "ad9000",
                "new loft , $900 . call 555-301-0187 "
                "or mail zed@late.example.net .")])])
            snapshot = client.flush()
            flat = flatten_keys(snapshot.marginals)
            assert "555-301-0187" not in flat
            assert "zed@late.example.net" not in flat
            assert snapshot.manifest is not None

    def test_scan_audits_raw_store_including_documents(
            self, tmp_path, corpus, shards):
        with make_client(tmp_path, corpus, anonymize_policy(),
                         shards) as client:
            audit = client.scan()
            assert audit.rows_scanned > 0
            detectors = {report.detector for report in audit if report.hits}
            assert {"email", "phone", "ssn"} <= detectors
            # the seeded SSNs live in forum documents, never in a
            # published relation
            ssn_hits = [r for r in audit
                        if r.detector == "ssn" and r.hits]
            assert any(r.relation == "documents" for r in ssn_hits)
            published = client.snapshot().marginals
            for _doc, ssn in corpus.metadata["pii_ssns"]:
                assert ssn not in flatten_keys(published)


class TestAnonymizationPreservesInference:
    def test_marginals_bit_identical_pre_post_anonymization(
            self, tmp_path, corpus, shards):
        """The headline guarantee: scrubbing relabels keys and copies
        probabilities — it never perturbs inference.  A raw service and a
        scrubbed service built from the same ops publish marginal *values*
        that agree bit for bit, related by the pure scrub transform."""
        policy = anonymize_policy()
        with make_client(tmp_path, corpus, CompliancePolicy(),
                         shards, name="raw") as client:
            raw = dict(client.snapshot().marginals)
            raw_accepted = client.snapshot().output_tuples("AdPhone")
            threshold = client.snapshot().threshold
        with make_client(tmp_path, corpus, policy,
                         shards, name="scrubbed") as client:
            scrubbed = dict(client.snapshot().marginals)
            scrubbed_accepted = client.snapshot().output_tuples("AdPhone")

        expected, _manifest = scrub_marginals(raw, SCHEMAS, policy)
        assert scrubbed == expected              # keys AND probabilities

        # acceptance decisions survive: same count, and exactly the
        # transform of the raw accepted set
        expected_accepted = {
            values for (rel, values), probability in expected.items()
            if rel == "AdPhone" and probability >= threshold}
        assert scrubbed_accepted == expected_accepted
        assert len(scrubbed_accepted) == len(raw_accepted)


class TestRawTruthSurvivesUnderneath:
    def test_redaction_never_leaks_and_recovery_reproduces_raw(
            self, tmp_path, corpus, shards):
        """Published views under ``redact`` contain class markers, never
        raw PII — while checkpoint + WAL recovery rebuilds the raw store
        bit-identically (the scrub lives only at the publish boundary)."""
        policy = CompliancePolicy(enabled=True, default_action="redact",
                                  min_confidence=0.5)
        config = ServeConfig(checkpoint_every=0, refresh_samples=40,
                             refresh_burn_in=10, compliance=policy,
                             shards=shards)
        client = KBClient.create(tmp_path / "kb", ads.make_serve_factory(),
                                 ads.serve_bootstrap_ops(corpus),
                                 config=config, run_kwargs=RUN_KWARGS)
        with client:
            before_view = dict(client.snapshot().marginals)
            before_audit = client.scan()
            flat = flatten_keys(before_view)
            assert "[REDACTED:" in flat
            for raw in raw_pii_values(corpus):
                assert raw not in flat
            client.checkpoint()

        reopened = KBClient.open(tmp_path / "kb", ads.make_serve_factory(),
                                 config=config, run_kwargs=RUN_KWARGS)
        with reopened:
            # raw store recovered bit-identically: the audit scan (which
            # reads raw relations) reports exactly the same manifest
            assert reopened.scan() == before_audit
            # and the republished scrubbed view matches too
            assert dict(reopened.snapshot().marginals) == before_view
            assert reopened.compliance_manifest() is not None
