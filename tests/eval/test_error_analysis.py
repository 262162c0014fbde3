"""Tests for the error-analysis document."""

from repro.eval import (CAUSE_BAD_WEIGHTS, CAUSE_INSUFFICIENT_FEATURES,
                        CAUSE_MISSING_CANDIDATE, FeatureStat, build_report,
                        diagnose_miss)


def simple_report(extractions, truth, sample_size=100):
    truth_set = set(truth)
    return build_report(
        extractions=extractions,
        truth=truth_set,
        mark_extraction=lambda item: item in truth_set,
        bucket_failure=lambda item: "generic-failure",
        sample_size=sample_size,
    )


class TestBuildReport:
    def test_perfect_extraction(self):
        report = simple_report({"a", "b"}, {"a", "b"})
        assert report.precision.precision == 1.0
        assert report.precision.recall == 1.0
        assert report.failure_buckets == []

    def test_precision_errors_bucketed(self):
        report = simple_report({"a", "wrong1", "wrong2"}, {"a", "b"})
        assert report.top_bucket().tag == "generic-failure"
        assert report.top_bucket().count == 3  # 2 wrong + 1 missed

    def test_sampling_caps_work(self):
        extractions = {f"e{i}" for i in range(500)}
        report = simple_report(extractions, extractions, sample_size=50)
        assert len(report.precision_sample) == 50

    def test_buckets_sorted_descending(self):
        truth = {"t"}
        extractions = {"w1", "w2", "w3"}
        report = build_report(
            extractions=extractions, truth=truth,
            mark_extraction=lambda item: False,
            bucket_failure=lambda item: "big" if item != "w3" else "small",
        )
        assert [b.tag for b in report.failure_buckets][0] == "big"

    def test_feature_stats_in_render(self):
        report = build_report(
            extractions={"a"}, truth={"a"},
            mark_extraction=lambda item: True,
            bucket_failure=lambda item: "x",
            feature_stats=[FeatureStat("phrase:and his wife", 2.5, 100)],
        )
        assert "phrase:and his wife" in report.render()

    def test_checksum_stable(self):
        r1 = simple_report({"a"}, {"a"})
        r2 = simple_report({"a"}, {"a"})
        assert r1.checksum == r2.checksum

    def test_checksum_changes_with_data(self):
        r1 = simple_report({"a"}, {"a"})
        r2 = simple_report({"b"}, {"b"})
        assert r1.checksum != r2.checksum


class TestFeatureStat:
    def test_undertrained_flag(self):
        assert FeatureStat("f", 3.0, 2).undertrained
        assert not FeatureStat("f", 3.0, 50).undertrained
        assert not FeatureStat("f", 0.1, 2).undertrained


class TestDiagnoseMiss:
    def test_missing_candidate(self):
        assert diagnose_miss("x", set(), lambda item: 0) == CAUSE_MISSING_CANDIDATE

    def test_insufficient_features(self):
        assert diagnose_miss("x", {"x"}, lambda item: 1) == CAUSE_INSUFFICIENT_FEATURES

    def test_bad_weights(self):
        assert diagnose_miss("x", {"x"}, lambda item: 5) == CAUSE_BAD_WEIGHTS

