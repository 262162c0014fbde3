"""The error-analysis document (paper Section 5.2).

"The first step in this process is when an engineer produces an error
analysis.  This is a strongly stylized document" containing the measured
precision and recall, an enumeration of failure-mode buckets with counts,
and for the top buckets the underlying reason DeepDive made a mistake --
plus commodity statistics, checksums, and per-feature weight/observation
summaries that do not require manual work.

The manual steps (marking ~100 extractions, tagging failure modes) are
modelled as callables so tests and benchmarks can plug in oracles while real
users plug in Mindtagger-style annotation sessions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.eval.metrics import PrecisionRecall


@dataclass
class FailureBucket:
    """One failure mode: a free-form tag, its count, and sample cases."""

    tag: str
    count: int
    examples: list[Hashable] = field(default_factory=list)


@dataclass
class FeatureStat:
    """Per-feature debugging row: learned weight and observation count.

    "Our debugging tool always presents, for each feature, the number of
    times the feature was observed in the training data.  This allows
    engineers to detect whether the feature has an incorrect weight due to
    insufficient training data" (Section 2.5).
    """

    key: str
    weight: float
    observations: int
    description: str = ""

    @property
    def undertrained(self) -> bool:
        """Heuristic flag: a large weight learned from very few observations."""
        return self.observations < 5 and abs(self.weight) > 1.0


# Section 5.2's three root-cause categories for a missed/incorrect extraction.
CAUSE_MISSING_CANDIDATE = "candidate-generation-failure"
CAUSE_INSUFFICIENT_FEATURES = "insufficient-features"
CAUSE_BAD_WEIGHTS = "incorrect-weights"


@dataclass
class ErrorAnalysisReport:
    """The stylized document, as structured data plus a text rendering."""

    precision: PrecisionRecall
    precision_sample: list[tuple[Hashable, bool]]
    recall_sample: list[tuple[Hashable, bool]]
    failure_buckets: list[FailureBucket]
    feature_stats: list[FeatureStat]
    db_stats: dict[str, int]
    graph_stats: dict[str, int]
    checksum: str

    def top_bucket(self) -> FailureBucket | None:
        """The bucket the engineer should address first (largest count)."""
        return self.failure_buckets[0] if self.failure_buckets else None

    def render(self) -> str:
        """Plain-text rendering of the document."""
        lines = ["ERROR ANALYSIS", "=" * 60]
        lines.append(f"checksum: {self.checksum}")
        lines.append(str(self.precision))
        lines.append("")
        lines.append("failure buckets (descending):")
        for bucket in self.failure_buckets:
            lines.append(f"  {bucket.count:5d}  {bucket.tag}")
            for example in bucket.examples[:3]:
                lines.append(f"         e.g. {example}")
        lines.append("")
        lines.append("features by |weight| (top 20):")
        for stat in sorted(self.feature_stats, key=lambda s: -abs(s.weight))[:20]:
            flag = "  ** undertrained" if stat.undertrained else ""
            lines.append(f"  {stat.weight:+7.3f}  n={stat.observations:<6d} "
                         f"{stat.key}{flag}")
        lines.append("")
        lines.append(f"database: {self.db_stats}")
        lines.append(f"factor graph: {self.graph_stats}")
        return "\n".join(lines)


def build_report(
    extractions: Iterable[Hashable],
    truth: Iterable[Hashable],
    mark_extraction: Callable[[Hashable], bool],
    bucket_failure: Callable[[Hashable], str],
    feature_stats: Sequence[FeatureStat] = (),
    db_stats: Mapping[str, int] | None = None,
    graph_stats: Mapping[str, int] | None = None,
    sample_size: int = 100,
    seed: int = 0,
) -> ErrorAnalysisReport:
    """Assemble an error-analysis document.

    ``mark_extraction`` answers "is this emitted tuple actually correct?"
    (the manual precision pass); ``bucket_failure`` tags an incorrect or
    missed extraction with a failure mode.  ``truth`` drives the recall pass.
    """
    rng = np.random.default_rng(seed)
    extraction_list = sorted(set(extractions), key=repr)
    truth_set = set(truth)

    precision_sample = _sample(extraction_list, sample_size, rng)
    precision_marks = [(item, bool(mark_extraction(item))) for item in precision_sample]

    recall_pool = sorted(truth_set, key=repr)
    recall_sample_items = _sample(recall_pool, sample_size, rng)
    extraction_set = set(extraction_list)
    recall_marks = [(item, item in extraction_set) for item in recall_sample_items]

    buckets: dict[str, FailureBucket] = {}
    failures = [item for item, correct in precision_marks if not correct]
    failures += [item for item, found in recall_marks if not found]
    for item in failures:
        tag = bucket_failure(item)
        bucket = buckets.setdefault(tag, FailureBucket(tag, 0))
        bucket.count += 1
        if len(bucket.examples) < 5:
            bucket.examples.append(item)

    # Measured precision/recall from the two samples, as an engineer would
    # compute them by hand:
    marked_correct = sum(1 for _, correct in precision_marks if correct)
    found = sum(1 for _, present in recall_marks if present)
    quality = PrecisionRecall(
        true_positives=marked_correct,
        false_positives=len(precision_marks) - marked_correct,
        false_negatives=len(recall_marks) - found,
    )

    return ErrorAnalysisReport(
        precision=quality,
        precision_sample=precision_marks,
        recall_sample=recall_marks,
        failure_buckets=sorted(buckets.values(), key=lambda b: -b.count),
        feature_stats=list(feature_stats),
        db_stats=dict(db_stats or {}),
        graph_stats=dict(graph_stats or {}),
        checksum=_checksum(extraction_list, feature_stats, db_stats or {}),
    )


def diagnose_miss(item: Hashable, candidate_keys: set[Hashable],
                  feature_count: Callable[[Hashable], int],
                  min_features: int = 2) -> str:
    """Root-cause a missed extraction per the Section 5.2 decision procedure.

    1. Not among the candidates evaluated probabilistically -> the candidate
       generator failed.
    2. A candidate, but with too few features to discriminate -> the feature
       library is insufficient.
    3. Featured but still wrong -> the learned weights are off, usually from
       distant-supervision gaps.
    """
    if item not in candidate_keys:
        return CAUSE_MISSING_CANDIDATE
    if feature_count(item) < min_features:
        return CAUSE_INSUFFICIENT_FEATURES
    return CAUSE_BAD_WEIGHTS


def _sample(items: Sequence[Hashable], size: int, rng: np.random.Generator) -> list:
    if len(items) <= size:
        return list(items)
    indices = rng.choice(len(items), size=size, replace=False)
    return [items[i] for i in sorted(indices)]


def _checksum(extractions: Sequence, feature_stats: Sequence, db_stats: Mapping) -> str:
    digest = hashlib.sha256()
    digest.update(repr(sorted(map(repr, extractions))).encode())
    digest.update(repr([(s.key, round(s.weight, 6)) for s in feature_stats]).encode())
    digest.update(repr(sorted(db_stats.items())).encode())
    return digest.hexdigest()[:16]
