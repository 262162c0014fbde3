"""Precision / recall / F1 over extracted tuple sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable


@dataclass(frozen=True)
class PrecisionRecall:
    """Quality of one extraction run against a gold set."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __str__(self) -> str:
        return (f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
                f"(tp={self.true_positives} fp={self.false_positives} "
                f"fn={self.false_negatives})")


def precision_recall(predicted: Iterable[Hashable],
                     truth: Iterable[Hashable]) -> PrecisionRecall:
    """Compare a predicted tuple set against the gold tuple set."""
    predicted_set = set(predicted)
    truth_set = set(truth)
    tp = len(predicted_set & truth_set)
    return PrecisionRecall(
        true_positives=tp,
        false_positives=len(predicted_set) - tp,
        false_negatives=len(truth_set) - tp,
    )
