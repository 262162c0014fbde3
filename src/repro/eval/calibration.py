"""Calibration plots and probability histograms (paper Figure 5).

"After each training run, DeepDive emits the diagrams shown in Figure 5...
The leftmost diagram is a calibration plot that shows whether DeepDive's
emitted probabilities are accurate... The center and right diagrams show a
histogram of predictions in various probability buckets for the test and
training sets... Ideal prediction histograms are U-shaped."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

NUM_BUCKETS = 10


@dataclass
class CalibrationPlot:
    """The leftmost Figure 5 plot: accuracy per predicted-probability bucket."""

    bucket_centers: np.ndarray      # 0.05, 0.15, ... 0.95
    bucket_accuracy: np.ndarray     # observed fraction correct (NaN if empty)
    bucket_counts: np.ndarray

    @property
    def max_deviation(self) -> float:
        """Largest |predicted - observed| over non-empty buckets; the paper's
        visual 'distance from the dotted blue line' as a number."""
        mask = self.bucket_counts > 0
        if not mask.any():
            return float("nan")
        return float(np.max(np.abs(
            self.bucket_accuracy[mask] - self.bucket_centers[mask])))

    def ascii(self, width: int = 40) -> str:
        """Terminal rendering of the calibration plot."""
        lines = ["calibration (predicted -> observed)"]
        for center, accuracy, count in zip(self.bucket_centers,
                                           self.bucket_accuracy,
                                           self.bucket_counts):
            if count == 0:
                lines.append(f"  {center:4.2f} |{'':{width}}| (empty)")
                continue
            bar = "#" * int(round(accuracy * width))
            lines.append(f"  {center:4.2f} |{bar:{width}}| {accuracy:.2f} (n={count})")
        return "\n".join(lines)


@dataclass
class ProbabilityHistogram:
    """The center/right Figure 5 plots: prediction counts per bucket."""

    bucket_counts: np.ndarray

    @property
    def u_shape_score(self) -> float:
        """Fraction of probability mass in the extreme buckets (<0.1, >0.9).

        1.0 is the ideal U shape; a low score is the paper's 'worrisome'
        histogram where the system cannot push beliefs to 0 or 1.
        """
        total = self.bucket_counts.sum()
        if total == 0:
            return float("nan")
        return float((self.bucket_counts[0] + self.bucket_counts[-1]) / total)

    def ascii(self, width: int = 40) -> str:
        peak = max(int(self.bucket_counts.max()), 1)
        lines = ["probability histogram"]
        for i, count in enumerate(self.bucket_counts):
            bar = "#" * int(round(count / peak * width))
            lines.append(f"  [{i / 10:.1f},{(i + 1) / 10:.1f}) |{bar:{width}}| {count}")
        return "\n".join(lines)


def bucket_index(probability: float) -> int:
    """Which of the 10 equal-width buckets ``probability`` falls in."""
    return min(int(probability * NUM_BUCKETS), NUM_BUCKETS - 1)


def calibration_plot(probabilities: Sequence[float],
                     is_correct: Sequence[bool]) -> CalibrationPlot:
    """Bucket predictions and compare predicted probability with accuracy."""
    if len(probabilities) != len(is_correct):
        raise ValueError("probabilities and labels must have equal length")
    counts = np.zeros(NUM_BUCKETS, dtype=np.int64)
    correct = np.zeros(NUM_BUCKETS, dtype=np.int64)
    for probability, label in zip(probabilities, is_correct):
        index = bucket_index(probability)
        counts[index] += 1
        correct[index] += bool(label)
    with np.errstate(invalid="ignore"):
        accuracy = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    centers = (np.arange(NUM_BUCKETS) + 0.5) / NUM_BUCKETS
    return CalibrationPlot(centers, accuracy, counts)


def probability_histogram(probabilities: Iterable[float]) -> ProbabilityHistogram:
    """Count predictions per probability bucket."""
    counts = np.zeros(NUM_BUCKETS, dtype=np.int64)
    for probability in probabilities:
        counts[bucket_index(probability)] += 1
    return ProbabilityHistogram(counts)

