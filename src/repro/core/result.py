"""Run results: marginals, the thresholded output database, calibration data,
and the run profile (paper Figure 2's per-phase runtimes, generalized to a
span tree plus engine metrics)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.eval.calibration import (CalibrationPlot, ProbabilityHistogram,
                                    calibration_plot, probability_histogram)
from repro.eval.error_analysis import FeatureStat
from repro.inference.learning import LearningDiagnostics
from repro.obs.profile import Profile

VariableKey = tuple[str, tuple]


def output_database(marginals: Mapping[VariableKey, float],
                    threshold: float) -> dict[str, dict[tuple, float]]:
    """The output database: each relation's accepted tuples (probability
    >= ``threshold``) with their probabilities, relations and tuples in
    the order ``marginals`` first lists them.  The one acceptance rule:
    :attr:`RunResult.output` and every served snapshot apply it."""
    accepted: dict[str, dict[tuple, float]] = {}
    for (relation, values), probability in marginals.items():
        if probability >= threshold:
            accepted.setdefault(relation, {})[values] = probability
    return accepted


@dataclass
class RunResult:
    """Everything one DeepDive execution produced.

    ``marginals`` maps ``(relation, tuple)`` to the inferred probability;
    ``output`` is the thresholded output database ("DeepDive applies a
    user-chosen threshold, e.g. p > 0.95").

    ``profile`` carries the observability record of the run: top-level
    phase spans (with full subtrees when the app ran with ``trace=True``)
    plus the metrics snapshot; ``profile.phase_seconds()`` gives the
    seconds per pipeline phase.
    """

    marginals: dict[VariableKey, float]
    threshold: float
    profile: Profile = field(default_factory=Profile)
    holdout_pairs: list[tuple[float, bool]] = field(default_factory=list)
    train_pairs: list[tuple[float, bool]] = field(default_factory=list)
    graph_stats: dict[str, int] = field(default_factory=dict)
    feature_stats: list[FeatureStat] = field(default_factory=list)
    learning: LearningDiagnostics | None = None

    # ------------------------------------------------------------- the output
    @property
    def output(self) -> dict[str, dict[tuple, float]]:
        """Accepted tuples per relation: probability >= threshold."""
        return output_database(self.marginals, self.threshold)

    def output_tuples(self, relation: str) -> set[tuple]:
        """Accepted tuples of one relation (the set benchmarks score)."""
        return set(self.output.get(relation, {}))

    def relation_marginals(self, relation: str) -> dict[tuple, float]:
        """All marginals of one relation, thresholded or not."""
        return {values: p for (name, values), p in self.marginals.items()
                if name == relation}

    # ------------------------------------------------------------ calibration
    def calibration(self) -> CalibrationPlot:
        """Figure 5 (left): calibration over the held-out evidence."""
        probabilities = [p for p, _ in self.holdout_pairs]
        labels = [label for _, label in self.holdout_pairs]
        return calibration_plot(probabilities, labels)

    def test_histogram(self) -> ProbabilityHistogram:
        """Figure 5 (center): prediction histogram on the held-out set."""
        return probability_histogram(p for p, _ in self.holdout_pairs)

    def train_histogram(self) -> ProbabilityHistogram:
        """Figure 5 (right): prediction histogram on the training set."""
        return probability_histogram(p for p, _ in self.train_pairs)

    def summary(self) -> str:
        """One-paragraph run summary for logs."""
        timings = self.profile.phase_seconds()
        total = sum(timings.values())
        phases = ", ".join(f"{name}={seconds:.2f}s"
                           for name, seconds in timings.items())
        accepted = sum(len(v) for v in self.output.values())
        return (f"{len(self.marginals)} candidates, {accepted} accepted at "
                f"p>={self.threshold}; phases: {phases} (total {total:.2f}s)")
