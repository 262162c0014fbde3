"""Evaluation and debugging: P/R metrics, Figure-5 calibration artifacts,
and the Section-5.2 error-analysis document."""

from repro.eval.calibration import (CalibrationPlot, ProbabilityHistogram,
                                    bucket_index, calibration_plot,
                                    probability_histogram)
from repro.eval.error_analysis import (CAUSE_BAD_WEIGHTS,
                                       CAUSE_INSUFFICIENT_FEATURES,
                                       CAUSE_MISSING_CANDIDATE,
                                       ErrorAnalysisReport, FailureBucket,
                                       FeatureStat, build_report,
                                       diagnose_miss)
from repro.eval.metrics import PrecisionRecall, precision_recall

__all__ = [
    "CAUSE_BAD_WEIGHTS",
    "CAUSE_INSUFFICIENT_FEATURES",
    "CAUSE_MISSING_CANDIDATE",
    "CalibrationPlot",
    "ErrorAnalysisReport",
    "FailureBucket",
    "FeatureStat",
    "PrecisionRecall",
    "ProbabilityHistogram",
    "bucket_index",
    "build_report",
    "calibration_plot",
    "diagnose_miss",
    "precision_recall",
    "probability_histogram",
]
