"""Evaluation and debugging: P/R metrics, Figure-5 calibration artifacts,
the Section-5.2 error-analysis document, and Mindtagger-lite annotation."""

from repro.eval.calibration import (CalibrationPlot, ProbabilityHistogram,
                                    bucket_index, calibration_plot,
                                    calibration_vs_exact,
                                    probability_histogram)
from repro.eval.error_analysis import (CAUSE_BAD_WEIGHTS,
                                       CAUSE_INSUFFICIENT_FEATURES,
                                       CAUSE_MISSING_CANDIDATE,
                                       ErrorAnalysisReport, FailureBucket,
                                       FeatureStat, build_report,
                                       diagnose_miss)
from repro.eval.metrics import PrecisionRecall, precision_recall
from repro.eval.mindtagger import MindtaggerSession, TaggingSummary

__all__ = [
    "CAUSE_BAD_WEIGHTS",
    "CAUSE_INSUFFICIENT_FEATURES",
    "CAUSE_MISSING_CANDIDATE",
    "CalibrationPlot",
    "ErrorAnalysisReport",
    "FailureBucket",
    "FeatureStat",
    "MindtaggerSession",
    "PrecisionRecall",
    "ProbabilityHistogram",
    "TaggingSummary",
    "bucket_index",
    "build_report",
    "calibration_plot",
    "calibration_vs_exact",
    "diagnose_miss",
    "precision_recall",
    "probability_histogram",
]
