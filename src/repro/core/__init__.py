"""The DeepDive application core: pipeline phases, run results, extractors,
the Section-5.3 feature library, and the Section-2.5 execution history."""

from repro.core.app import DeepDive
from repro.core.extractors import CandidateExtractor, run_extractors
from repro.core.featurelib import (STANDARD_TEMPLATES, FeatureLibrary,
                                   FeatureTemplate)
from repro.core.history import RunDiff, RunHistory, RunSnapshot
from repro.core.result import RunResult

__all__ = [
    "CandidateExtractor",
    "DeepDive",
    "FeatureLibrary",
    "FeatureTemplate",
    "RunDiff",
    "RunHistory",
    "RunResult",
    "RunSnapshot",
    "STANDARD_TEMPLATES",
    "run_extractors",
]
