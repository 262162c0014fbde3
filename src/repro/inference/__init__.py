"""Statistical inference and learning: the DimmWitted-style engine.

Gibbs sampling over compiled factor graphs, weight learning from evidence
chains, and a simulated-NUMA execution layer reproducing the paper's
hardware/statistical efficiency study.
"""

from repro.inference.gibbs import GibbsSampler, MarginalResult, sigmoid
from repro.inference.learning import (LearningDiagnostics, LearningOptions,
                                      learn_weights)
from repro.inference.numa import NumaConfig, NumaGibbs, NumaRunResult

__all__ = [
    "GibbsSampler",
    "LearningDiagnostics",
    "LearningOptions",
    "MarginalResult",
    "NumaConfig",
    "NumaGibbs",
    "NumaRunResult",
    "learn_weights",
    "sigmoid",
]
