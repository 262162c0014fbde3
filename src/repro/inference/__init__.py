"""Statistical inference and learning: the DimmWitted-style engine.

Gibbs sampling over compiled factor graphs, weight learning from evidence
chains, and a simulated-NUMA execution layer reproducing the paper's
hardware/statistical efficiency study.
"""

from repro.inference.diagnostics import (ConvergenceReport, check_convergence,
                                          effective_samples, split_r_hat)
from repro.inference.exact import (ExactResult, enumerate_worlds,
                                   exact_marginals, world_log_weights)
from repro.inference.gibbs import GibbsSampler, MarginalResult, sigmoid
from repro.inference.learning import (LearningDiagnostics, LearningOptions,
                                      learn_weights)
from repro.inference.map_inference import (MapResult, map_inference,
                                            world_log_weight)
from repro.inference.numa import NumaConfig, NumaGibbs, NumaRunResult

__all__ = [
    "ConvergenceReport",
    "ExactResult",
    "GibbsSampler",
    "LearningDiagnostics",
    "LearningOptions",
    "MapResult",
    "MarginalResult",
    "NumaConfig",
    "NumaGibbs",
    "NumaRunResult",
    "check_convergence",
    "effective_samples",
    "enumerate_worlds",
    "exact_marginals",
    "learn_weights",
    "world_log_weights",
    "map_inference",
    "split_r_hat",
    "sigmoid",
    "world_log_weight",
]
