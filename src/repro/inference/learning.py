"""Weight learning by stochastic gradient over Gibbs chains.

DeepDive trains tied factor weights to maximize the likelihood of the
distant-supervision evidence.  The gradient of the log-likelihood w.r.t. a
tied weight ``w_k`` is

    d logL / d w_k  =  E_clamped[ n_k ]  -  E_free[ n_k ]

where ``n_k`` is the summed value of all factors tied to ``w_k``, estimated
by two persistent Gibbs chains: one with evidence clamped, one free.  With an
L2 prior and a decaying step size this is the standard training loop of
DeepDive/Tuffy (persistent contrastive divergence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.factorgraph.compiled import CompiledGraph
from repro.inference.gibbs import GibbsSampler


@dataclass
class LearningOptions:
    """Hyperparameters for weight learning (defaults follow DeepDive's CLI).

    ``optimizer`` is ``"sgd"`` (decaying step size) or ``"adagrad"``
    (per-weight adaptive steps, DeepDive's production choice: rare features
    keep large steps while frequent features settle quickly).

    Out-of-range values raise ``ValueError`` at construction: ``epochs``
    must be >= 0, ``sweeps_per_epoch`` >= 1, ``step_size`` > 0, ``decay`` in
    (0, 1] and ``l2`` >= 0.
    """

    epochs: int = 50
    step_size: float = 0.1
    decay: float = 0.97
    l2: float = 0.01
    sweeps_per_epoch: int = 1
    seed: int = 0
    optimizer: str = "sgd"

    def __post_init__(self) -> None:
        if self.optimizer not in ("sgd", "adagrad"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.sweeps_per_epoch < 1:
            # 0 would take every gradient from two never-advanced chains
            raise ValueError(
                f"sweeps_per_epoch must be >= 1, got {self.sweeps_per_epoch}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not self.l2 >= 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")


@dataclass
class LearningDiagnostics:
    """Execution history of one training run (Section 2.5: the system
    'retains a statistical execution history' for debugging)."""

    epochs_run: int = 0
    gradient_norms: list[float] = field(default_factory=list)
    weight_snapshots: list[np.ndarray] = field(default_factory=list)

    @property
    def final_gradient_norm(self) -> float:
        return self.gradient_norms[-1] if self.gradient_norms else float("nan")


def learn_weights(compiled: CompiledGraph,
                  options: LearningOptions | None = None) -> LearningDiagnostics:
    """Train the non-fixed weights of ``compiled`` in place.

    Returns diagnostics with per-epoch gradient norms and (sparse) weight
    snapshots for the debugger.
    """
    options = options or LearningOptions()
    with obs.span("learning.learn_weights", epochs=options.epochs,
                  optimizer=options.optimizer) as sp:
        diagnostics = _learn_weights(compiled, options)
        sp.set(final_gradient_norm=diagnostics.final_gradient_norm)
    return diagnostics


def _learn_weights(compiled: CompiledGraph,
                   options: LearningOptions) -> LearningDiagnostics:
    clamped_chain = GibbsSampler(compiled, seed=options.seed, clamp_evidence=True)
    free_chain = GibbsSampler(compiled, seed=options.seed + 1, clamp_evidence=False)
    clamped_world = clamped_chain.initial_assignment()
    free_world = clamped_world.copy()

    trainable = ~compiled.weight_fixed
    diagnostics = LearningDiagnostics()
    step = options.step_size
    gradient_history = np.zeros(compiled.num_weights)   # AdaGrad accumulator
    for epoch in range(options.epochs):
        for _ in range(options.sweeps_per_epoch):
            clamped_chain.sweep(clamped_world)
            free_chain.sweep(free_world)
        clamped_sums = (compiled.unary_value_sums(clamped_world)
                        + compiled.general_value_sums(clamped_world))
        free_sums = (compiled.unary_value_sums(free_world)
                     + compiled.general_value_sums(free_world))
        gradient = clamped_sums - free_sums - options.l2 * compiled.weight_values
        gradient[~trainable] = 0.0
        if options.optimizer == "adagrad":
            gradient_history += gradient ** 2
            scale = options.step_size / (1.0 + np.sqrt(gradient_history))
            compiled.weight_values[trainable] += \
                (scale * gradient)[trainable]
        else:
            compiled.weight_values[trainable] += step * gradient[trainable]
            step *= options.decay
        compiled.note_mutation()
        clamped_chain.refresh_weights()
        free_chain.refresh_weights()

        diagnostics.epochs_run = epoch + 1
        norm = float(np.linalg.norm(gradient))
        diagnostics.gradient_norms.append(norm)
        if obs.enabled():
            obs.observe("learning.gradient_norm", norm,
                        optimizer=options.optimizer)
        if epoch % max(1, options.epochs // 10) == 0 or epoch == options.epochs - 1:
            diagnostics.weight_snapshots.append(compiled.weight_values.copy())
    return diagnostics
