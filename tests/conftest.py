"""Suite-wide fixtures."""

import numpy as np
import pytest

from repro.inference import GibbsSampler


def reference_chain(sampler: GibbsSampler, world: np.ndarray,
                    num_samples: int, burn_in: int) -> tuple[np.ndarray, int]:
    """``GibbsSampler.run_chain`` on the scalar oracle: one
    ``sweep_reference`` after another, the worlds after burn-in added up."""
    totals = np.zeros(sampler.compiled.num_variables, dtype=np.float64)
    sampled = 0
    for sweep in range(burn_in + num_samples):
        sampled += sampler.sweep_reference(world)
        if sweep >= burn_in:
            totals += world
    return totals, sampled


@pytest.fixture
def reference_sweeps(monkeypatch):
    """Run every Gibbs sweep on the scalar oracle for the rest of the test.

    The one seam through which code that builds its own samplers (the
    learner, NUMA replicas, the app) is driven by ``sweep_reference``: it
    replaces ``run_chain``, the sampler's one color loop (``sweep`` is a
    one-sweep chain), by :func:`reference_chain`.  A test that compares
    both computes the chromatic result first, then asks for this fixture
    with ``request.getfixturevalue``.
    """
    monkeypatch.setattr(GibbsSampler, "run_chain", reference_chain)
