"""Suite-wide fixtures."""

import numpy as np
import pytest

from repro.inference import GibbsSampler


def sweep_loop(sampler: GibbsSampler, world: np.ndarray, num_samples: int,
               burn_in: int) -> tuple[np.ndarray, int]:
    """``GibbsSampler.run_chain`` written as the plain loop it replaces:
    one ``sweep`` after another, the worlds after burn-in added up."""
    totals = np.zeros(sampler.compiled.num_variables, dtype=np.float64)
    sampled = 0
    for sweep in range(burn_in + num_samples):
        sampled += sampler.sweep(world)
        if sweep >= burn_in:
            totals += world
    return totals, sampled


@pytest.fixture
def reference_sweeps(monkeypatch):
    """Run every Gibbs sweep on the scalar oracle for the rest of the test.

    The one seam through which code that builds its own samplers (the
    learner, NUMA replicas, the app) is driven by ``sweep_reference``: it
    patches ``sweep`` and replaces ``run_chain`` by :func:`sweep_loop` over
    it.  A test that compares both computes the chromatic result first,
    then asks for this fixture with ``request.getfixturevalue``.
    """
    monkeypatch.setattr(GibbsSampler, "sweep", GibbsSampler.sweep_reference)
    monkeypatch.setattr(GibbsSampler, "run_chain", sweep_loop)
