"""Suite-wide fixtures."""

import pytest

from repro.inference import GibbsSampler


@pytest.fixture
def reference_sweeps(monkeypatch):
    """Run every Gibbs sweep on the scalar oracle for the rest of the test.

    The one seam through which code that builds its own samplers (the
    learner, NUMA replicas, the app) is driven by ``sweep_reference``; a
    test that compares both computes the chromatic result first, then asks
    for this fixture with ``request.getfixturevalue``.
    """
    monkeypatch.setattr(GibbsSampler, "sweep", GibbsSampler.sweep_reference)
