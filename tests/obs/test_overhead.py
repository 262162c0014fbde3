"""Acceptance guard: instrumentation costs nothing when tracing is off.

Every probe site checks for an enabled collector first, so a run with the
:class:`~repro.obs.span.NoopCollector` installed (``enabled`` false) must
execute the same fast path as a run with nothing installed.  The guard
states that contract as a count, not a wall-clock ratio: under
``sys.setprofile`` it counts the Python calls into ``repro/obs/*.py``
during one ``DeepDive.run`` on a small spouse corpus, and the count with
the no-op collector installed must equal the count with none.  A probe that
does any work for a disabled collector (a registry update, a span object)
adds calls, however cheap they are.
"""

import os
import sys

import pytest

from repro import obs
from repro.apps import spouse
from repro.corpus import spouse as spouse_corpus
from repro.inference import LearningOptions

OBS_DIR = os.path.dirname(obs.__file__)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_app():
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=16, num_distractor_pairs=16,
                                   num_sibling_pairs=5), seed=0)
    return spouse.build(corpus, seed=0)


def run_once(app) -> None:
    app.run(threshold=0.8, holdout_fraction=0.1,
            learning=LearningOptions(epochs=30, seed=0),
            num_samples=400, burn_in=40, compute_train_histogram=False)


def obs_calls(fn) -> dict[str, int]:
    """Python calls into ``repro/obs/*.py`` while ``fn`` runs, per
    function name."""
    calls: dict[str, int] = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == OBS_DIR:
            calls[code.co_name] = calls.get(code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_noop_collector_takes_the_disabled_path():
    app = build_app()
    app.grounder                      # ground outside the counted region
    run_once(app)                     # warm every lazy path first

    plain = obs_calls(lambda: run_once(app))
    obs.install(obs.NoopCollector())
    noop = obs_calls(lambda: run_once(app))
    assert plain.get("enabled", 0) > 0, plain     # the probes were counted
    assert noop == plain, (
        f"the no-op collector makes {sum(noop.values())} calls into "
        f"repro/obs, nothing installed {sum(plain.values())}: {noop} vs "
        f"{plain}")


def test_traced_run_actually_records():
    """Counter-check: the same pipeline traced produces a real profile."""
    from repro.obs import EngineConfig

    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=6, num_distractor_pairs=6,
                                   num_sibling_pairs=2), seed=0)
    app = spouse.build(corpus, seed=0, config=EngineConfig(trace=True))
    result = app.run(threshold=0.8, holdout_fraction=0.1,
                     learning=LearningOptions(epochs=5, seed=0),
                     num_samples=20, burn_in=5,
                     compute_train_histogram=False)
    profile = result.profile
    assert profile.find("grounding.define_views") is not None
    assert profile.find("inference.marginals") is not None
    assert profile.metrics["counters"].get("gibbs.sweeps", 0) > 0
