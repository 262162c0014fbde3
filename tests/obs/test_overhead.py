"""Acceptance guard: instrumentation costs nothing when tracing is off.

Every probe site checks for an enabled collector first, so a run with the
:class:`~repro.obs.span.NoopCollector` installed (``enabled`` false) must
execute the same fast path as a run with nothing installed.  The guard
interleaves min-of-rounds measurements, each of several full
``DeepDive.run`` calls on a small spouse corpus, and holds the ratio to the
5% acceptance bound.
"""

import time

import pytest

from repro import obs
from repro.apps import spouse
from repro.corpus import spouse as spouse_corpus
from repro.inference import LearningOptions


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


#: ``run_once`` takes about 2.3 ms on a 2-vCPU machine, where scheduler
#: noise alone is several percent of that.  One timed sample is this many
#: runs (about 23 ms), so noise is a small share of the 5% bound.
RUNS_PER_SAMPLE = 10


def sample(fn) -> float:
    start = time.perf_counter()
    for _ in range(RUNS_PER_SAMPLE):
        fn()
    return time.perf_counter() - start


def test_noop_collector_within_5_percent():
    app = build_app()
    app.grounder                      # ground outside the measured region
    run_once(app)                     # warm every code path first

    noop = obs.NoopCollector()

    def plain():
        run_once(app)

    def with_noop():
        with obs.installed(noop):
            run_once(app)

    # interleave the variants, alternating which goes first, so drift
    # (thermal, scheduler) hits both
    rounds = 7
    best = {plain: float("inf"), with_noop: float("inf")}
    for index in range(rounds):
        order = (plain, with_noop) if index % 2 else (with_noop, plain)
        for variant in order:
            best[variant] = min(best[variant], sample(variant))
    plain_best, noop_best = best[plain], best[with_noop]

    overhead = noop_best / plain_best - 1.0
    assert overhead <= 0.05, (
        f"no-op collector overhead {overhead:.1%} exceeds the 5% bound "
        f"(plain {plain_best * 1000:.1f}ms, noop {noop_best * 1000:.1f}ms "
        f"per {RUNS_PER_SAMPLE} runs)")


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
