"""E1 -- Figure 2: per-phase runtimes of a full KBC run.

Paper artifact: the TAC-KBP pipeline diagram annotates each phase with its
runtime; feature extraction (candidate generation) and learning & inference
dominate, supervision/grounding overheads are comparatively small.

We run the spouse application (our TAC-KBP stand-in) at a few corpus sizes
and report the same phase breakdown.  Shape checks: learning + inference is
the largest statistical cost and every phase scales with corpus size.
"""

from __future__ import annotations

import time

from conftest import RESULTS_DIR, once, write_json

from repro.apps import spouse
from repro.corpus import spouse as spouse_corpus
from repro.inference import LearningOptions
from repro.obs import EngineConfig

PHASES = ["candidate_generation", "grounding", "learning", "inference"]


def run_pipeline(num_couples: int, seed: int = 0,
                 config: EngineConfig | None = None):
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=num_couples,
                                   num_distractor_pairs=num_couples,
                                   num_sibling_pairs=num_couples // 3),
        seed=seed)
    app = spouse.build(corpus, seed=seed, config=config)
    result = app.run(threshold=0.8, holdout_fraction=0.1,
                     learning=LearningOptions(epochs=40, seed=seed),
                     num_samples=150, burn_in=25,
                     compute_train_histogram=False)
    return app, result, corpus


def ground_time(num_couples: int, backend: str, runs: int = 3,
                seed: int = 0) -> float:
    """Best-of-``runs`` grounding (initial load) time on ``backend``."""
    best = float("inf")
    for _ in range(runs):
        corpus = spouse_corpus.generate(
            spouse_corpus.SpouseConfig(num_couples=num_couples,
                                       num_distractor_pairs=num_couples,
                                       num_sibling_pairs=num_couples // 3),
            seed=seed)
        app = spouse.build(corpus, seed=seed,
                           config=EngineConfig(datastore_backend=backend))
        start = time.perf_counter()
        app.grounder
        best = min(best, time.perf_counter() - start)
    return best


def test_e1_phase_breakdown(benchmark, reporter):
    sizes = [20, 40, 80]
    rows = []
    final = {}
    backends = {}
    traced = {}

    def experiment():
        for size in sizes:
            app, result, corpus = run_pipeline(size)
            timings = result.profile.phase_seconds()
            quality = spouse.evaluate(app, result, corpus)
            rows.append([size * 2]
                        + [f"{timings.get(p, 0.0):.3f}s" for p in PHASES]
                        + [f"{quality.f1:.3f}"])
            final[size] = timings
        # grounding-phase engine comparison at the largest corpus
        backends["row"] = ground_time(sizes[-1], "row")
        backends["columnar"] = ground_time(sizes[-1], "columnar")
        # one traced run at the largest corpus for the per-operator
        # breakdown and the CI trace artifact
        _, result, _ = run_pipeline(sizes[-1],
                                    config=EngineConfig(trace=True))
        traced["profile"] = result.profile
        return final

    once(benchmark, experiment)

    profile = traced["profile"]
    RESULTS_DIR.mkdir(exist_ok=True)
    profile.write_jsonl(RESULTS_DIR / "e1_phase_runtimes.trace.jsonl")

    reporter.line("E1 / Figure 2 -- per-phase runtimes (spouse app)")
    reporter.line("paper (TAC-KBP): candidate generation & feature extraction is")
    reporter.line("the dominant cost; supervision is cheap; learning & inference")
    reporter.line("is the dominant *statistical* cost")
    reporter.line()
    reporter.table(["docs"] + PHASES + ["F1"], rows)
    reporter.line()
    timings = final[sizes[-1]]
    extraction = timings["candidate_generation"] + timings["grounding"]
    statistical = timings["learning"] + timings["inference"]
    reporter.line(f"extraction (candgen + feature/grounding): {extraction:.3f}s")
    reporter.line(f"learning & inference:                     {statistical:.3f}s")
    row_ms = backends["row"] * 1000
    col_ms = backends["columnar"] * 1000
    speedup = backends["row"] / backends["columnar"]
    reporter.line()
    reporter.line(f"grounding engine at {sizes[-1] * 2} docs: "
                  f"row {row_ms:.1f}ms, columnar {col_ms:.1f}ms "
                  f"({speedup:.2f}x)")
    write_json("BENCH_e1_columnar_gain", {
        "experiment": "e1_phase_runtimes",
        "docs": sizes[-1] * 2,
        "row_grounding_seconds": backends["row"],
        "columnar_grounding_seconds": backends["columnar"],
        "speedup": speedup,
        "floor": 3.0,
    })

    top = profile.top_spans(10)
    reporter.line()
    reporter.line(f"traced run at {sizes[-1] * 2} docs -- "
                  "top spans by inclusive time:")
    reporter.table(["span", "inclusive", "calls"],
                   [[name, f"{secs:.3f}s", calls] for name, secs, calls in top])
    assert top, "traced run recorded no spans"
    assert any(name.startswith("grounding") for name, _, _ in top)

    # Shape: extraction (candidate generation + feature UDFs, which run
    # during grounding) dominates the end-to-end runtime, as in Figure 2.
    assert extraction > statistical
    for phase in PHASES:
        assert timings[phase] > 0.0
    # extraction cost scales with corpus size
    small = final[sizes[0]]
    assert extraction > (small["candidate_generation"] + small["grounding"])
    # the vectorized columnar engine carries the grounding hot path
    assert speedup >= 3.0
