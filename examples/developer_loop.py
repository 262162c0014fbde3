"""The DeepDive developer loop (paper Figure 1 and Section 5), scripted.

Plays the role of the knowledge engineer across three iterations: run the
system, produce the error-analysis document, read off the top failure
bucket, apply the matching fix, and rerun.  Each run is recorded in a
``RunHistory`` (Section 2.5's execution history), which diffs what an
iteration changed: the features it added and the weights that moved.  Also
demonstrates the supervision-overlap detector from Section 8 catching a bad
feature before it poisons a training run, and closes by profiling the final
iteration with ``EngineConfig(trace=True)`` to show where the time went.  It
ends by asserting what it printed: F1 never falls across the iterations,
the iteration-1 diff lists the new phrase/window features, and the top
failure bucket moves off ``insufficient-features`` once the features are
richer.

Run:  python examples/developer_loop.py
"""

from repro.apps import spouse
from repro.apps.common import pair_features, window_features
from repro.core import RunHistory
from repro.core.app import DeepDive
from repro.corpus import spouse as spouse_corpus
from repro.inference import LearningOptions
from repro.nlp.tokenize import token_texts
from repro.obs import EngineConfig
from repro.supervision import detect_supervision_overlap

RUN_KWARGS = dict(threshold=0.8, holdout_fraction=0.1,
                  learning=LearningOptions(epochs=50, seed=0),
                  num_samples=200, burn_in=30, compute_train_histogram=False)


def build(corpus, feature_fn, negatives, seed=0, config=None):
    app = DeepDive(spouse.PROGRAM, seed=seed, config=config)
    app.register_udf("spouse_features", feature_fn)
    known_names = {name.lower() for name, _ in corpus.kb["NameEL"]}
    app.add_extractor("PersonCandidate",
                      spouse.person_extractor_factory(known_names))
    app.add_extractor("SpouseSentence", lambda s: [(s.key, s.text)])
    app.load_documents(corpus.documents)
    name_entities = {}
    for name, entity in corpus.kb["NameEL"]:
        name_entities.setdefault(name.lower(), []).append(entity)
    app.add_rows("EL", [(m, e) for (_, m, t, _)
                        in app.db["PersonCandidate"].distinct_rows()
                        for e in name_entities.get(t, ())])
    app.add_rows("Married", corpus.kb["Married"])
    if negatives:
        app.add_rows("Sibling", corpus.kb["Sibling"])
        acquainted = []
        for a, b in corpus.metadata["distractors"][::2]:
            acquainted += [(a, b), (b, a)]
        app.add_rows("Acquainted", acquainted)
    return app


def distance_only(p1, p2, content):
    return [f"dist:{min(p2 - p1, 10)}"]


def full_features(p1, p2, content):
    return (pair_features(p1, p2, content)
            + window_features(p1, content, prefix="m1_"))


ITERATIONS = [
    ("iteration 0: distance feature only", distance_only, False),
    ("iteration 1: + phrase/window features", full_features, False),
    ("iteration 2: + negative supervision", full_features, True),
]


def main():
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=30, num_distractor_pairs=30,
                                   num_sibling_pairs=10,
                                   sentences_per_pair=3), seed=13)
    history = RunHistory()
    f1s, top_tags = [], []

    for title, feature_fn, negatives in ITERATIONS:
        print("=" * 70)
        print(title)
        app = build(corpus, feature_fn, negatives)
        result = app.run(**RUN_KWARGS)
        history.record(result, title.split(": ", 1)[1])
        quality = spouse.evaluate(app, result, corpus)
        f1s.append(quality.f1)
        print(f"quality: {quality}")
        gold = spouse.gold_mention_pairs(app, corpus)
        report = app.error_analysis(result, "MarriedMentions", gold,
                                    sample_size=60)
        top = report.top_bucket()
        top_tags.append(top.tag if top else None)
        if top:
            print(f"top failure bucket: {top.tag} (count {top.count})")
            print("engineer's next action: "
                  + {"insufficient-features": "write a richer feature UDF",
                     "incorrect-weights": "add a distant-supervision rule",
                     "candidate-generation-failure":
                         "fix the candidate extractor"}.get(top.tag, "inspect"))
        else:
            print("no failures in the sampled error analysis")
        if len(history) > 1:
            print("what changed since the previous iteration:")
            print(history.diff().render(top=5))

    print("=" * 70)
    print("execution history")
    print(history.render())

    print("=" * 70)
    print("section 8 check: the supervision-overlap detector")
    app = build(corpus, full_features, True)
    app.grounder   # ground
    warnings = detect_supervision_overlap(app.graph)
    if warnings:
        for warning in warnings:
            print("  WARNING:", warning.describe())
    else:
        print("  no feature duplicates a distant-supervision rule -- safe")

    print("=" * 70)
    print("where did the time go? (EngineConfig(trace=True))")
    app = build(corpus, full_features, True,
                config=EngineConfig(trace=True))
    result = app.run(**RUN_KWARGS)
    print(result.profile.render(max_depth=2))
    print()
    print("top spans by inclusive time:")
    top_spans = result.profile.top_spans(8)
    for name, seconds, calls in top_spans:
        print(f"  {name:<28} {seconds * 1000:8.1f}ms  x{calls}")

    # what the loop above printed, checked
    assert all(after >= before for before, after in zip(f1s, f1s[1:])), f1s
    assert f1s[-1] > f1s[0], f1s
    added = history.diff(0, 1).added_features
    assert any(":between:" in key for key in added), added
    assert any(":m1_" in key for key in added), added
    assert top_tags[0] == "insufficient-features", top_tags
    assert "insufficient-features" not in top_tags[1:], top_tags
    assert len(history.render().splitlines()) == len(ITERATIONS)
    # negative supervision prunes the false positives iteration 1 accepted
    assert history[2].accepted < history[1].accepted, history.render()
    assert not warnings         # no feature copies a supervision rule
    assert top_spans and set(result.profile.phase_seconds()) == {
        "candidate_generation", "grounding", "learning", "inference"}


if __name__ == "__main__":
    main()
