"""Tests for app-level incremental inference (Section 4.2, end to end)."""

import pytest

from repro import DeepDive, Document
from repro.inference import LearningOptions

PROGRAM = """
Content(s text, content text).
NameMention(s text, m text, token text, position int).
GoodName?(m text).
GoodList(token text).
BadList(token text).

GoodName(m) :-
    NameMention(s, m, t, p), Content(s, content)
    weight = name_features(t, content).

GoodName_Ev(m, true) :- NameMention(s, m, t, p), GoodList(t).
GoodName_Ev(m, false) :- NameMention(s, m, t, p), BadList(t).
"""

GOOD = ["apple", "plum", "pear", "fig", "grape", "melon"]
BAD = ["rust", "mold", "rot", "slime", "blight", "decay"]


def extractor(sentence):
    rows = []
    for position, token in enumerate(sentence.tokens):
        lower = token.lower()
        if lower in GOOD + BAD:
            rows.append((sentence.key, f"{sentence.key}:{position}",
                         lower, position))
    return rows


def build_app():
    app = DeepDive(PROGRAM, seed=0)
    app.register_udf("name_features",
                     lambda t, content: [f"word:{t}",
                                         "fresh" if t in GOOD else "spoiled"])
    app.add_extractor("NameMention", extractor)
    app.add_extractor("Content", lambda s: [(s.key, s.text)])
    docs = [Document(f"d{i}", f"the {g} and the {b} sat there .")
            for i, (g, b) in enumerate(zip(GOOD[:4], BAD[:4]))]
    app.load_documents(docs)
    app.add_rows("GoodList", [(g,) for g in GOOD[:3]])
    app.add_rows("BadList", [(b,) for b in BAD[:3]])
    return app


RUN_KWARGS = dict(threshold=0.7, holdout_fraction=0.0,
                  learning=LearningOptions(epochs=50, seed=0),
                  num_samples=200, burn_in=30, compute_train_histogram=False)


class TestRunIncremental:
    def test_falls_back_to_full_run_without_state(self):
        app = build_app()
        result = app.run_incremental(threshold=0.7)
        assert result.marginals  # a full run happened

    def test_new_document_updates_only_locally(self):
        app = build_app()
        first = app.run(**RUN_KWARGS)
        before = dict(first.marginals)

        app.load_documents([Document("new", "the grape and the blight sat there .")])
        second = app.run_incremental(threshold=0.7)

        # new variables got probabilities
        new_keys = set(second.marginals) - set(before)
        assert len(new_keys) == 2
        # the new 'grape' mention shares the learned 'fresh' feature
        grape = next(k for k in new_keys if "grape" in str(
            _token_of(app, k[1][0])))
        assert second.marginals[grape] > 0.6
        blight = next(k for k in new_keys if "blight" in str(
            _token_of(app, k[1][0])))
        assert second.marginals[blight] < 0.4

    def test_untouched_marginals_preserved(self):
        app = build_app()
        first = app.run(**RUN_KWARGS)
        app.load_documents([Document("new", "the melon sat there .")])
        second = app.run_incremental(threshold=0.7)
        for key, probability in first.marginals.items():
            assert abs(second.marginals[key] - probability) < 1e-9

    def test_evidence_change_resamples_neighbourhood(self):
        app = build_app()
        app.run(**RUN_KWARGS)
        # retract a supervision entry: 'apple' is no longer known-good
        app.remove_rows("GoodList", [("apple",)])
        second = app.run_incremental(threshold=0.7)
        apple_keys = [k for k in second.marginals
                      if "apple" in str(_token_of(app, k[1][0]))]
        assert apple_keys
        # no longer clamped to 1.0, but the learned feature keeps it high-ish
        for key in apple_keys:
            assert second.marginals[key] < 1.0

    def test_incremental_timing_recorded(self):
        app = build_app()
        app.run(**RUN_KWARGS)
        app.load_documents([Document("new", "the fig sat there .")])
        result = app.run_incremental(threshold=0.7)
        assert "incremental_inference" in result.profile.phase_seconds()

    def test_repeated_incremental_runs(self):
        app = build_app()
        app.run(**RUN_KWARGS)
        for i, token in enumerate(("grape", "melon")):
            app.load_documents([Document(f"n{i}", f"the {token} sat there .")])
            result = app.run_incremental(threshold=0.7)
        assert len(result.marginals) == 8 + 2


def _token_of(app, mention_id):
    for (_, m, token, _) in app.db["NameMention"].distinct_rows():
        if m == mention_id:
            return token
    return ""
