"""End-to-end tests of the DeepDive application object on a tiny inline
spouse-extraction task."""

import gc
import weakref

import pytest

from repro import DeepDive, Document
from repro.eval import CAUSE_MISSING_CANDIDATE
from repro.inference import LearningOptions

PROGRAM = """
Sentences(s text, content text).
PersonCandidate(s text, m text, token text).
MarriedCandidate(m1 text, m2 text).
PairInSentence(s text, m1 text, m2 text, t1 text, t2 text).
MarriedMentions?(m1 text, m2 text).
EL(m text, e text).
Married(e1 text, e2 text).

MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), [m1 < m2].

PairInSentence(s, m1, m2, t1, t2) :-
    PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), [m1 < m2].

MarriedMentions(m1, m2) :-
    PairInSentence(s, m1, m2, t1, t2), Sentences(s, content)
    weight = phrase(t1, t2, content).

MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
"""

# Simple corpus: "X and his wife Y ..." are married; "X visited Y" are not.
MARRIED_PAIRS = [("alan", "beth"), ("carl", "dora"), ("evan", "fay"),
                 ("glen", "hope"), ("ivan", "jane"), ("kurt", "lena")]
VISITED_PAIRS = [("mike", "nora"), ("oren", "page"), ("quin", "ruth"),
                 ("seth", "tina"), ("umar", "vera"), ("walt", "xena")]

NAMES = {name for pair in MARRIED_PAIRS + VISITED_PAIRS for name in pair}


def person_extractor(sentence):
    rows = []
    for index, token in enumerate(sentence.tokens):
        if token.lower() in NAMES:
            mention_id = f"{sentence.key}:{index}-{index + 1}"
            rows.append((sentence.key, mention_id, token.lower()))
    return rows


def build_app(seed=0):
    app = DeepDive(PROGRAM, seed=seed)

    @app.udf("phrase")
    def phrase(t1, t2, content):
        tokens = content.lower().split()
        if t1 in tokens and t2 in tokens:
            i, j = tokens.index(t1), tokens.index(t2)
            if i > j:
                i, j = j, i
            return "phrase:" + " ".join(tokens[i + 1:j])
        return None

    app.add_extractor("PersonCandidate", person_extractor)

    # The DDlog program reads sentences through a simplified 2-column view,
    # filled by an extractor alongside candidate generation.
    app.add_extractor("Sentences", lambda s: [(s.key, s.text)])
    return app


def corpus():
    docs = []
    for i, (a, b) in enumerate(MARRIED_PAIRS):
        docs.append(Document(f"m{i}", f"{a} and his wife {b} attended."))
    for i, (a, b) in enumerate(VISITED_PAIRS):
        docs.append(Document(f"v{i}", f"{a} visited {b} yesterday."))
    return docs


def kb_rows():
    # supervise with a *subset* of the married pairs (distant supervision)
    el, married = [], []
    for a, b in MARRIED_PAIRS[:4]:
        el += [(f_mention(a), f"E_{a}"), (f_mention(b), f"E_{b}")]
        married += [(f"E_{a}", f"E_{b}"), (f"E_{b}", f"E_{a}")]
    # negative supervision: visited pairs known to be unmarried via disjoint KB
    return el, married


def f_mention(name):
    """Mention ids are sentence-position dependent; supervise via EL over all
    mentions of the name -- here we cheat by linking name text, so we instead
    produce EL rows after candidates exist.  See build_el()."""
    return name


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        app = build_app()
        app.load_documents(corpus())
        # entity-link every person mention by its token text
        el_rows = [(mention_id, f"E_{token}")
                   for (s, mention_id, token) in app.db["PersonCandidate"]]
        app.add_rows("EL", el_rows)
        married_rows = []
        for a, b in MARRIED_PAIRS[:4]:
            married_rows += [(f"E_{a}", f"E_{b}"), (f"E_{b}", f"E_{a}")]
        # negatives: distant supervision via a disjoint 'visited' list would
        # be a second _Ev rule; keep this app positive-only plus prior
        app.add_rows("Married", married_rows)
        result = app.run(threshold=0.8, holdout_fraction=0.0,
                         learning=LearningOptions(epochs=60, seed=0),
                         num_samples=200, burn_in=30,
                         compute_train_histogram=True)
        return app, result

    def test_candidates_generated(self, run):
        app, _ = run
        assert len(app.db["MarriedCandidate"]) == len(MARRIED_PAIRS + VISITED_PAIRS)

    def test_marginals_cover_all_candidates(self, run):
        _, result = run
        assert len(result.relation_marginals("MarriedMentions")) == 12

    def test_married_pairs_score_higher(self, run):
        app, result = run
        marginals = result.relation_marginals("MarriedMentions")
        by_token = {}
        for (s, m, t) in app.db["PersonCandidate"]:
            by_token[m] = t
        married_probs, visited_probs = [], []
        for (m1, m2), p in marginals.items():
            pair = tuple(sorted((by_token[m1], by_token[m2])))
            if pair in {tuple(sorted(x)) for x in MARRIED_PAIRS}:
                married_probs.append(p)
            else:
                visited_probs.append(p)
        assert min(married_probs) > max(visited_probs)

    def test_unsupervised_married_pairs_generalize(self, run):
        app, result = run
        # pairs 4 and 5 were never supervised but share the phrase feature
        marginals = result.relation_marginals("MarriedMentions")
        by_token = {m: t for (s, m, t) in app.db["PersonCandidate"]}
        for (m1, m2), p in marginals.items():
            tokens = {by_token[m1], by_token[m2]}
            if tokens == {"ivan", "jane"} or tokens == {"kurt", "lena"}:
                assert p > 0.6

    def test_phase_timings_recorded(self, run):
        _, result = run
        timings = result.profile.phase_seconds()
        for phase in ("candidate_generation", "grounding", "learning", "inference"):
            assert phase in timings
            assert timings[phase] >= 0

    def test_train_histogram_present(self, run):
        _, result = run
        assert result.train_pairs
        histogram = result.train_histogram()
        assert histogram.bucket_counts.sum() == len(result.train_pairs)

    def test_summary_renders(self, run):
        _, result = run
        assert "candidates" in result.summary()

    def test_feature_stats_available(self, run):
        app, result = run
        assert any("his wife" in stat.key for stat in result.feature_stats)

    def test_error_analysis_document(self, run):
        app, result = run
        truth = set()
        by_token = {m: t for (s, m, t) in app.db["PersonCandidate"]}
        for (m1, m2) in result.relation_marginals("MarriedMentions"):
            pair = tuple(sorted((by_token[m1], by_token[m2])))
            if pair in {tuple(sorted(x)) for x in MARRIED_PAIRS}:
                truth.add((m1, m2))
        report = app.error_analysis(result, "MarriedMentions", truth)
        assert report.precision.precision > 0.9
        assert "ERROR ANALYSIS" in report.render()


class TestIncrementalFlow:
    def test_documents_after_run_flow_incrementally(self):
        app = build_app()
        app.load_documents(corpus()[:3])
        el_rows = [(m, f"E_{t}") for (s, m, t) in app.db["PersonCandidate"]]
        app.add_rows("EL", el_rows)
        app.add_rows("Married", [("E_alan", "E_beth"), ("E_beth", "E_alan")])
        first = app.run(holdout_fraction=0.0, num_samples=50, burn_in=10,
                        learning=LearningOptions(epochs=10),
                        compute_train_histogram=False)
        before = len(first.relation_marginals("MarriedMentions"))

        app.load_documents([Document("new1", "yuri and his wife zoe attended.")])
        # names outside NAMES are not extracted; use known names instead
        app.load_documents([Document("new2", "carl and his wife dora smiled.")])
        second = app.run(holdout_fraction=0.0, num_samples=50, burn_in=10,
                         learning=LearningOptions(epochs=10),
                         compute_train_histogram=False)
        after = len(second.relation_marginals("MarriedMentions"))
        assert after >= before

    def test_delete_before_ground_rejected(self):
        app = build_app()
        with pytest.raises(ValueError):
            app.remove_rows("Married", [("a", "b")])

    def test_feature_count(self):
        app = build_app()
        app.load_documents(corpus()[:1])
        app.grounder  # force grounding
        keys = [v.key for v in app.graph.variables.values()]
        assert keys
        assert app.feature_count(keys[0]) >= 1
        assert app.feature_count(("MarriedMentions", ("no", "pe"))) == 0


class TestRunArguments:
    @pytest.mark.parametrize("num_samples,burn_in", [(0, 10), (10, -1)])
    def test_empty_chain_rejected_before_learning(self, num_samples, burn_in):
        """``run(num_samples=0)`` used to learn, then publish 0.0 for every
        variable; now it raises before any weight moves."""
        app = build_app()
        app.load_documents(corpus()[:3])
        weights = {w: weight.value
                   for w, weight in app.grounder.graph.weights.items()}
        with pytest.raises(ValueError):
            app.run(holdout_fraction=0.0, num_samples=num_samples,
                    burn_in=burn_in, learning=LearningOptions(epochs=5),
                    compute_train_histogram=False)
        assert {w: weight.value for w, weight
                in app.grounder.graph.weights.items()} == weights


class TestReclaim:
    def test_dropped_app_is_freed_by_reference_counting(self):
        """No reference cycle runs through a finished app's grounder, graph
        or database, so dropping the app frees them without the cyclic
        collector (which is off here)."""
        gc.collect()
        gc.disable()
        try:
            app = build_app()
            app.load_documents(corpus())
            app.add_rows("EL", [(m, f"E_{t}")
                                for (s, m, t) in app.db["PersonCandidate"]])
            app.add_rows("Married", [("E_alan", "E_beth")])
            result = app.run(holdout_fraction=0.0, num_samples=20, burn_in=5,
                             learning=LearningOptions(epochs=5),
                             compute_train_histogram=False)
            refs = {name: weakref.ref(part) for name, part in (
                ("grounder", app.grounder), ("graph", app.graph),
                ("db", app.db))}
            del app, result
            assert {name: ref() is None for name, ref in refs.items()} == \
                {"grounder": True, "graph": True, "db": True}
        finally:
            gc.enable()
