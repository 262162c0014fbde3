"""Incremental KBC: absorb new documents and KB edits without re-grounding.

Paper Section 4.1: after the initial load, every change flows through DRed
delta rules -- new documents, new KB facts, and retractions all patch the
factor graph in time proportional to the change, not the corpus.

This example builds a spouse KB, then streams three kinds of updates and
shows the grounding delta and refreshed output after each:

1. a new document about an unseen couple;
2. a new marriage-KB fact (supervision arrives later than the text);
3. a retraction (the KB fact turns out to be wrong).

It ends by asserting what it printed: the document adds one variable and
its factors and is accepted, the KB fact flips two labels, and the
retraction flips the same two back.

Run:  python examples/incremental_updates.py
"""

from repro.apps import spouse
from repro.corpus import spouse as spouse_corpus
from repro.inference import LearningOptions
from repro.nlp.pipeline import Document, preprocess_document, sentence_row

RUN_KWARGS = dict(threshold=0.8, holdout_fraction=0.0,
                  learning=LearningOptions(epochs=40, seed=0),
                  num_samples=200, burn_in=30, compute_train_histogram=False)


def show(tag, app, result, delta=None):
    """Print one line of graph size, evidence and accepted tuples; return
    the graph's stats with ``accepted`` added."""
    accepted = len(result.output_tuples("MarriedMentions"))
    stats = dict(app.graph.stats(), accepted=accepted)
    line = (f"[{tag}] variables={stats['variables']} "
            f"factors={stats['factors']} evidence={stats['evidence']} "
            f"accepted={accepted}")
    if delta is not None:
        line += (f"  (delta: +{delta.factors_added}/-{delta.factors_removed} "
                 f"factors, +{delta.variables_added}/-{delta.variables_removed}"
                 f" vars, {delta.evidence_changed} evidence flips)")
    print(line)
    return stats


def ingest_document(app, corpus, text, doc_id):
    """Push one new document through NLP + extractors into the grounder."""
    known_names = {name.lower() for name, _ in corpus.kb["NameEL"]}
    extractor = spouse.person_extractor_factory(known_names)
    name_entities = {}
    for name, entity in corpus.kb["NameEL"]:
        name_entities.setdefault(name.lower(), []).append(entity)
    inserts = {"sentences": [], "SpouseSentence": [], "PersonCandidate": [],
               "EL": []}
    for sentence in preprocess_document(Document(doc_id, text)):
        inserts["sentences"].append(sentence_row(sentence))
        inserts["SpouseSentence"].append((sentence.key, sentence.text))
        for row in extractor(sentence):
            inserts["PersonCandidate"].append(row)
            for entity in name_entities.get(row[2], ()):
                inserts["EL"].append((row[1], entity))
    return app.grounder.apply_changes(inserts=inserts)


def main():
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=20, num_distractor_pairs=20,
                                   num_sibling_pairs=6), seed=9)
    app = spouse.build(corpus, seed=0)
    result = app.run(**RUN_KWARGS)
    initial = show("initial load", app, result)

    name_of = corpus.metadata["name_of"]
    couple = corpus.metadata["couples"][0]
    a, b = name_of[couple[0]], name_of[couple[1]]

    # 1. new document about a known couple, phrased in a learned pattern
    delta = ingest_document(app, corpus,
                            f"{a} and his wife {b} toured the museum .",
                            "stream_doc_1")
    result = app.run(**RUN_KWARGS)
    document = show("new document", app, result, delta)
    assert delta.variables_added == 1 and delta.factors_added > 0, delta
    assert document["variables"] == initial["variables"] + 1
    assert document["accepted"] > initial["accepted"], document

    # 2. late-arriving KB fact: supervise a so-far-unlabelled couple whose
    # names are unambiguous (shared names would create entity-linking
    # conflicts, which is its own interesting story but not this one)
    covered = {frozenset(pair) for pair in corpus.kb["Married"]}
    name_counts = {}
    for name in name_of.values():
        name_counts[name] = name_counts.get(name, 0) + 1
    late = next(pair for pair in corpus.metadata["couples"]
                if frozenset(pair) not in covered
                and name_counts[name_of[pair[0]]] == 1
                and name_counts[name_of[pair[1]]] == 1)
    delta = app.grounder.apply_changes(inserts={
        "Married": [(late[0], late[1]), (late[1], late[0])]})
    result = app.run(**RUN_KWARGS)
    late_fact = show("late KB fact", app, result, delta)
    assert delta.evidence_changed == 2 and not delta.factors_added, delta
    assert late_fact["evidence"] == document["evidence"] + 2

    # 3. retraction: that fact is withdrawn; evidence reverts
    delta = app.grounder.apply_changes(deletes={
        "Married": [(late[0], late[1]), (late[1], late[0])]})
    result = app.run(**RUN_KWARGS)
    retraction = show("KB retraction", app, result, delta)
    assert delta.evidence_changed == 2, delta
    assert retraction["evidence"] == document["evidence"]
    assert retraction["factors"] == document["factors"]


if __name__ == "__main__":
    main()
