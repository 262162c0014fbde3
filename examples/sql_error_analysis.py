"""Error analysis with plain SQL (paper Section 3.4).

"To facilitate error analysis, users write standard SQL queries."  After a
spouse-app run, every intermediate product sits in relations; this example
pokes at them the way a DeepDive engineer would: candidate counts per
document, supervision coverage, which distant-supervision rules fired, and a
join from accepted extractions back to the sentences they came from.  It
ends by asserting that each answer agrees with the run it queried.

Run:  python examples/sql_error_analysis.py
"""

from repro.apps import spouse
from repro.corpus import spouse as spouse_corpus
from repro.datastore.sql import execute
from repro.inference import LearningOptions


def main():
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=12, num_distractor_pairs=12,
                                   num_sibling_pairs=4), seed=21)
    app = spouse.build(corpus, seed=0)
    result = app.run(threshold=0.8, holdout_fraction=0.1,
                     learning=LearningOptions(epochs=50, seed=0),
                     num_samples=200, burn_in=30,
                     compute_train_histogram=False)

    # load the inferred marginals back into a relation so SQL can see them --
    # "Each tuple is then reloaded into the database with its marginal
    # probability" (Section 3.3)
    app.db.create("Marginals", m1="text", m2="text", probability="float")
    for (m1, m2), p in result.relation_marginals("MarriedMentions").items():
        app.db["Marginals"].insert((m1, m2, p))

    queries = [
        ("person candidates per sentence (top 5)",
         """SELECT s, COUNT(*) AS mentions FROM PersonCandidate
            GROUP BY s ORDER BY mentions DESC LIMIT 5"""),
        ("how much of the candidate space is supervised",
         """SELECT label, COUNT(*) AS n FROM MarriedMentions_Ev
            GROUP BY label"""),
        ("probability distribution of the output",
         """SELECT COUNT(*) AS n, MIN(probability) AS lo,
                   AVG(probability) AS mean, MAX(probability) AS hi
            FROM Marginals"""),
        ("low-confidence extractions worth a look",
         """SELECT m1, m2, probability FROM Marginals
            WHERE probability > 0.4 AND probability < 0.6
            ORDER BY probability DESC LIMIT 5"""),
        ("accepted pairs joined back to their sentence text",
         """SELECT g.probability, s.content
            FROM Marginals g
            JOIN PersonCandidate p ON g.m1 = p.m
            JOIN SpouseSentence s ON p.s = s.s
            WHERE g.probability >= 0.8
            ORDER BY g.probability DESC LIMIT 5"""),
    ]

    answers = {}
    for title, sql in queries:
        print("=" * 70)
        print(title)
        answers[title] = execute(app.db, sql)
        print(answers[title].pretty())
        print()

    # what the queries above printed, checked against the run
    marginals = result.relation_marginals("MarriedMentions")
    (n, lo, _, hi), = answers["probability distribution of the output"].rows
    assert n == len(marginals) and 0.0 <= lo <= hi <= 1.0
    labels = dict(answers["how much of the candidate space is supervised"].rows)
    assert sum(labels.values()) == len(app.db["MarriedMentions_Ev"])
    assert all(0.4 < p < 0.6 for *_, p in
               answers["low-confidence extractions worth a look"].rows)
    joined = answers["accepted pairs joined back to their sentence text"].rows
    assert joined and all(p >= 0.8 for p, _ in joined), joined


if __name__ == "__main__":
    main()
