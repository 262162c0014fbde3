"""Quickstart: extract a spouse database from dark-data text in ~60 lines.

Mirrors the paper's Figure 3 walkthrough: declare the aspirational schema in
DDlog, write a candidate extractor and one feature UDF, supervise distantly
from a small marriage KB, run, and read the output database.  It ends by
asserting what it printed: the two supervised couples and Gomez & Morticia,
whom no KB fact names, are accepted; the two non-couples are not.

Run:  python examples/quickstart.py
"""

from repro import DeepDive, Document
from repro.nlp.tokenize import token_texts

PROGRAM = """
# -- schema -----------------------------------------------------------------
Content(s text, content text).
PersonCandidate(s text, m text, token text, position int).
MarriedCandidate(m1 text, m2 text).
Pair(s text, m1 text, m2 text, p1 int, p2 int).
MarriedMentions?(m1 text, m2 text).
EL(m text, e text).
Married(e1 text, e2 text).

# -- candidate mapping (paper rule R1) --------------------------------------
MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1, t1, p1), PersonCandidate(s, m2, t2, p2), [p1 < p2].

Pair(s, m1, m2, p1, p2) :-
    PersonCandidate(s, m1, t1, p1), PersonCandidate(s, m2, t2, p2), [p1 < p2].

# -- feature rule (paper rule FE1) ------------------------------------------
MarriedMentions(m1, m2) :-
    Pair(s, m1, m2, p1, p2), Content(s, content)
    weight = phrase(p1, p2, content).

# -- distant supervision (paper rule S1) ------------------------------------
MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
"""

DOCUMENTS = [
    Document("d1", "Barack and his wife Michelle attended the dinner."),
    Document("d2", "Harold married Maude in 1971."),
    Document("d3", "Thelma visited Louise on Thursday."),
    Document("d4", "Gomez and his wife Morticia hosted the party."),
    Document("d5", "Sherlock interviewed Watson about the case."),
]

NAMES = {"barack", "michelle", "harold", "maude", "thelma", "louise",
         "gomez", "morticia", "sherlock", "watson"}

# The (incomplete) marriage KB used for distant supervision: it knows about
# Barack & Michelle and Harold & Maude -- but not Gomez & Morticia, whom the
# system must generalize to via the learned phrase features.
KB = [("E_barack", "E_michelle"), ("E_michelle", "E_barack"),
      ("E_harold", "E_maude"), ("E_maude", "E_harold")]


def extract_people(sentence):
    """Candidate generation: any known name is a person mention."""
    rows = []
    for position, token in enumerate(sentence.tokens):
        if token.lower() in NAMES:
            rows.append((sentence.key, f"{sentence.key}:{position}",
                         token.lower(), position))
    return rows


def main():
    app = DeepDive(PROGRAM, seed=0)

    @app.udf("phrase")
    def phrase(p1, p2, content):
        """The paper's phrase feature: the words between the two mentions."""
        tokens = [t.lower() for t in token_texts(content)]
        return "between:" + " ".join(tokens[p1 + 1:p2][:6])

    app.add_extractor("PersonCandidate", extract_people)
    app.add_extractor("Content", lambda s: [(s.key, s.text)])

    app.load_documents(DOCUMENTS)
    # entity-link each mention by its token, then load the KB
    app.add_rows("EL", [(m, f"E_{t}") for (_, m, t, _)
                        in app.db["PersonCandidate"].distinct_rows()])
    app.add_rows("Married", KB)

    result = app.run(threshold=0.7, holdout_fraction=0.0, num_samples=300)

    print("marginal probabilities for every candidate pair:")
    token_of = {m: t for (_, m, t, _)
                in app.db["PersonCandidate"].distinct_rows()}
    for (m1, m2), p in sorted(result.relation_marginals("MarriedMentions").items(),
                              key=lambda kv: -kv[1]):
        print(f"  {p:.2f}  {token_of[m1]:9s} {token_of[m2]}")

    print(f"\noutput database (threshold {result.threshold}):")
    for m1, m2 in sorted(result.output_tuples("MarriedMentions")):
        print(f"  HasSpouse({token_of[m1]}, {token_of[m2]})")
    summary = result.summary()
    print(f"\n{summary}")

    # what the run above printed, checked
    accepted = {frozenset((token_of[m1], token_of[m2]))
                for m1, m2 in result.output_tuples("MarriedMentions")}
    assert accepted == {frozenset(("barack", "michelle")),
                        frozenset(("harold", "maude")),
                        frozenset(("gomez", "morticia"))}, accepted
    assert summary.startswith("5 candidates, 3 accepted at p>=0.7"), summary


if __name__ == "__main__":
    main()
