"""Incremental grounding tests: the invariant is that a grounder that saw a
sequence of change batches must end in the same state as a grounder built
fresh on the final database."""

import pytest

from repro.datastore import Database
from repro.ddlog import DDlogProgram
from repro.grounding import Grounder

PROGRAM = """
Sentence(s text, content text).
PersonCandidate(s text, m text).
MarriedCandidate(m1 text, m2 text).
MarriedMentions?(m1 text, m2 text).
EL(m text, e text).
Married(e1 text, e2 text).

MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), [m1 < m2].

MarriedMentions(m1, m2) :-
    MarriedCandidate(m1, m2), PersonCandidate(s, m1), Sentence(s, sent)
    weight = phrase(m1, m2, sent).

MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
"""


def new_app():
    program = DDlogProgram.parse(PROGRAM)
    program.register_udf("phrase", lambda m1, m2, sent: f"p:{sent.split()[0]}")
    db = Database()
    program.create_relations(db)
    return program, db


def base_rows():
    return {
        "Sentence": [("s1", "and married obama michelle")],
        "PersonCandidate": [("s1", "obama"), ("s1", "michelle")],
        "EL": [("obama", "E_o"), ("michelle", "E_m")],
        "Married": [("E_m", "E_o")],
    }


def graph_signature(grounder):
    """Canonical description of the graph for cross-grounder comparison."""
    graph = grounder.graph
    variables = {v.key: v.evidence for v in graph.variables.values()}
    factors = sorted(
        (f.function, tuple(graph.variables[v].key for v in f.var_ids),
         graph.weights[f.weight_id].key)
        for f in graph.factors.values())
    return variables, factors


class TestIncrementalMatchesFresh:
    def test_insert_only(self):
        program, db = new_app()
        db.insert("Sentence", base_rows()["Sentence"])
        db.insert("PersonCandidate", base_rows()["PersonCandidate"])
        incremental = Grounder(program, db)
        delta = incremental.apply_changes(inserts={
            "EL": base_rows()["EL"], "Married": base_rows()["Married"]})
        assert delta.evidence_changed == 1

        fresh_program, fresh_db = new_app()
        for name, rows in base_rows().items():
            fresh_db.insert(name, rows)
        fresh = Grounder(fresh_program, fresh_db)
        assert graph_signature(incremental) == graph_signature(fresh)

    def test_new_document(self):
        program, db = new_app()
        for name, rows in base_rows().items():
            db.insert(name, rows)
        incremental = Grounder(program, db)
        delta = incremental.apply_changes(inserts={
            "Sentence": [("s2", "wed alice bob")],
            "PersonCandidate": [("s2", "alice"), ("s2", "bob")],
        })
        assert delta.variables_added == 1
        assert delta.factors_added == 1

        fresh_program, fresh_db = new_app()
        for name, rows in base_rows().items():
            fresh_db.insert(name, rows)
        fresh_db.insert("Sentence", [("s2", "wed alice bob")])
        fresh_db.insert("PersonCandidate", [("s2", "alice"), ("s2", "bob")])
        fresh = Grounder(fresh_program, fresh_db)
        assert graph_signature(incremental) == graph_signature(fresh)

    def test_delete_document(self):
        program, db = new_app()
        for name, rows in base_rows().items():
            db.insert(name, rows)
        db.insert("Sentence", [("s2", "wed alice bob")])
        db.insert("PersonCandidate", [("s2", "alice"), ("s2", "bob")])
        incremental = Grounder(program, db)
        delta = incremental.apply_changes(deletes={
            "Sentence": [("s2", "wed alice bob")],
            "PersonCandidate": [("s2", "alice"), ("s2", "bob")],
        })
        assert delta.factors_removed == 1
        assert delta.variables_removed == 1

        fresh_program, fresh_db = new_app()
        for name, rows in base_rows().items():
            fresh_db.insert(name, rows)
        fresh = Grounder(fresh_program, fresh_db)
        assert graph_signature(incremental) == graph_signature(fresh)

    def test_evidence_retraction(self):
        program, db = new_app()
        for name, rows in base_rows().items():
            db.insert(name, rows)
        incremental = Grounder(program, db)
        delta = incremental.apply_changes(deletes={"Married": [("E_m", "E_o")]})
        assert delta.evidence_changed == 1
        key = ("MarriedMentions", ("michelle", "obama"))
        var = incremental.graph.variables[incremental.graph.variable_id(key)]
        assert var.evidence is None

    def test_candidate_relation_kept_in_sync(self):
        program, db = new_app()
        for name, rows in base_rows().items():
            db.insert(name, rows)
        grounder = Grounder(program, db)
        grounder.apply_changes(inserts={
            "PersonCandidate": [("s1", "aaron")]})
        assert ("aaron", "michelle") in db["MarriedCandidate"]
        assert ("aaron", "obama") in db["MarriedCandidate"]

    def test_multiple_batches_match_fresh(self):
        program, db = new_app()
        incremental = Grounder(program, db)
        batches = [
            ({"Sentence": [("s1", "and married obama michelle")],
              "PersonCandidate": [("s1", "obama"), ("s1", "michelle")]}, {}),
            ({"EL": [("obama", "E_o"), ("michelle", "E_m")]}, {}),
            ({"Married": [("E_m", "E_o")]}, {}),
            ({"Sentence": [("s2", "met carol dan")],
              "PersonCandidate": [("s2", "carol"), ("s2", "dan")]}, {}),
            ({}, {"PersonCandidate": [("s2", "carol")],
                  "Sentence": [("s2", "met carol dan")]}),
        ]
        for inserts, deletes in batches:
            incremental.apply_changes(inserts=inserts, deletes=deletes)

        fresh_program, fresh_db = new_app()
        for name, rows in base_rows().items():
            fresh_db.insert(name, rows)
        fresh_db.insert("PersonCandidate", [("s2", "dan")])
        fresh = Grounder(fresh_program, fresh_db)
        assert graph_signature(incremental) == graph_signature(fresh)

    def test_delta_counts_zero_for_irrelevant_change(self):
        program, db = new_app()
        for name, rows in base_rows().items():
            db.insert(name, rows)
        grounder = Grounder(program, db)
        delta = grounder.apply_changes(inserts={"EL": [("nobody", "E_x")]})
        assert (delta.factors_added, delta.factors_removed,
                delta.variables_added, delta.variables_removed,
                delta.evidence_changed) == (0,) * 5
