"""Grounding tests built around the paper's spouse example (Figure 3)."""

import pytest

from repro.datastore import Database
from repro.ddlog import DDlogProgram
from repro.factorgraph import FactorFunction
from repro.grounding import Grounder

SPOUSE_PROGRAM = """
Sentence(s text, content text).
PersonCandidate(s text, m text).
MarriedCandidate(m1 text, m2 text).
MarriedMentions?(m1 text, m2 text).
EL(m text, e text).
Married(e1 text, e2 text).
Sibling(e1 text, e2 text).

MarriedCandidate(m1, m2) :-
    PersonCandidate(s, m1), PersonCandidate(s, m2), [m1 < m2].

MarriedMentions(m1, m2) :-
    MarriedCandidate(m1, m2), PersonCandidate(s, m1), Sentence(s, sent)
    weight = phrase(m1, m2, sent).

MarriedMentions_Ev(m1, m2, true) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).

MarriedMentions_Ev(m1, m2, false) :-
    MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Sibling(e1, e2).
"""


def make_app(extra_rules=""):
    program = DDlogProgram.parse(SPOUSE_PROGRAM + extra_rules)
    program.register_udf("phrase", lambda m1, m2, sent: f"between:{sent.split()[1]}")
    db = Database()
    program.create_relations(db)
    db.insert("Sentence", [("s1", "obama and michelle married"),
                           ("s2", "alice visited bob")])
    db.insert("PersonCandidate", [("s1", "obama"), ("s1", "michelle"),
                                  ("s2", "alice"), ("s2", "bob")])
    db.insert("EL", [("obama", "E_obama"), ("michelle", "E_michelle")])
    # KB stored in both orders, as a real marriage KB would be
    db.insert("Married", [("E_obama", "E_michelle"), ("E_michelle", "E_obama")])
    return program, db


class TestInitialGrounding:
    def test_candidate_relation_populated(self):
        program, db = make_app()
        Grounder(program, db)
        assert set(db["MarriedCandidate"]) == {("michelle", "obama"), ("alice", "bob")}

    def test_variables_created_per_candidate(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        keys = {v.key for v in grounder.graph.variables.values()}
        assert ("MarriedMentions", ("michelle", "obama")) in keys
        assert ("MarriedMentions", ("alice", "bob")) in keys

    def test_feature_factors_are_unary(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        assert all(f.function == FactorFunction.IS_TRUE
                   for f in grounder.graph.factors.values())
        assert grounder.graph.num_factors == 2

    def test_weights_tied_by_feature_value(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        # phrase() returns 'between:and' for s1 and 'between:visited' for s2
        keys = {w.key for w in grounder.graph.weights.values()}
        assert any("between:and" in str(k) for k in keys)
        assert any("between:visited" in str(k) for k in keys)

    def test_evidence_applied(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        var = grounder.graph.variables[
            grounder.graph.variable_id(("MarriedMentions", ("michelle", "obama")))]
        assert var.evidence is True

    def test_unsupervised_candidate_has_no_evidence(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        var = grounder.graph.variables[
            grounder.graph.variable_id(("MarriedMentions", ("alice", "bob")))]
        assert var.evidence is None

    def test_var_relation_rows_inserted(self):
        program, db = make_app()
        Grounder(program, db)
        assert ("michelle", "obama") in db["MarriedMentions"]

    def test_weight_provenance_recorded(self):
        program, db = make_app()
        grounder = Grounder(program, db)
        assert grounder.weight_provenance
        provenance = next(iter(grounder.weight_provenance.values()))
        assert "MarriedMentions" in provenance.rule_text


class TestEvidenceConflicts:
    def test_conflicting_labels_abstain(self):
        program, db = make_app()
        # obama & michelle are ALSO (incorrectly) in the sibling KB -> conflict
        db.insert("Sibling", [("E_michelle", "E_obama")])
        grounder = Grounder(program, db)
        var = grounder.graph.variables[
            grounder.graph.variable_id(("MarriedMentions", ("michelle", "obama")))]
        assert var.evidence is None

    def test_majority_wins(self):
        program, db = make_app()
        # a second entity link for obama yields a second positive vote,
        # outvoting the single (incorrect) sibling entry
        db.insert("EL", [("obama", "E_obama2")])
        db.insert("Married", [("E_michelle", "E_obama2")])
        db.insert("Sibling", [("E_michelle", "E_obama")])
        grounder = Grounder(program, db)
        var = grounder.graph.variables[
            grounder.graph.variable_id(("MarriedMentions", ("michelle", "obama")))]
        assert var.evidence is True


class TestInferenceRules:
    SYMMETRY = """
    MarriedMentions(m1, m2) = MarriedMentions(m2, m1) :-
        MarriedCandidate(m1, m2), MarriedCandidate(m2, m1)
        weight = 5.0.
    """

    def test_equal_factor_grounded(self):
        program, db = make_app(self.SYMMETRY)
        # add the reversed candidate pair so the symmetry rule fires
        db.insert("PersonCandidate", [("s3", "michelle"), ("s3", "obama")])
        db.insert("Sentence", [("s3", "michelle and obama wed")])
        # reversed pair requires m1 < m2 both ways, impossible with R1 alone;
        # instead check that the rule grounds when candidates exist both ways
        grounder = Grounder(program, db)
        equal_factors = [f for f in grounder.graph.factors.values()
                         if f.function == FactorFunction.EQUAL]
        assert equal_factors == []  # [m1 < m2] forbids reversed candidates

    def test_imply_rule(self):
        program = DDlogProgram.parse("""
        Link(x text, y text).
        A?(x text).
        B?(x text).
        A(x) :- Link(x, y) weight = 1.0.
        A(x) => B(y) :- Link(x, y) weight = 2.0.
        """)
        db = Database()
        program.create_relations(db)
        db.insert("Link", [("p", "q")])
        grounder = Grounder(program, db)
        imply = [f for f in grounder.graph.factors.values()
                 if f.function == FactorFunction.IMPLY]
        assert len(imply) == 1
        keys = [grounder.graph.variables[v].key for v in imply[0].var_ids]
        assert keys == [("A", ("p",)), ("B", ("q",))]
        weight = grounder.graph.weights[imply[0].weight_id]
        assert weight.fixed and weight.value == 2.0

    def test_negated_head(self):
        program = DDlogProgram.parse("""
        Link(x text, y text).
        A?(x text).
        !A(x) | A(y) :- Link(x, y) weight = 1.5.
        """)
        db = Database()
        program.create_relations(db)
        db.insert("Link", [("p", "q")])
        grounder = Grounder(program, db)
        factor = next(iter(grounder.graph.factors.values()))
        assert factor.function == FactorFunction.OR
        assert factor.negated == (True, False)


class TestUdfWeightShapes:
    def test_udf_returning_none_grounds_nothing(self):
        program = DDlogProgram.parse("""
        R(a text).
        Q?(a text).
        Q(a) :- R(a) weight = f(a).
        """)
        program.register_udf("f", lambda a: None)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x",)])
        grounder = Grounder(program, db)
        assert grounder.graph.num_factors == 0
        assert grounder.graph.num_variables == 0

    def test_udf_returning_list_grounds_many(self):
        program = DDlogProgram.parse("""
        R(a text).
        Q?(a text).
        Q(a) :- R(a) weight = f(a).
        """)
        program.register_udf("f", lambda a: [f"feat1:{a}", f"feat2:{a}"])
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x",)])
        grounder = Grounder(program, db)
        assert grounder.graph.num_factors == 2
        assert grounder.graph.num_variables == 1
        assert grounder.graph.num_weights == 2

    def test_per_rule_weight_shared(self):
        program = DDlogProgram.parse("""
        R(a text).
        Q?(a text).
        Q(a) :- R(a) weight = ?.
        """)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x",), ("y",)])
        grounder = Grounder(program, db)
        assert grounder.graph.num_weights == 1
        assert grounder.graph.num_factors == 2
