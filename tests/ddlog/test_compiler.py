"""Compiler tests: rule bodies evaluated over a database must produce the
joins/selections the datalog semantics dictate."""

import pytest

from repro.datastore import Database
from repro.ddlog import DDlogProgram, RuleKind, compile_body, head_projection


def program_and_db():
    program = DDlogProgram.parse("""
    PersonCandidate(s text, m text).
    Sentence(s text, content text).
    MarriedCandidate(m1 text, m2 text).
    MarriedMentions?(m1 text, m2 text).

    MarriedCandidate(m1, m2) :-
        PersonCandidate(s, m1), PersonCandidate(s, m2), [m1 < m2].

    MarriedMentions(m1, m2) :-
        MarriedCandidate(m1, m2), [realpair(m1, m2)]
        weight = pairkey(m1, m2).
    """)
    program.register_udf("realpair", lambda m1, m2: m1 != "skip", returns="bool")
    program.register_udf("pairkey", lambda m1, m2: f"{m1}|{m2}")
    db = Database()
    program.create_relations(db)
    db.insert("PersonCandidate", [("s1", "a"), ("s1", "b"), ("s2", "c")])
    db.insert("Sentence", [("s1", "text one"), ("s2", "text two")])
    return program, db


class TestBodyCompilation:
    def test_self_join_with_condition(self):
        program, db = program_and_db()
        rule = program.derivation_rules[0]
        plan = compile_body(rule, program.declarations, program.udfs)
        rows = set(plan.evaluate(db))
        # only (a, b) from s1 survives [m1 < m2]; s2 has a single person
        dicts = [plan.schema(db).row_dict(r) for r in rows]
        pairs = {(d["m1"], d["m2"]) for d in dicts}
        assert pairs == {("a", "b")}

    def test_head_projection_to_target_columns(self):
        program, db = program_and_db()
        rule = program.derivation_rules[0]
        body = compile_body(rule, program.declarations, program.udfs)
        plan = head_projection(rule, body, ("m1", "m2"))
        assert set(plan.evaluate(db)) == {("a", "b")}

    def test_constant_in_body_atom(self):
        program = DDlogProgram.parse("""
        R(a text, n int).
        Q(a text).
        Q(a) :- R(a, 5).
        """)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x", 5), ("y", 6)])
        rule = program.derivation_rules[0]
        plan = head_projection(rule, compile_body(rule, program.declarations, {}), ("a",))
        assert set(plan.evaluate(db)) == {("x",)}

    def test_repeated_variable_in_atom(self):
        program = DDlogProgram.parse("""
        R(a text, b text).
        Q(a text).
        Q(a) :- R(a, a).
        """)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x", "x"), ("y", "z")])
        rule = program.derivation_rules[0]
        plan = head_projection(rule, compile_body(rule, program.declarations, {}), ("a",))
        assert set(plan.evaluate(db)) == {("x",)}

    def test_udf_condition_filters(self):
        program, db = program_and_db()
        db.insert("MarriedCandidate", [("a", "b"), ("skip", "b")])
        rule = program.rules(RuleKind.FEATURE)[0]
        plan = compile_body(rule, program.declarations, program.udfs)
        rows = [plan.schema(db).row_dict(r) for r in plan.evaluate(db)]
        assert {(r["m1"], r["m2"]) for r in rows} == {("a", "b")}

    def test_udf_binding_extends_rows(self):
        program = DDlogProgram.parse("""
        R(a text, b text).
        Q(a text, p text).
        Q(a, p) :- R(a, b), p = glue(a, b).
        """)
        program.register_udf("glue", lambda a, b: f"{a}+{b}")
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x", "y")])
        rule = program.derivation_rules[0]
        plan = head_projection(rule, compile_body(rule, program.declarations,
                                                  program.udfs), ("a", "p"))
        assert set(plan.evaluate(db)) == {("x", "x+y")}

    def test_constant_head_term(self):
        program = DDlogProgram.parse("""
        R(a text).
        Q?(a text).
        Q_Ev(a, true) :- R(a).
        """)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("x",)])
        rule = program.supervision_rules[0]
        plan = head_projection(rule, compile_body(rule, program.declarations, {}),
                               ("a", "label"))
        assert set(plan.evaluate(db)) == {("x", True)}

    def test_head_values_reader(self):
        program, db = program_and_db()
        rule = program.derivation_rules[0]
        plan = head_projection(
            rule, compile_body(rule, program.declarations, program.udfs),
            ("m1", "m2"))
        assert set(plan.evaluate(db)) == {("a", "b")}

    def test_cross_product_when_no_shared_vars(self):
        program = DDlogProgram.parse("""
        R(a text).
        S(b text).
        Q(a text, b text).
        Q(a, b) :- R(a), S(b).
        """)
        db = Database()
        program.create_relations(db)
        db.insert("R", [("r1",), ("r2",)])
        db.insert("S", [("s1",)])
        rule = program.derivation_rules[0]
        plan = head_projection(rule, compile_body(rule, program.declarations, {}),
                               ("a", "b"))
        assert set(plan.evaluate(db)) == {("r1", "s1"), ("r2", "s1")}


class TestProgramObject:
    def test_rule_kind_accessors(self):
        program, _ = program_and_db()
        assert len(program.derivation_rules) == 1
        assert len(program.rules(RuleKind.FEATURE)) == 1
        assert program.supervision_rules == []
        assert program.rules(RuleKind.INFERENCE) == []

    def test_create_relations_includes_evidence(self):
        program, db = program_and_db()
        assert "MarriedMentions_Ev" in db
        assert "label" in db["MarriedMentions_Ev"].schema

    def test_duplicate_udf_rejected(self):
        program, _ = program_and_db()
        with pytest.raises(ValueError):
            program.register_udf("realpair", lambda: None)

    def test_validate_checks_udfs(self):
        program = DDlogProgram.parse("""
        R(a text). Q?(a text).
        Q(a) :- R(a) weight = f(a).
        """)
        from repro.ddlog import DDlogValidationError
        with pytest.raises(DDlogValidationError):
            program.validate()
        program.register_udf("f", lambda a: a)
        program.validate()

    def test_variable_relations(self):
        program, _ = program_and_db()
        assert [d.name for d in program.variable_relations()] == ["MarriedMentions"]

    def test_udf_decorator(self):
        program = DDlogProgram.parse("R(a text). Q?(a text). Q(a) :- R(a) weight = g(a).")

        @program.udf("g")
        def g(a):
            return a

        program.validate()
        assert program.udfs["g"]("x") == "x"
