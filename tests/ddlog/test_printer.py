"""Printer tests: parse -> print -> parse must be the identity."""

import pytest

from repro.ddlog import parse_program
from tests.ddlog.printer import print_program, print_rule

EXAMPLES = [
    # the paper's Figure 3 program
    """
    Sentence(s text, content text).
    PersonCandidate(s text, m text).
    MarriedCandidate(m1 text, m2 text).
    MarriedMentions?(m1 text, m2 text).
    EL(m text, e text).
    Married(e1 text, e2 text).
    MarriedCandidate(m1, m2) :- PersonCandidate(s, m1), PersonCandidate(s, m2), [m1 < m2].
    MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2), Sentence(s, sent) weight = phrase(m1, m2, sent).
    MarriedMentions_Ev(m1, m2, true) :- MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
    """,
    # inference rules with every connective and weight form
    """
    A?(x text).
    B?(x text).
    L(x text, y text).
    A(x) => B(y) :- L(x, y) weight = 2.5.
    A(x) = B(x) :- L(x, x) weight = ?.
    !A(x) | B(y) :- L(x, y) weight = 1.
    A(x) & B(y) :- L(x, y) weight = w(x).
    """,
    # constants, UDF bindings and conditions
    """
    R(a text, n int).
    Q(a text, p text).
    Q(a, p) :- R(a, 5), p = glue(a, "suffix"), [!in_dict(a)], [a != "none"].
    """,
]


def normalize(ast):
    return ([(d.name, d.columns, d.is_variable) for d in ast.declarations],
            [(r.kind, r.heads, r.connective, r.body, r.weight)
             for r in ast.rules])


class TestRoundTrip:
    @pytest.mark.parametrize("source", EXAMPLES)
    def test_parse_print_parse_identity(self, source):
        first = parse_program(source)
        printed = print_program(first)
        second = parse_program(printed)
        assert normalize(first) == normalize(second)

    def test_printed_program_is_readable(self):
        ast = parse_program(EXAMPLES[0])
        text = print_program(ast)
        assert "MarriedMentions?(m1 text, m2 text)." in text
        assert "weight = phrase(m1, m2, sent)" in text

    def test_print_rule_single(self):
        ast = parse_program("R(a text). Q(a text). Q(a) :- R(a).")
        assert print_rule(ast.rules[0]) == "Q(a) :- R(a)."

    def test_negated_head_printed(self):
        ast = parse_program("""
        A?(x text).
        L(x text, y text).
        !A(x) | A(y) :- L(x, y) weight = 1.0.
        """)
        assert print_rule(ast.rules[0]).startswith("!A(x) | A(y)")

    def test_string_escaping(self):
        ast = parse_program('R(a text). Q(a text). Q(a) :- R(a), [a != "x\\"y"].')
        reparsed = parse_program(
            "R(a text). Q(a text). " + print_rule(ast.rules[0]))
        assert normalize(ast)[1] == normalize(reparsed)[1]
