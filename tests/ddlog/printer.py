"""Pretty-printer for DDlog ASTs: the inverse of the parser.

The parser's round-trip oracle: ``tests/ddlog/test_printer.py`` asserts
that parse -> print -> parse is the identity.  Only tests call it, so it
lives under ``tests/``.
"""

from __future__ import annotations

from repro.ddlog.ast import (Comparison, Declaration, FixedWeight,
                             PerRuleWeight, ProgramAst, RelationAtom, Rule,
                             Term, UdfBinding, UdfCondition, UdfWeight, Var,
                             VarWeight, WeightSpec)


def print_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    value = term.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def print_atom(atom: RelationAtom) -> str:
    inner = ", ".join(print_term(t) for t in atom.terms)
    prefix = "!" if atom.negated else ""
    return f"{prefix}{atom.relation}({inner})"


def print_body_item(item) -> str:
    if isinstance(item, RelationAtom):
        return print_atom(item)
    if isinstance(item, Comparison):
        return f"[{print_term(item.left)} {item.op} {print_term(item.right)}]"
    if isinstance(item, UdfCondition):
        args = ", ".join(print_term(a) for a in item.args)
        prefix = "!" if item.negated else ""
        return f"[{prefix}{item.udf}({args})]"
    if isinstance(item, UdfBinding):
        args = ", ".join(print_term(a) for a in item.args)
        return f"{item.target} = {item.udf}({args})"
    raise TypeError(f"unknown body item {item!r}")


def print_weight(spec: WeightSpec) -> str:
    if isinstance(spec, FixedWeight):
        return f"{spec.value:g}"
    if isinstance(spec, PerRuleWeight):
        return "?"
    if isinstance(spec, UdfWeight):
        args = ", ".join(print_term(a) for a in spec.args)
        return f"{spec.udf}({args})"
    if isinstance(spec, VarWeight):
        return spec.var
    raise TypeError(f"unknown weight spec {spec!r}")


def print_rule(rule: Rule) -> str:
    connective = f" {rule.connective.value} " if rule.connective else ""
    head = connective.join(print_atom(h) for h in rule.heads)
    body = ", ".join(print_body_item(item) for item in rule.body)
    weight = f" weight = {print_weight(rule.weight)}" if rule.weight else ""
    return f"{head} :- {body}{weight}."


def print_declaration(decl: Declaration) -> str:
    columns = ", ".join(f"{name} {type_name}" for name, type_name in decl.columns)
    marker = "?" if decl.is_variable else ""
    return f"{decl.name}{marker}({columns})."


def print_program(ast: ProgramAst) -> str:
    """Render the whole program as parseable DDlog source."""
    lines = [print_declaration(d) for d in ast.declarations]
    if ast.declarations and ast.rules:
        lines.append("")
    lines.extend(print_rule(rule) for rule in ast.rules)
    return "\n".join(lines)
