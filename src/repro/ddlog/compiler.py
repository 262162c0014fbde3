"""Compile DDlog rule bodies into datastore query plans.

Each rule body becomes a left-deep join tree over its relation atoms, with
UDF bindings compiled to :class:`~repro.datastore.plan.Extend` nodes and
conditions to :class:`~repro.datastore.plan.Select` nodes.  The resulting
plan's columns are named after the rule's datalog variables, so the grounder
can read head values by name.  Because these are :mod:`repro.datastore.plan`
plans, every rule is automatically incrementally maintainable via DRed.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.datastore.plan import Extend, Join, Plan, Project, Rename, Scan, Select
from repro.ddlog.ast import (Comparison, Const, Declaration, ProgramAst,
                             RelationAtom, Rule, UdfBinding, UdfCondition, Var)

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Ordered comparisons involving NULL are false (SQL semantics); equality
#: keeps Python semantics (None == None) so selections agree with how joins
#: and distinct hash NULL keys.  Both query backends implement this rule.
_ORDERED_OPS = ("<", "<=", ">", ">=")


class CompileError(ValueError):
    """Raised when a validated-looking rule still cannot be compiled."""


class UdfError(RuntimeError):
    """A user-defined function raised during evaluation.

    Wraps the original exception with the UDF name and the offending
    arguments, so the engineer debugging a grounding failure sees *which*
    feature function broke on *which* row -- a debuggable-decisions
    requirement (Section 2.5).
    """

    def __init__(self, udf_name: str, args: tuple, original: Exception) -> None:
        preview = ", ".join(repr(a)[:60] for a in args)
        super().__init__(
            f"UDF {udf_name!r} failed on arguments ({preview}): "
            f"{type(original).__name__}: {original}")
        self.udf_name = udf_name
        self.original = original


class Udf:
    """A registered user-defined function with a declared return type."""

    def __init__(self, name: str, fn: Callable[..., Any], returns: str = "text") -> None:
        self.name = name
        self.fn = fn
        self.returns = returns

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)


def compile_body(rule: Rule, declarations: Mapping[str, Declaration],
                 udfs: Mapping[str, Udf]) -> Plan:
    """Compile ``rule``'s body to a plan whose columns are the bound variables
    (plus UDF binding targets), processed in source order."""
    plan: Plan | None = None
    bound: list[str] = []
    for item in rule.body:
        if isinstance(item, RelationAtom):
            atom_plan, atom_vars = _compile_atom(item, declarations)
            if plan is None:
                plan, bound = atom_plan, atom_vars
            else:
                shared = [v for v in atom_vars if v in bound]
                plan = Join(plan, atom_plan, tuple((v, v) for v in shared))
                bound = bound + [v for v in atom_vars if v not in bound]
        elif isinstance(item, UdfBinding):
            if plan is None:
                raise CompileError("UDF binding before any relation atom")
            udf = _resolve_udf(item.udf, udfs)
            plan = Extend(plan, item.target, udf.returns,
                          _udf_row_fn(udf, item.args))
            bound = bound + [item.target]
        elif isinstance(item, Comparison):
            if plan is None:
                raise CompileError("condition before any relation atom")
            plan = Select(plan, _comparison_fn(item),
                          condition=_comparison_condition(item))
        elif isinstance(item, UdfCondition):
            if plan is None:
                raise CompileError("condition before any relation atom")
            udf = _resolve_udf(item.udf, udfs)
            row_fn = _udf_row_fn(udf, item.args)
            if item.negated:
                plan = Select(plan, lambda row, fn=row_fn: not fn(row))
            else:
                plan = Select(plan, lambda row, fn=row_fn: bool(fn(row)))
        else:  # pragma: no cover - exhaustive
            raise CompileError(f"unknown body item {item!r}")
    if plan is None:
        raise CompileError("rule body has no relation atom")
    return plan


def head_projection(rule: Rule, body_plan: Plan,
                    target_columns: tuple[str, ...]) -> Plan:
    """Plan producing exactly the head tuple columns, named per the target
    relation's declared columns (constants become computed columns).

    Only valid for single-head rules (derivation/feature/supervision).
    """
    head = rule.head
    if len(head.terms) != len(target_columns):
        raise CompileError(
            f"head arity {len(head.terms)} != target arity {len(target_columns)}")
    plan = body_plan
    select_columns: list[str] = []
    rename_map: dict[str, str] = {}
    for position, (term, target) in enumerate(zip(head.terms, target_columns)):
        if isinstance(term, Var):
            select_columns.append(term.name)
            rename_map[term.name] = target
        else:
            synthetic = f"_const_{position}"
            type_name = _const_type(term.value)
            plan = Extend(plan, synthetic, type_name,
                          lambda row, value=term.value: value)
            select_columns.append(synthetic)
            rename_map[synthetic] = target
    return Rename(Project(plan, tuple(select_columns)), tuple(rename_map.items()))


def _const_type(value: Any) -> str:
    """Column type name of a constant head term."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "text"


def _compile_atom(atom: RelationAtom,
                  declarations: Mapping[str, Declaration]) -> tuple[Plan, list[str]]:
    decl = declarations.get(atom.relation)
    if decl is None:
        raise CompileError(f"undeclared relation {atom.relation!r}")
    if len(atom.terms) != decl.arity:
        raise CompileError(f"arity mismatch on {atom.relation}")
    columns = [c for c, _ in decl.columns]
    plan: Plan = Scan(atom.relation)

    # constants -> selections; duplicate variables -> equality selections
    first_position: dict[str, int] = {}
    keep: list[int] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const):
            plan = Select(plan,
                          lambda row, c=columns[position], v=term.value: row[c] == v,
                          condition=("==", ("col", columns[position]),
                                     ("const", term.value)))
        else:
            if term.name in first_position:
                other = first_position[term.name]
                plan = Select(plan, lambda row, a=columns[position],
                              b=columns[other]: row[a] == row[b],
                              condition=("==", ("col", columns[position]),
                                         ("col", columns[other])))
            else:
                first_position[term.name] = position
                keep.append(position)
    variables = [atom.terms[i].name for i in keep]
    plan = Project(plan, tuple(columns[i] for i in keep))
    plan = Rename(plan, tuple((columns[i], atom.terms[i].name) for i in keep
                              if columns[i] != atom.terms[i].name))
    return plan, variables


def _resolve_udf(name: str, udfs: Mapping[str, Udf]) -> Udf:
    udf = udfs.get(name)
    if udf is None:
        raise CompileError(f"UDF {name!r} is not registered")
    return udf


def _udf_row_fn(udf: Udf, args: tuple) -> Callable[[dict], Any]:
    def call(row: dict) -> Any:
        values = tuple(row[a.name] if isinstance(a, Var) else a.value
                       for a in args)
        try:
            return udf(*values)
        except Exception as exc:            # noqa: BLE001 - rewrapped with context
            raise UdfError(udf.name, values, exc) from exc
    return call


def _comparison_fn(item: Comparison) -> Callable[[dict], bool]:
    compare = _COMPARATORS[item.op]
    null_is_false = item.op in _ORDERED_OPS

    def predicate(row: dict) -> bool:
        left = row[item.left.name] if isinstance(item.left, Var) else item.left.value
        right = row[item.right.name] if isinstance(item.right, Var) else item.right.value
        if null_is_false and (left is None or right is None):
            return False
        return compare(left, right)

    return predicate


def _comparison_condition(item: Comparison) -> tuple:
    """Structured ``(op, operand, operand)`` form for the columnar backend."""
    def operand(term):
        return ("col", term.name) if isinstance(term, Var) \
            else ("const", term.value)
    return (item.op, operand(item.left), operand(item.right))


def program_schemas(program: ProgramAst) -> dict[str, tuple[tuple[str, str], ...]]:
    """Column specs for every declared relation plus implied _Ev relations."""
    schemas = {d.name: d.columns for d in program.declarations}
    for decl in program.declarations:
        if decl.is_variable:
            schemas[decl.name + "_Ev"] = decl.columns + (("label", "bool"),)
    return schemas
