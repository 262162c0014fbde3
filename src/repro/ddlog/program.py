"""The user-facing DDlog program object: parsed rules plus registered UDFs."""

from __future__ import annotations

from typing import Any, Callable

from repro.datastore import Database, Schema
from repro.ddlog.ast import Declaration, ProgramAst, Rule, RuleKind
from repro.ddlog.compiler import Udf, program_schemas
from repro.ddlog.parser import parse_program
from repro.ddlog.validate import validate_program


class DDlogProgram:
    """A parsed DDlog program with its UDF registry.

    >>> program = DDlogProgram.parse('''
    ...     PersonCandidate(s text, m text).
    ...     MarriedCandidate?(m1 text, m2 text).
    ...     MarriedCandidate(m1, m2) :-
    ...         PersonCandidate(s, m1), PersonCandidate(s, m2), [m1 < m2]
    ...         weight = phrase(m1, m2).
    ... ''')  # doctest: +SKIP
    """

    def __init__(self, ast: ProgramAst) -> None:
        self.ast = ast
        self.declarations: dict[str, Declaration] = {d.name: d for d in ast.declarations}
        self.udfs: dict[str, Udf] = {}

    @classmethod
    def parse(cls, source: str) -> "DDlogProgram":
        """Parse and structurally validate ``source``."""
        ast = parse_program(source)
        validate_program(ast, udfs=None)
        return cls(ast)

    # ------------------------------------------------------------------- UDFs
    def udf(self, name: str, returns: str = "text") -> Callable[[Callable], Callable]:
        """Decorator registering a UDF: ``@program.udf('phrase')``."""
        def register(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.register_udf(name, fn, returns)
            return fn
        return register

    def register_udf(self, name: str, fn: Callable[..., Any],
                     returns: str = "text") -> None:
        if name in self.udfs:
            raise ValueError(f"UDF {name!r} already registered")
        self.udfs[name] = Udf(name, fn, returns)

    def validate(self) -> None:
        """Full validation including UDF registration checks."""
        validate_program(self.ast, udfs=set(self.udfs))

    # ------------------------------------------------------------------ rules
    def rules(self, kind: RuleKind | None = None) -> list[Rule]:
        if kind is None:
            return list(self.ast.rules)
        return [rule for rule in self.ast.rules if rule.kind == kind]

    @property
    def derivation_rules(self) -> list[Rule]:
        return self.rules(RuleKind.DERIVATION)

    @property
    def supervision_rules(self) -> list[Rule]:
        return self.rules(RuleKind.SUPERVISION)

    def variable_relations(self) -> list[Declaration]:
        return [d for d in self.ast.declarations if d.is_variable]

    # --------------------------------------------------------------- database
    def create_relations(self, db: Database) -> None:
        """Create every declared relation (and implied ``_Ev`` relations) that
        does not already exist in ``db``."""
        for name, columns in program_schemas(self.ast).items():
            if name not in db:
                db.create(name, Schema.of(**dict(columns)))
