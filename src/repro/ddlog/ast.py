"""Abstract syntax for the DDlog-like rule language.

The language covers the constructs of the paper's Section 3:

* relation declarations, with ``?`` marking *variable relations* whose tuples
  are Boolean random variables (``MarriedMentions?(m1 text, m2 text).``);
* candidate mappings -- plain datalog derivation rules (R1 in the paper);
* feature rules -- a variable-relation head plus ``weight = udf(...)``,
  grounding one ``IS_TRUE`` factor per feature value (FE1);
* supervision rules -- derivation rules whose head is an ``_Ev`` evidence
  relation with a boolean label column (S1);
* inference rules -- multiple variable-relation head atoms joined by a
  logical connective, grounding correlation factors (Markov-logic style).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Union


# --------------------------------------------------------------------- terms
@dataclass(frozen=True)
class Var:
    """A datalog variable, e.g. ``m1``."""

    name: str


@dataclass(frozen=True)
class Const:
    """A literal constant term (string, number, or boolean)."""

    value: Any


Term = Union[Var, Const]


# --------------------------------------------------------------------- atoms
@dataclass(frozen=True)
class RelationAtom:
    """``Name(t1, t2, ...)`` in a rule body or head."""

    relation: str
    terms: tuple[Term, ...]
    negated: bool = False       # only meaningful in heads of inference rules

    def variables(self) -> list[str]:
        return [t.name for t in self.terms if isinstance(t, Var)]


@dataclass(frozen=True)
class Comparison:
    """A bracketed condition ``[x < y]`` / ``[m1 != m2]``."""

    op: str                     # one of == != < <= > >=
    left: Term
    right: Term


@dataclass(frozen=True)
class UdfCondition:
    """A bracketed boolean UDF filter ``[is_title_case(m)]``."""

    udf: str
    args: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class UdfBinding:
    """A body computation ``z = f(x, y)`` binding ``z`` per row."""

    target: str
    udf: str
    args: tuple[Term, ...]


BodyItem = Union[RelationAtom, Comparison, UdfCondition, UdfBinding]


# ------------------------------------------------------------------- weights
@dataclass(frozen=True)
class FixedWeight:
    """``weight = 5.0`` -- an untrained weight shared by all groundings."""

    value: float


@dataclass(frozen=True)
class UdfWeight:
    """``weight = phrase(m1, m2, sent)`` -- ties weights by the UDF's value.

    The UDF may return ``None`` (no factor), one key, or an iterable of keys
    (one factor per key) -- DeepDive's multi-feature extractors.
    """

    udf: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class VarWeight:
    """``weight = phrasetext`` -- ties weights by a bound variable's value."""

    var: str


@dataclass(frozen=True)
class PerRuleWeight:
    """``weight = ?`` -- one learned weight for the whole rule."""


WeightSpec = Union[FixedWeight, UdfWeight, VarWeight, PerRuleWeight]


# --------------------------------------------------------------------- rules
class HeadConnective(enum.Enum):
    """Connective joining multiple head atoms of an inference rule."""

    IMPLY = "=>"
    AND = "&"
    OR = "|"
    EQUAL = "="


class RuleKind(enum.Enum):
    DERIVATION = "derivation"       # candidate mapping / plain view
    FEATURE = "feature"             # IS_TRUE factor per grounding
    SUPERVISION = "supervision"     # populates an _Ev evidence relation
    INFERENCE = "inference"         # correlation factor over >= 2 atoms


@dataclass(frozen=True)
class Rule:
    """One DDlog rule, already classified by the parser."""

    kind: RuleKind
    heads: tuple[RelationAtom, ...]
    connective: HeadConnective | None
    body: tuple[BodyItem, ...]
    weight: WeightSpec | None
    text: str = ""                  # original source, for error analysis

    @property
    def head(self) -> RelationAtom:
        return self.heads[0]


# ------------------------------------------------------------------- program
@dataclass(frozen=True)
class Declaration:
    """A relation declaration with typed columns."""

    name: str
    columns: tuple[tuple[str, str], ...]    # (column name, type name)
    is_variable: bool = False               # declared with '?'

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass
class ProgramAst:
    """The parsed program: declarations plus rules in source order."""

    declarations: list[Declaration] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
