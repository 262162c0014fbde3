"""DDlog: the declarative rule language of DeepDive (paper Section 3).

Candidate mappings, feature-extraction rules with tied weights, distant
supervision rules, and correlation (inference) rules, compiled to datastore
query plans for (incremental) grounding.
"""

from repro.ddlog.ast import (Comparison, Const, Declaration, FixedWeight,
                             HeadConnective, PerRuleWeight, ProgramAst,
                             RelationAtom, Rule, RuleKind, UdfBinding,
                             UdfCondition, UdfWeight, Var, VarWeight)
from repro.ddlog.compiler import (CompileError, Udf, compile_body,
                                  head_projection, program_schemas)
from repro.ddlog.lexer import DDlogSyntaxError, lex
from repro.ddlog.parser import EVIDENCE_SUFFIX, parse_program
from repro.ddlog.program import DDlogProgram
from repro.ddlog.validate import (DDlogValidationError, evidence_base,
                                  validate_program)

__all__ = [
    "CompileError",
    "Comparison",
    "Const",
    "DDlogProgram",
    "DDlogSyntaxError",
    "DDlogValidationError",
    "Declaration",
    "EVIDENCE_SUFFIX",
    "FixedWeight",
    "HeadConnective",
    "PerRuleWeight",
    "ProgramAst",
    "RelationAtom",
    "Rule",
    "RuleKind",
    "Udf",
    "UdfBinding",
    "UdfCondition",
    "UdfWeight",
    "Var",
    "VarWeight",
    "compile_body",
    "evidence_base",
    "head_projection",
    "lex",
    "parse_program",
    "program_schemas",
    "validate_program",
]
