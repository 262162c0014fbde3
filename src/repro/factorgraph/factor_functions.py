"""Factor function semantics.

A factor graph here is the triple (V, F, w) of the paper's Section 3.3:
Boolean variables, hyperedge factors, and a weight function.  Each factor
evaluates to 0 or 1 for a possible world; its contribution to the log-weight
of the world is ``weight * value``.  Literals may be negated, so a factor
sees the vector of *literal* values (variable value XOR negation).

The function inventory mirrors DeepDive's grounded factor types:

* ``IS_TRUE``   -- unary: value of the single literal (the classifier factor
  produced by feature rules).
* ``IMPLY``     -- body literals imply the head literal (last position).
* ``AND`` / ``OR`` -- conjunction / disjunction of all literals.
* ``EQUAL``     -- binary: 1 iff both literals agree.
"""

from __future__ import annotations

import enum
from typing import Sequence


class FactorFunction(enum.IntEnum):
    """Grounded factor types (int-valued so they pack into numpy arrays)."""

    IS_TRUE = 0
    IMPLY = 1
    AND = 2
    OR = 3
    EQUAL = 4


def evaluate(function: FactorFunction, literals: Sequence[bool]) -> int:
    """Value of ``function`` over boolean ``literals`` (already de-negated;
    a list is fastest, a numpy array works too)."""
    if function == FactorFunction.IS_TRUE:
        return int(literals[0])
    if function == FactorFunction.IMPLY:
        return int(not all(literals[:-1]) or bool(literals[-1]))
    if function == FactorFunction.AND:
        return int(all(literals))
    if function == FactorFunction.OR:
        return int(any(literals))
    if function == FactorFunction.EQUAL:
        return int(bool(literals[0]) == bool(literals[1]))
    raise ValueError(f"unknown factor function {function}")


def evaluate_flip(function: FactorFunction, literals: list[bool],
                  negated: Sequence[bool], own: Sequence[int]) -> int:
    """Value change of ``function`` when a variable occurring at positions
    ``own`` flips 0 -> 1, the other ``literals`` held: the value with every
    occurrence at 1 minus the value with every occurrence at 0.  Overwrites
    the ``own`` entries of ``literals``."""
    for j in own:
        literals[j] = not negated[j]
    value = evaluate(function, literals)
    for j in own:
        literals[j] = negated[j]
    return value - evaluate(function, literals)


def arity_constraint(function: FactorFunction) -> tuple[int, int | None]:
    """(min_arity, max_arity) for ``function``; ``None`` means unbounded."""
    if function == FactorFunction.IS_TRUE:
        return (1, 1)
    if function == FactorFunction.EQUAL:
        return (2, 2)
    if function == FactorFunction.IMPLY:
        return (2, None)
    return (1, None)
