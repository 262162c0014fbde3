"""Factor graph data structures: mutable build-time graph and the compiled
DimmWitted-style CSR snapshot used for sampling and learning."""

from repro.factorgraph.compiled import CompiledGraph
from repro.factorgraph.factor_functions import FactorFunction, evaluate
from repro.factorgraph.graph import (Factor, FactorGraph, GraphError,
                                     GraphImage, Variable, Weight)
from repro.factorgraph.serialize import decode_key, encode_key

__all__ = [
    "CompiledGraph",
    "Factor",
    "FactorFunction",
    "FactorGraph",
    "GraphError",
    "GraphImage",
    "Variable",
    "Weight",
    "decode_key",
    "encode_key",
    "evaluate",
]
