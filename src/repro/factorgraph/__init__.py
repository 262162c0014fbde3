"""Factor graph data structures: mutable build-time graph and the compiled
DimmWitted-style CSR snapshot used for sampling and learning."""

from repro.factorgraph.compiled import CompiledGraph
from repro.factorgraph.factor_functions import FactorFunction, evaluate
from repro.factorgraph.graph import (Factor, FactorGraph, GraphError,
                                     GraphImage, Variable, Weight)
from repro.factorgraph.serialize import (FORMAT_VERSION, SerializationError,
                                         decode_key, dumps, encode_key,
                                         from_dict, loads, to_dict)

__all__ = [
    "CompiledGraph",
    "FORMAT_VERSION",
    "Factor",
    "FactorFunction",
    "FactorGraph",
    "GraphError",
    "GraphImage",
    "SerializationError",
    "Variable",
    "Weight",
    "decode_key",
    "dumps",
    "encode_key",
    "evaluate",
    "from_dict",
    "loads",
    "to_dict",
]
