"""Factor-graph serialization.

DeepDive passes grounded factor graphs between the grounder (in the
database) and the sampler (outside it); persisting the graph also lets the
engineer archive each iteration's model next to its error-analysis document,
and the serving layer's checkpoints persist it for crash recovery.  The format
is plain JSON-compatible dicts: keys are stringified, structure is
versioned, and a round-trip is exact for every supported key type (strings,
ints, and nested tuples thereof).

The format (version 2, the only one this build writes or reads) records
each variable, weight, and factor id and the weights' observation counts, so
:func:`from_dict` reconstructs a graph whose id space matches the original
exactly.  ``CompiledGraph`` orders variables by id, so id-exact restore is
what makes checkpoint recovery bit-identical.  Ids are positions in the
graph's columns, so variables and factors are written, and must be read,
in increasing id order.

Loading rejects any other version outright — a payload from another writer
must never be half-parsed into a silently wrong graph — and restores through
:meth:`FactorGraph.from_image`, the one graph restore path, which validates
every factor as :meth:`FactorGraph.add_factors` does (arity, variable and
weight ids), raising :class:`~repro.factorgraph.GraphError`.  Serving
checkpoints store the same image as segment arrays instead
(:mod:`repro.serve.checkpoint`); this JSON form is the export form.
"""

from __future__ import annotations

import json
from typing import Any

from repro.factorgraph.graph import FactorGraph, GraphError, GraphImage

FORMAT_VERSION = 2


class SerializationError(ValueError):
    """Raised when a payload cannot be (de)serialized safely."""


def encode_key(key: Any) -> Any:
    """Encode a variable/weight key into JSON-safe structure.

    Tuples become ``{"t": [...]}`` wrappers so nested-tuple keys survive a
    JSON round-trip exactly.  Public because the serving layer reuses the
    codec for chain-state and grounder-state keys.
    """
    if isinstance(key, tuple):
        return {"t": [encode_key(k) for k in key]}
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    raise TypeError(f"cannot serialize key of type {type(key).__name__}")


def decode_key(data: Any) -> Any:
    """Inverse of :func:`encode_key`."""
    if isinstance(data, dict) and set(data) == {"t"}:
        return tuple(decode_key(k) for k in data["t"])
    return data


def to_dict(graph: FactorGraph) -> dict:
    """Serialize ``graph`` to a JSON-compatible dict (current format)."""
    return {
        "version": FORMAT_VERSION,
        "next_ids": graph.next_ids(),
        "variables": [
            {"id": v.var_id, "key": encode_key(v.key),
             "evidence": v.evidence, "initial": v.initial}
            for v in graph.variables.values()
        ],
        "weights": [
            {"id": w.weight_id, "key": encode_key(w.key), "value": w.value,
             "fixed": w.fixed, "observations": w.observations}
            for w in graph.weights.values()
        ],
        "factors": [
            {"id": f.factor_id, "function": int(f.function),
             "vars": list(f.var_ids), "negated": list(f.negated),
             "weight": f.weight_id}
            for f in graph.factors.values()
        ],
    }


def from_dict(data: dict) -> FactorGraph:
    """Reconstruct a graph serialized by :func:`to_dict`, ids restored
    exactly (gaps left by removals become tombstones)."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported factor-graph format version {version!r}; this "
            f"build reads version {FORMAT_VERSION} only (v1's reader is gone; "
            f"anything higher was written by a newer repro) — refusing to "
            f"guess at the payload's layout.")
    variables, weights, factors = (data["variables"], data["weights"],
                                   data["factors"])
    for item in factors:
        if len(item["negated"]) != len(item["vars"]):
            raise GraphError("negated mask length must match variable count")
    return FactorGraph.from_image(GraphImage(
        next_ids=data.get("next_ids", {}),
        var_id=[item["id"] for item in variables],
        var_key=[decode_key(item["key"]) for item in variables],
        var_evidence=[-1 if item["evidence"] is None
                      else int(bool(item["evidence"])) for item in variables],
        var_initial=[bool(item["initial"]) for item in variables],
        weight_id=[item["id"] for item in weights],
        weight_key=[decode_key(item["key"]) for item in weights],
        weight_value=[item["value"] for item in weights],
        weight_fixed=[bool(item["fixed"]) for item in weights],
        weight_observations=[item["observations"] for item in weights],
        factor_id=[item["id"] for item in factors],
        factor_function=[item["function"] for item in factors],
        factor_weight=[item["weight"] for item in factors],
        factor_arity=[len(item["vars"]) for item in factors],
        edge_var=[v for item in factors for v in item["vars"]],
        edge_negated=[bool(n) for item in factors for n in item["negated"]]))


def dumps(graph: FactorGraph) -> str:
    """Serialize ``graph`` to a JSON string."""
    return json.dumps(to_dict(graph))


def loads(text: str) -> FactorGraph:
    """Inverse of :func:`dumps`."""
    return from_dict(json.loads(text))
