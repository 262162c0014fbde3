"""JSON-safe encoding of variable, weight and row keys.

Keys are strings, numbers and nested tuples thereof.  :func:`encode_key`
turns one into a JSON-safe structure and :func:`decode_key` restores it
exactly; the grounder's ``state_dict`` and the serving layer's WAL ops
persist their keys and rows this way.  The factor graph
itself persists as its :class:`~repro.factorgraph.GraphImage` arrays
(checkpoint format 3, :mod:`repro.serve.checkpoint`).
"""

from __future__ import annotations

from typing import Any


def encode_key(key: Any) -> Any:
    """Encode a variable/weight key into JSON-safe structure.

    Tuples become ``{"t": [...]}`` wrappers so nested-tuple keys survive a
    JSON round-trip exactly.
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
