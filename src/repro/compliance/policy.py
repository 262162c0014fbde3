"""Compliance policy: what the serving layer does about detected PII.

A :class:`CompliancePolicy` is a frozen dataclass selecting a per-relation /
per-column action:

``allow``
    Publish the raw value (the default — compliance is opt-in).
``redact``
    Replace detected spans with ``[REDACTED:<detector>]`` markers.  Hides
    the value *and* the join key — two ads redacted to the same marker can
    no longer be linked.
``anonymize``
    Replace detected spans with keyed deterministic surrogates
    (:class:`repro.compliance.anonymizer.Anonymizer`): the value is hidden
    but joins, dedup, and therefore inference survive bit-identically.
``drop``
    Remove the variable from the published snapshot entirely.

Explicit ``rules`` (``(("AdPhone.phone", "anonymize"),)``; ``*`` wildcards
per segment) apply unconditionally to their columns.  Columns without an
explicit rule fall back to *detection*: when a scan finds PII at or above
``min_confidence``, ``default_action`` applies.  So
``CompliancePolicy(enabled=True, default_action="anonymize")`` is the
"scrub everything that looks like PII" posture, and rules carve out
exceptions in either direction.  The environment never configures a
policy: callers build it, and a malformed one fails at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

VALID_ACTIONS = ("allow", "redact", "anonymize", "drop")


class PolicyError(ValueError):
    """Raised for malformed policies or rule patterns."""


def _pattern_matches(pattern: str, relation: str, column: str) -> bool:
    """``relation.column`` patterns; ``*`` wildcards either segment, a bare
    relation name covers all its columns."""
    rel_pat, dot, col_pat = pattern.partition(".")
    if not dot:
        col_pat = "*"
    return (rel_pat == "*" or rel_pat == relation) \
        and (col_pat == "*" or col_pat == column)


@dataclass(frozen=True)
class CompliancePolicy:
    """Frozen publish-time scrubbing policy.  See the module docstring.

    ``enabled``
        Master switch: when false the serving layer publishes raw
        snapshots and attaches no manifest (scans still work on demand).
    ``default_action``
        Applied to columns *detected* as PII (confidence ≥
        ``min_confidence``) that no explicit rule covers.
    ``min_confidence``
        Detection threshold for the default action; explicit rules ignore
        it (the operator said so).
    ``key``
        HMAC key for deterministic surrogates.  Keep it stable for the
        lifetime of a served KB — recovery republishes scrubbed snapshots
        by re-applying the policy, and a changed key changes every
        surrogate.
    ``rules``
        ``(pattern, action)`` pairs, first match wins; patterns are
        ``relation.column`` with per-segment ``*`` wildcards.
    ``sample_rows``
        Scanner sampling cap per column (0 = scan everything).
    ``max_examples``
        Masked example values retained per manifest report.
    """

    enabled: bool = False
    default_action: str = "allow"
    min_confidence: float = 0.5
    key: str = "repro-compliance"
    rules: tuple[tuple[str, str], ...] = ()
    sample_rows: int = 0
    max_examples: int = 3

    def __post_init__(self) -> None:
        if self.default_action not in VALID_ACTIONS:
            raise PolicyError(
                f"unknown default action {self.default_action!r}; "
                f"want one of {VALID_ACTIONS}")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise PolicyError("min_confidence must be in [0, 1]")
        if self.sample_rows < 0:
            raise PolicyError("sample_rows cannot be negative (0 = all)")
        if self.max_examples < 0:
            raise PolicyError("max_examples cannot be negative")
        if not self.key:
            raise PolicyError("anonymization key cannot be empty")
        normalized = []
        for rule in self.rules:
            # a flat ("AdPhone.phone", "drop") iterates as two bare strings
            if not (isinstance(rule, (tuple, list)) and len(rule) == 2
                    and all(isinstance(part, str) for part in rule)):
                raise PolicyError(
                    f"malformed compliance rule {rule!r}; want a "
                    f"(pattern, action) pair of strings, e.g. "
                    f"rules=(('AdPhone.phone', 'drop'),)")
            pattern, action = rule
            if action not in VALID_ACTIONS:
                raise PolicyError(
                    f"unknown action {action!r} for rule {pattern!r}; "
                    f"want one of {VALID_ACTIONS}")
            normalized.append((pattern, action))
        object.__setattr__(self, "rules", tuple(normalized))

    # -------------------------------------------------------------- queries
    def action_for(self, relation: str, column: str) -> str | None:
        """The explicitly ruled action for ``relation.column``, or None when
        no rule matches (detection + ``default_action`` then decide)."""
        for pattern, action in self.rules:
            if _pattern_matches(pattern, relation, column):
                return action
        return None

    @property
    def active(self) -> bool:
        """True when an enabled policy can actually change a snapshot."""
        return self.enabled and (
            self.default_action != "allow"
            or any(action != "allow" for _pattern, action in self.rules))

    # ------------------------------------------------------------ plumbing
    def with_options(self, **changes) -> "CompliancePolicy":
        """A copy with ``changes`` applied (the policy itself is frozen)."""
        return replace(self, **changes)
