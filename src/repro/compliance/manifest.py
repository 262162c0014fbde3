"""The typed audit artifact compliance scans and publishes emit.

A :class:`ComplianceManifest` is a tuple of per-``(relation, column,
detector)`` :class:`ColumnReport` rows: how many values were scanned, how
many hit, at what mean confidence, with a few *masked* examples (never raw
PII) and — when the manifest came from a publish-time scrub — the action the
policy applied.  Manifests are immutable and mergeable (the sharded router
unions its shards' manifests into one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ColumnReport:
    """One detector's findings over one relation column."""

    relation: str
    column: str
    detector: str
    rows_scanned: int
    hits: int
    confidence: float                  # mean confidence over the hits
    examples: tuple[str, ...] = ()     # masked — never raw values
    action: str = "allow"              # what the policy did about it


@dataclass(frozen=True)
class ComplianceManifest:
    """Findings of one scan or publish-time scrub.  See module docstring."""

    source: str                        # "scan" | "publish"
    reports: tuple[ColumnReport, ...] = ()
    rows_scanned: int = 0

    # ------------------------------------------------------------- queries
    def detected_columns(self, min_confidence: float = 0.0,
                         ) -> list[tuple[str, str]]:
        """Distinct ``(relation, column)`` pairs with at least one hit at or
        above ``min_confidence``, in report order."""
        seen: list[tuple[str, str]] = []
        for report in self.reports:
            key = (report.relation, report.column)
            if report.hits and report.confidence >= min_confidence \
                    and key not in seen:
                seen.append(key)
        return seen

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    # --------------------------------------------------------------- merging
    def merge(self, other: "ComplianceManifest") -> "ComplianceManifest":
        """Union of two manifests (e.g. one per shard).

        Reports for the same ``(relation, column, detector)`` are combined:
        counts add, confidence is the hit-weighted mean, examples union up
        to the wider report's sample size, and a non-``allow`` action wins
        over ``allow`` (shards share one policy, so they never disagree on
        two non-allow actions).
        """
        combined: dict[tuple[str, str, str], ColumnReport] = {}
        for report in (*self.reports, *other.reports):
            key = (report.relation, report.column, report.detector)
            present = combined.get(key)
            if present is None:
                combined[key] = report
                continue
            hits = present.hits + report.hits
            confidence = ((present.confidence * present.hits
                           + report.confidence * report.hits) / hits
                          if hits else 0.0)
            examples = tuple(dict.fromkeys(
                (*present.examples, *report.examples)))[
                    :max(len(present.examples), len(report.examples), 3)]
            action = present.action if present.action != "allow" \
                else report.action
            combined[key] = ColumnReport(
                relation=present.relation, column=present.column,
                detector=present.detector,
                rows_scanned=present.rows_scanned + report.rows_scanned,
                hits=hits, confidence=confidence, examples=examples,
                action=action)
        return ComplianceManifest(
            source=self.source if self.source == other.source
            else f"{self.source}+{other.source}",
            reports=tuple(combined.values()),
            rows_scanned=self.rows_scanned + other.rows_scanned)

    @staticmethod
    def merge_all(manifests: Iterable["ComplianceManifest | None"],
                  ) -> "ComplianceManifest | None":
        """Merge any number of (possibly-None) manifests; None if all are."""
        merged: ComplianceManifest | None = None
        for manifest in manifests:
            if manifest is None:
                continue
            merged = manifest if merged is None else merged.merge(manifest)
        return merged
