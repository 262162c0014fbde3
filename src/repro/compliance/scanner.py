"""Column-by-column PII scanning over rows, databases, and marginals.

The scanner is the audit half of the compliance subsystem: it runs every
detector over every (sampled) value of every column and aggregates the hits
into a :class:`~repro.compliance.manifest.ComplianceManifest`.  One row loop,
:meth:`Scanner.scan_rows`, serves both sources the serving layer needs:

* **databases** — the offline sweep behind ``KBClient.scan()``: raw
  extracted relations, candidate tables, and base KB tables, column-named
  from their schemas;
* **marginal mappings** — what snapshot publish scrubs, and what a reader
  of a published snapshot sees (``scan_marginals(snapshot.marginals,
  source="snapshot")`` verifies that a redaction policy left nothing
  behind): variable keys are ``(relation, values_tuple)``, column names
  resolved by :func:`marginal_columns`.

Every per-column report, the publish-time scrub's included
(:func:`repro.compliance.apply.scrub_marginals`), comes from one
:class:`ColumnTally`.

Scans are deterministic: rows are visited in relation iteration order,
sampling (``CompliancePolicy.sample_rows``) takes a prefix of each column
rather than a random draw, and detectors are pure — so two scans of the
same store always produce the same manifest (hypothesis-tested).
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.compliance.detectors import (DEFAULT_DETECTORS, Detection,
                                        Detector, mask)
from repro.compliance.manifest import ColumnReport, ComplianceManifest
from repro.compliance.policy import CompliancePolicy


class ColumnTally:
    """Streaming per-column detection state: the cells folded in and, per
    detector, hit counts, confidence sums, and masked examples — cell values
    are never retained, so the state is O(detectors), not O(rows)."""

    __slots__ = ("max_examples", "scanned", "hits", "confidence", "examples")

    def __init__(self, max_examples: int) -> None:
        self.max_examples = max_examples
        self.scanned = 0
        self.hits: dict[str, int] = {}
        self.confidence: dict[str, float] = {}
        self.examples: dict[str, list[str]] = {}

    def add(self, detections: Iterable[Detection]) -> None:
        """Fold one cell's detections in."""
        self.scanned += 1
        for detection in detections:
            name = detection.detector
            if name in self.hits:
                self.hits[name] += 1
                self.confidence[name] += detection.confidence
            else:
                self.hits[name] = 1
                self.confidence[name] = detection.confidence
                self.examples[name] = []
            examples = self.examples[name]
            if len(examples) < self.max_examples:
                masked = mask(detection.value)
                if masked not in examples:
                    examples.append(masked)

    def reports(self, relation: str, column: str,
                detector_names: Iterable[str],
                action: str = "allow") -> list[ColumnReport]:
        """One report per detector in ``detector_names`` that hit, in that
        order."""
        return [ColumnReport(
            relation=relation, column=column, detector=name,
            rows_scanned=self.scanned, hits=self.hits[name],
            confidence=self.confidence[name] / self.hits[name],
            examples=tuple(self.examples[name]), action=action)
            for name in detector_names if name in self.hits]


def marginal_columns(marginals: Iterable,
                     schemas: Mapping[str, Sequence[str]] | None,
                     ) -> dict[str, tuple[list[str], list[tuple]]]:
    """Group marginal keys ``(relation, values)`` into each relation's
    ``(column_names, rows)``, relations in first-seen order.

    Columns take the relation's schema names, then positional ``col<N>``
    names past the schema (or without one); a relation is as wide as its
    widest key.
    """
    schemas = schemas or {}
    grouped: dict[str, list[tuple]] = {}
    for (relation, values) in marginals:
        grouped.setdefault(relation, []).append(values)
    columns: dict[str, tuple[list[str], list[tuple]]] = {}
    for relation, rows in grouped.items():
        width = max(len(values) for values in rows)
        names = list(schemas.get(relation, ()))[:width]
        names += [f"col{i}" for i in range(len(names), width)]
        columns[relation] = (names, rows)
    return columns


def _concat(manifests: Sequence[ComplianceManifest],
            source: str) -> ComplianceManifest:
    return ComplianceManifest(
        source=source,
        reports=tuple(report for manifest in manifests
                      for report in manifest.reports),
        rows_scanned=sum(manifest.rows_scanned for manifest in manifests))


class Scanner:
    """Detector battery + aggregation policy for one compliance sweep."""

    def __init__(self, policy: CompliancePolicy | None = None,
                 detectors: Sequence[Detector] = DEFAULT_DETECTORS) -> None:
        self.policy = policy if policy is not None else CompliancePolicy()
        self.detectors = tuple(detectors)

    def detect_value(self, value) -> list[Detection]:
        """Every detector's findings over one cell value (non-strings are
        stringified; numbers routinely hide phone/SSN shapes)."""
        text = value if isinstance(value, str) else str(value)
        found: list[Detection] = []
        for detector in self.detectors:
            found.extend(detector.detect(text))
        return found

    def scan_rows(self, relation: str, columns: Sequence[str],
                  rows: Iterable) -> ComplianceManifest:
        """Scan ``rows`` (any iterable of tuples) under ``columns`` names.

        Streams: each cell goes straight into its column's tally and no
        row is retained, so segmented (larger-than-memory) relations never
        materialize.  Under ``sample_rows`` a column stops after that many
        cells, and the loop stops reading rows once every column has them;
        the manifest's ``rows_scanned`` is the number of rows read.  Cells
        past ``columns`` are ignored.
        """
        limit = self.policy.sample_rows
        tallies = [ColumnTally(self.policy.max_examples) for _ in columns]
        read = 0
        for row in rows:
            read += 1
            for tally, value in zip(tallies, row):
                if not limit or tally.scanned < limit:
                    tally.add(self.detect_value(value))
            if limit and read >= limit \
                    and all(tally.scanned >= limit for tally in tallies):
                break
        names = [detector.name for detector in self.detectors]
        reports = [report for column, tally in zip(columns, tallies)
                   for report in tally.reports(relation, column, names)]
        return ComplianceManifest(source="scan", reports=tuple(reports),
                                  rows_scanned=read)

    def scan_database(self, db, relations: Sequence[str] | None = None,
                      ) -> ComplianceManifest:
        """Sweep ``db`` (every relation, or just ``relations``)."""
        names = list(relations) if relations is not None else db.names()
        started = perf_counter()
        with obs.span("compliance.scan", relations=len(names)) as sp:
            manifest = _concat([
                self.scan_rows(name, db[name].schema.names,
                               db[name].iter_rows())
                for name in names], "scan")
            sp.set(rows=manifest.rows_scanned, findings=len(manifest))
        if obs.enabled():
            obs.observe("compliance.scan.seconds", perf_counter() - started)
            obs.count("compliance.scan.rows", manifest.rows_scanned)
            obs.count("compliance.scan.findings", len(manifest))
        return manifest

    def scan_marginals(self, marginals: Mapping,
                       schemas: Mapping[str, Sequence[str]] | None = None,
                       source: str = "scan") -> ComplianceManifest:
        """Scan a marginal mapping (variable key -> probability), relations
        in sorted order; see :func:`marginal_columns` for column names."""
        columns = marginal_columns(marginals, schemas)
        return _concat([self.scan_rows(relation, *columns[relation])
                        for relation in sorted(columns)], source)
