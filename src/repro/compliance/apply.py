"""The snapshot-publish transform: scrub marginals without touching one.

:func:`scrub_marginals` is what the serving engine calls while constructing
every published :class:`~repro.serve.snapshot.Snapshot`: it rewrites the
variable *keys* (``(relation, values_tuple)``) under a
:class:`~repro.compliance.policy.CompliancePolicy` and copies the
probabilities through untouched.  The guarantees the property suite pins:

* probabilities are bit-identical — the scrub never recomputes, rounds, or
  reorders a marginal, it only relabels (or drops) keys;
* under ``anonymize`` the relabeling is *injective* (HMAC surrogates plus a
  collision backstop), so acceptance decisions, joins, and dedup survive:
  ``scrubbed.output_tuples(r)`` is exactly ``{transform(t) for t in
  raw.output_tuples(r)}``;
* the transform is a pure function of ``(marginals, schemas, policy)`` —
  recovery replays publish the same scrubbed views bit for bit.

Two degradations are defined rather than left to chance:

* a :class:`~repro.compliance.anonymizer.SurrogateCollision` during publish
  degrades *that cell* to redaction instead of raising — a publish runs
  inside the service apply loop, and a one-in-10^8 birthday event must not
  kill serving (direct :class:`Anonymizer` use still raises, so audits and
  the property suite keep the strict backstop);
* when redaction collapses two distinct variable keys onto one scrubbed
  key, the published probability is the **maximum** across the merged
  originals — commutative, so independent of publish order, and
  conservative for thresholded acceptance (a tuple that was accepted raw
  stays accepted scrubbed).

Action semantics per column (see :mod:`repro.compliance.policy`): explicit
rules transform the **whole cell value** (the operator declared the column
sensitive, matched or not); the detection-driven default action transforms
**detected spans only**, leaving non-PII cells of a mixed column alone.
"""

from __future__ import annotations

from time import perf_counter
from typing import Mapping, Sequence

from repro import obs
from repro.compliance.anonymizer import Anonymizer, SurrogateCollision
from repro.compliance.detectors import DEFAULT_DETECTORS, Detector
from repro.compliance.manifest import ColumnReport, ComplianceManifest
from repro.compliance.policy import CompliancePolicy
from repro.compliance.scanner import ColumnTally, Scanner, marginal_columns


def scrub_value(value, action: str, detector: str, anonymizer: Anonymizer,
                detections=None):
    """One cell under one action.

    With ``detections`` (the detection-driven path) only the detected spans
    are rewritten; without (the explicit-rule path) the whole value is.
    """
    if action == "allow":
        return value
    text = value if isinstance(value, str) else str(value)
    if detections:
        return anonymizer.anonymize_text(text, detections,
                                         redact=action != "anonymize")
    if action == "anonymize":
        return anonymizer.surrogate(detector, text)
    return f"[REDACTED:{detector}]"


def scrub_marginals(marginals: Mapping,
                    schemas: Mapping[str, Sequence[str]] | None,
                    policy: CompliancePolicy,
                    anonymizer: Anonymizer | None = None,
                    detectors: Sequence[Detector] = DEFAULT_DETECTORS,
                    ) -> tuple[dict, ComplianceManifest]:
    """``(scrubbed_marginals, manifest)`` for one publish.  See above."""
    started = perf_counter()
    anonymizer = anonymizer if anonymizer is not None \
        else Anonymizer(policy.key)
    scanner = Scanner(policy, detectors)

    # ---- pass 1: detect every distinct cell once, decide column actions
    # (relation, column_index) -> {"action", "explicit", "detector",
    # "reports"}
    column_plan: dict[tuple[str, int], dict] = {}
    # (relation, column_index, cell) -> [Detection] at/above min_confidence
    cell_hits: dict[tuple[str, int, object], list] = {}
    for relation, (names, rows) in marginal_columns(marginals,
                                                    schemas).items():
        tallies = [ColumnTally(policy.max_examples) for _ in names]
        for values in rows:
            for index, cell in enumerate(values):
                key = (relation, index, cell)
                hits = cell_hits.get(key)
                if hits is None:
                    hits = cell_hits[key] = [
                        d for d in scanner.detect_value(cell)
                        if d.confidence >= policy.min_confidence]
                tallies[index].add(hits)
        for index, (column, tally) in enumerate(zip(names, tallies)):
            explicit = policy.action_for(relation, column)
            if explicit is not None:
                action = explicit
            elif tally.hits and policy.default_action != "allow":
                action = policy.default_action
            else:
                action = "allow"
            reports = tally.reports(relation, column, sorted(tally.hits),
                                    action)
            if explicit is not None and explicit != "allow" \
                    and not reports:
                # the operator ruled a column the detectors missed; record
                # the action so the manifest shows the full applied policy
                reports.append(ColumnReport(
                    relation=relation, column=column, detector="rule",
                    rows_scanned=tally.scanned, hits=tally.scanned,
                    confidence=1.0, examples=(), action=action))
            column_plan[(relation, index)] = {
                "action": action, "explicit": explicit is not None,
                "detector": max(tally.hits, default="value",
                                key=lambda name: (tally.hits[name], name)),
                "reports": reports}

    # ---- pass 2: rebuild the mapping in original publish order
    scrubbed: dict = {}
    dropped = rewritten = collisions = surrogate_collisions = 0
    for (relation, values), probability in marginals.items():
        new_values = []
        drop = False
        changed = False
        for index, cell in enumerate(values):
            plan = column_plan.get((relation, index))
            if plan is None or plan["action"] == "allow":
                new_values.append(cell)
                continue
            if plan["action"] == "drop":
                drop = True
                break
            if plan["explicit"]:
                detections = None
            else:
                detections = cell_hits.get((relation, index, cell), ())
            if detections is not None and not detections:
                new_cell = cell
            else:
                try:
                    new_cell = scrub_value(cell, plan["action"],
                                           plan["detector"], anonymizer,
                                           detections=detections)
                except SurrogateCollision:
                    # birthday event inside the surrogate space: degrade
                    # this cell to redaction rather than failing the
                    # publish (and with it the service apply loop)
                    surrogate_collisions += 1
                    new_cell = scrub_value(cell, "redact",
                                           plan["detector"], anonymizer,
                                           detections=detections)
            changed = changed or new_cell != cell
            new_values.append(new_cell)
        if drop:
            dropped += 1
            continue
        key = (relation, tuple(new_values))
        if key in scrubbed:
            # reachable via redact (or a degraded surrogate): keep the max
            # probability — commutative, hence publish-order independent
            collisions += 1
            scrubbed[key] = max(scrubbed[key], probability)
        else:
            scrubbed[key] = probability
        if changed:
            rewritten += 1

    reports = [report
               for (_rel, _idx) in sorted(column_plan)
               for report in column_plan[(_rel, _idx)]["reports"]]
    manifest = ComplianceManifest(source="publish", reports=tuple(reports),
                                  rows_scanned=len(marginals))
    if obs.enabled():
        obs.observe("compliance.publish.seconds", perf_counter() - started)
        obs.count("compliance.publish.rewritten", rewritten)
        obs.count("compliance.publish.dropped", dropped)
        if collisions:
            obs.count("compliance.publish.collisions", collisions)
        if surrogate_collisions:
            obs.count("compliance.publish.surrogate_collisions",
                      surrogate_collisions)
    return scrubbed, manifest
