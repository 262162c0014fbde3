"""repro.compliance: PII scanning + deterministic anonymization.

The paper's flagship dark-data deployments (classified ads, anti-human-
trafficking) extract exactly the data a served knowledge base must govern:
phone numbers, emails, locations tied to people.  This package is the
governance story for :mod:`repro.serve`:

* **detectors** — regex + confidence PII detectors (email, phone, SSN,
  credit card, person-adjacent location) over raw strings;
* **scanner** — column-by-column scans of rows, databases, and marginal
  mappings (published snapshots included), emitting a typed
  :class:`ComplianceManifest` (per-column detector, hit rate, confidence,
  masked examples) from one :class:`ColumnTally` per column — the same
  tally the publish-time scrub reports from;
* **anonymizer** — keyed deterministic anonymization: HMAC-based stable
  surrogates per detector class, so the same raw value always maps to the
  same surrogate and join keys / dedup survive scrubbing;
* **policy** — a frozen :class:`CompliancePolicy` selecting per-relation /
  per-column actions (``allow | redact | anonymize | drop``);
* **apply** — the snapshot-publish transform: scrub a marginal mapping
  under a policy without perturbing a single probability, so inference
  results are bit-identical pre/post anonymization.

The serving layer applies the policy at its one shared choke point —
snapshot publish (:meth:`repro.serve.engine.ServeEngine._publish`) — so
reader-visible versions are scrubbed while the WAL and checkpoints keep the
raw ground truth.
"""

from repro.compliance.anonymizer import Anonymizer, SurrogateCollision
from repro.compliance.apply import scrub_marginals, scrub_value
from repro.compliance.detectors import (DEFAULT_DETECTORS, DETECTOR_NAMES,
                                        CreditCardDetector, Detection,
                                        Detector, EmailDetector,
                                        LocationDetector, PhoneDetector,
                                        SsnDetector, default_detectors,
                                        luhn_valid, mask)
from repro.compliance.manifest import ColumnReport, ComplianceManifest
from repro.compliance.policy import (VALID_ACTIONS, CompliancePolicy,
                                     PolicyError)
from repro.compliance.scanner import Scanner

__all__ = [
    "Anonymizer",
    "ColumnReport",
    "ComplianceManifest",
    "CompliancePolicy",
    "CreditCardDetector",
    "DEFAULT_DETECTORS",
    "DETECTOR_NAMES",
    "Detection",
    "Detector",
    "EmailDetector",
    "LocationDetector",
    "PhoneDetector",
    "PolicyError",
    "Scanner",
    "SsnDetector",
    "SurrogateCollision",
    "VALID_ACTIONS",
    "default_detectors",
    "luhn_valid",
    "mask",
    "scrub_marginals",
    "scrub_value",
]
