"""Keyed deterministic anonymization: stable surrogates per detector class.

The serving layer's headline compliance invariant is that redaction must not
perturb inference: anonymization has to be a *join-preserving* transform, so
marginals and acceptance decisions are bit-identical pre/post scrubbing
(Shin et al.'s incremental-KBC argument applied to governance).  Two
properties deliver that:

* **stability** — a surrogate is ``HMAC(key, detector || value)`` rendered
  into a detector-shaped template, so the same raw value maps to the same
  surrogate in every scan, every publish, every recovery replay.  Join keys
  and dedup survive: two relations citing the same phone number still join
  after scrubbing.
* **injectivity** — distinct raw values map to distinct surrogates.  Each
  detector uses the widest surrogate space its shape affords (phone 10^10,
  credit card 10^15, email 2^48, location 2^64; SSN is the narrowest at
  10^8 — nine digits with a fixed invalid leading ``9``), and
  :class:`Anonymizer` keeps a per-detector registry as a backstop: a
  collision raises :class:`SurrogateCollision` rather than silently merging
  two people's records.  The publish path additionally degrades a colliding
  cell to redaction (see :mod:`repro.compliance.apply`) so a one-in-10^8
  event never takes down a serving loop.

Surrogates are recognisably synthetic (``anon.3f2a…@redacted.example``,
``555-0102334455``) so a scrubbed export can never be mistaken for ground
truth, while remaining shaped enough for downstream parsers.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

from repro.compliance.detectors import Detection


class SurrogateCollision(RuntimeError):
    """Two distinct raw values landed on one surrogate (astronomically
    unlikely; raised rather than silently merging identities)."""


#: Separator between detector class and raw value inside the MAC input —
#: a byte that appears in neither, so ("phone", "x") never aliases
#: ("phonex", "").
_SEP = b"\x1f"


class Anonymizer:
    """Deterministic keyed surrogate factory.  See the module docstring.

    One instance per run (the serve engine keeps one for its lifetime); the
    registry it accumulates is only the collision backstop — surrogates
    themselves are pure functions of ``(key, detector, value)``.
    """

    def __init__(self, key: str = "repro-compliance") -> None:
        self.key = key
        self._key_bytes = key.encode("utf-8")
        # detector -> surrogate -> raw, the injectivity backstop
        self._seen: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------- digest
    def _digest(self, detector: str, value: str) -> bytes:
        mac = hmac.new(self._key_bytes,
                       detector.encode("utf-8") + _SEP
                       + value.encode("utf-8"),
                       hashlib.sha256)
        return mac.digest()

    @staticmethod
    def _digits(digest: bytes, count: int) -> str:
        return str(int.from_bytes(digest[:12], "big") % (10 ** count)) \
            .zfill(count)

    # ----------------------------------------------------------- surrogates
    def surrogate(self, detector: str, value: str) -> str:
        """The stable surrogate for ``value`` under ``detector``'s shape."""
        digest = self._digest(detector, value)
        if detector == "email":
            token = digest[:6].hex()
            surrogate = f"anon.{token}@redacted.example"
        elif detector == "phone":
            surrogate = f"555-{self._digits(digest, 10)}"
        elif detector == "ssn":
            # 9XX area numbers are never issued, so the surrogate stays
            # recognisably synthetic while keeping all 8 remaining digits
            # of entropy (the widest space an SSN shape affords)
            digits = self._digits(digest, 8)
            surrogate = f"9{digits[:2]}-{digits[2:4]}-{digits[4:]}"
        elif detector == "credit_card":
            surrogate = "9" + self._digits(digest, 15)
        elif detector == "location":
            surrogate = f"Place-{digest[:8].hex()}"
        else:
            surrogate = f"anon:{digest[:8].hex()}"
        registry = self._seen.setdefault(detector, {})
        previous = registry.setdefault(surrogate, value)
        if previous != value:
            raise SurrogateCollision(
                f"{detector} surrogate {surrogate!r} already stands for a "
                f"different raw value; rotate the anonymization key")
        return surrogate

    def anonymize_text(self, text: str, detections: Iterable[Detection],
                       redact: bool = False) -> str:
        """``text`` with every detected span replaced by its surrogate, or
        with ``redact`` by a class marker (``[REDACTED:phone]``), which
        destroys the value where a surrogate keeps join keys.

        Spans are replaced right-to-left so earlier offsets stay valid;
        overlapping detections keep the earliest-starting (then longest)
        one, matching the scanner's reading.
        """
        ordered = _claim_spans(detections)
        for detection in reversed(ordered):
            replacement = (f"[REDACTED:{detection.detector}]" if redact
                           else self.surrogate(detection.detector,
                                               detection.value))
            text = text[:detection.start] + replacement \
                + text[detection.end:]
        return text


def _claim_spans(detections: Iterable[Detection]) -> list[Detection]:
    """Non-overlapping detections, earliest-start then longest-match wins,
    returned in ascending start order."""
    ordered = sorted(detections, key=lambda d: (d.start, -(d.end - d.start)))
    claimed: list[Detection] = []
    cursor = -1
    for detection in ordered:
        if detection.start <= cursor:
            continue
        claimed.append(detection)
        cursor = detection.end - 1
    return claimed
