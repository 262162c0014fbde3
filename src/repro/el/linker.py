"""Entity linking: mention strings -> knowledge-base entities.

"The relation EL is for 'entity linking' that maps mentions to their
candidate entities" (Section 3.2).  Real deployments link through alias
tables (name variants, abbreviations) with fuzzy matching; this module
implements that substrate:

* :class:`AliasTable` -- entity -> alias strings, indexed for lookup;
* :class:`EntityLinker` -- scores candidate entities for a mention via
  exact, normalized, and token-overlap matching;
* :func:`link_mentions` -- bulk-link a mention relation into an ``EL``
  relation, the form DeepDive supervision rules consume.

Ambiguity is preserved on purpose: a mention matching several entities
yields several EL rows, and the downstream majority-vote evidence resolution
(see :mod:`repro.grounding.grounder`) handles the resulting label conflicts
-- the behaviour E10/E11's corpora exercise.
"""

from __future__ import annotations

import re
from typing import Iterable

_NON_ALNUM = re.compile(r"[^a-z0-9 ]+")


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    lowered = _NON_ALNUM.sub(" ", text.lower())
    return " ".join(lowered.split())


#: Overlap candidates score ``OVERLAP_SCALE * jaccard``, so never above it:
#: below every exact (1.0) and normalized (0.9) candidate.
OVERLAP_SCALE = 0.8


class AliasTable:
    """Entity -> alias strings, with normalized lookup indexes.

    An alias whose normalized form is empty (``"!!!"``, ``"-"``) is kept as
    an exact name only: the empty form is no name to match on.
    """

    def __init__(self) -> None:
        self._aliases: dict[str, set[str]] = {}
        self._exact: dict[str, set[str]] = {}
        self._normalized: dict[str, set[str]] = {}
        self._token_index: dict[str, set[str]] = {}
        # entity -> its aliases' normalized token sets, built on the first
        # overlap query for the entity: a linker that never scores overlap
        # never pays for them
        self._token_sets: dict[str, set[frozenset[str]]] = {}

    def add(self, entity: str, alias: str) -> None:
        """Register ``alias`` as a name of ``entity``."""
        self._aliases.setdefault(entity, set()).add(alias)
        self._exact.setdefault(alias, set()).add(entity)
        normalized_alias = normalize(alias)
        if normalized_alias:
            self._normalized.setdefault(normalized_alias, set()).add(entity)
        for token in normalized_alias.split():
            self._token_index.setdefault(token, set()).add(entity)
        self._token_sets.pop(entity, None)

    def add_many(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Bulk form of :meth:`add` over (entity, alias) pairs."""
        for entity, alias in pairs:
            self.add(entity, alias)

    def token_candidates(self, text: str) -> set[str]:
        entities: set[str] = set()
        for token in normalize(text).split():
            entities |= self._token_index.get(token, set())
        return entities

    def token_sets(self, entity: str) -> set[frozenset[str]]:
        """The distinct normalized token sets of ``entity``'s aliases."""
        sets = self._token_sets.get(entity)
        if sets is None:
            sets = self._token_sets[entity] = {
                frozenset(normalize(alias).split())
                for alias in self._aliases.get(entity, ())}
        return sets


class EntityLinker:
    """Score entity candidates for mention strings against an alias table."""

    def __init__(self, aliases: AliasTable, min_overlap: float = 0.5) -> None:
        self.aliases = aliases
        self.min_overlap = min_overlap

    def _ranked(self, text: str,
                overlap: bool) -> list[tuple[float, str, str]]:
        """``(score, entity, method)`` of every candidate of ``text``, by
        descending score, then entity.

        Exact alias matches score 1.0; case/punctuation-normalized matches
        0.9; token-overlap (Jaccard over normalized tokens) matches score
        ``OVERLAP_SCALE * jaccard`` when the Jaccard is at least
        ``min_overlap``.  ``overlap=False`` leaves out the overlap
        candidates, which rank below all others.  A text whose normalized
        form is empty matches exactly or not at all.
        """
        table = self.aliases
        scores = dict.fromkeys(table._exact.get(text, ()), (1.0, "exact"))
        normalized = normalize(text)
        if normalized:
            for entity in table._normalized.get(normalized, ()):
                scores.setdefault(entity, (0.9, "normalized"))
        if normalized and overlap:
            tokens = frozenset(normalized.split())
            for entity in table.token_candidates(normalized):
                if entity in scores:
                    continue
                best = max(len(tokens & alias) / len(tokens | alias)
                           for alias in table.token_sets(entity))
                if best >= self.min_overlap:
                    scores[entity] = (OVERLAP_SCALE * best, "overlap")
        return sorted([(score, entity, method)
                       for entity, (score, method) in scores.items()],
                      key=lambda c: (-c[0], c[1]))


def link_mentions(mentions: Iterable[tuple[str, str]], linker: EntityLinker,
                  min_score: float = 0.4, top: int | None = None,
                  ) -> list[tuple[str, str]]:
    """Bulk linking: (mention_id, text) pairs -> EL rows (mention_id, entity).

    Mentions with several strong candidates produce several rows (entity
    ambiguity is downstream's problem, by design).  Each distinct text is
    linked once; a ``min_score`` above ``OVERLAP_SCALE`` skips overlap
    scoring, whose candidates could not pass it.
    """
    overlap = min_score <= OVERLAP_SCALE
    linked: dict[str, list[str]] = {}
    rows: list[tuple[str, str]] = []
    for mention_id, text in mentions:
        entities = linked.get(text)
        if entities is None:
            ranked = linker._ranked(text, overlap)[:top]
            entities = linked[text] = [entity for score, entity, _ in ranked
                                       if score >= min_score]
        rows += [(mention_id, entity) for entity in entities]
    return rows
