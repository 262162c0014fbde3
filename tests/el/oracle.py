"""The scalar entity-linking oracle.

``reference_link`` is the per-alias scoring loop the linker ran before
linking used cached token sets and skipped overlap scoring it could not
need.  Its alias lookups are scans over the ``(entity, alias)`` pairs, so
it shares no index with :class:`repro.el.AliasTable`.  It keeps the old
empty-form behaviour too: a mention whose normalized form is empty matches
every alias whose normalized form is empty at 0.9 (``"normalized"``).
"""

from typing import NamedTuple

from repro.el import normalize


class LinkCandidate(NamedTuple):
    """One scored entity candidate for a mention."""

    entity: str
    score: float
    method: str         # "exact" | "normalized" | "overlap"


def reference_link(pairs, mention_text, min_overlap=0.5, top=None):
    """Ranked candidates of ``mention_text`` over ``(entity, alias)``
    ``pairs``, scored one alias at a time."""
    aliases = {}
    for entity, alias in pairs:
        aliases.setdefault(entity, set()).add(alias)
    normalized_text = normalize(mention_text)

    results = {}
    for entity, names in aliases.items():
        if mention_text in names:
            results[entity] = LinkCandidate(entity, 1.0, "exact")
    for entity, names in aliases.items():
        if entity not in results and any(normalize(alias) == normalized_text
                                         for alias in names):
            results[entity] = LinkCandidate(entity, 0.9, "normalized")
    mention_tokens = set(normalized_text.split())
    if mention_tokens:
        for entity, names in aliases.items():
            if entity in results or not any(
                    mention_tokens & set(normalize(alias).split())
                    for alias in names):
                continue
            best = 0.0
            for alias in names:
                alias_tokens = set(normalize(alias).split())
                union = mention_tokens | alias_tokens
                if not union:
                    continue
                jaccard = len(mention_tokens & alias_tokens) / len(union)
                best = max(best, jaccard)
            if best >= min_overlap:
                results[entity] = LinkCandidate(entity, 0.8 * best, "overlap")
    ranked = sorted(results.values(), key=lambda c: (-c.score, c.entity))
    return ranked[:top] if top is not None else ranked


def reference_link_mentions(pairs, mentions, min_score=0.4, top=None):
    """``link_mentions`` as a per-mention loop over
    :func:`reference_link`."""
    rows = []
    for mention_id, text in mentions:
        for candidate in reference_link(pairs, text, top=top):
            if candidate.score >= min_score:
                rows.append((mention_id, candidate.entity))
    return rows
