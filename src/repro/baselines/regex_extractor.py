"""The deterministic-rules baseline (paper Section 5.3).

"When faced with an extraction task, it is often possible to rapidly obtain
middling data quality by writing a simple regular expression...  This
approach is also a dead end for all but the most trivial extraction targets.
...  the second deterministic rule will indeed address some bugs, but will be
vastly less productive than the first one."

:class:`RuleBasedExtractor` runs an ordered list of regex rules over raw
documents; benchmark E7 adds the rules one at a time and plots the
diminishing F1 returns against the DeepDive app on the same corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.nlp.pipeline import Document


@dataclass(frozen=True)
class RegexRule:
    """One deterministic extraction rule: a pattern over raw document text.

    ``postprocess`` maps a regex match to an output tuple (or ``None`` to
    drop it), mirroring the ad-hoc cleanup code that accretes around regex
    extractors in practice.
    """

    name: str
    pattern: str
    postprocess: Callable[[re.Match], tuple | None] = staticmethod(
        lambda match: tuple(g.lower() for g in match.groups()))

    def matches(self, text: str) -> list[tuple]:
        compiled = re.compile(self.pattern)
        results = []
        for match in compiled.finditer(text):
            row = self.postprocess(match)
            if row is not None:
                results.append(row)
        return results


class RuleBasedExtractor:
    """Apply an ordered rule list to a corpus; the union of matches wins."""

    def __init__(self, rules: Iterable[RegexRule]) -> None:
        self.rules = list(rules)

    def extract_per_rule(self, documents: Iterable[Document],
                         ) -> list[tuple[str, set[tuple]]]:
        """Cumulative output after each rule -- the E7 productivity curve."""
        documents = list(documents)
        cumulative: set[tuple] = set()
        curve = []
        for rule in self.rules:
            for doc in documents:
                cumulative.update(rule.matches(doc.content))
            curve.append((rule.name, set(cumulative)))
        return curve


def _sorted_pair(match: re.Match) -> tuple:
    a, b = match.group(1).lower(), match.group(2).lower()
    return (a, b) if a <= b else (b, a)


# The rule sequence a conscientious engineer would write for the spouse
# corpus, in the order they would discover the patterns.  Rule 1 is highly
# productive; each later rule chases a rarer template or a noise case.
SPOUSE_REGEX_RULES = [
    RegexRule("wife_of", r"(\w+) and his wife (\w+)", _sorted_pair),
    RegexRule("married", r"(\w+) married (\w+) in \d{4}", _sorted_pair),
    RegexRule("wed", r"(\w+) wed (\w+) at", _sorted_pair),
    RegexRule("anniversary", r"(\w+) and (\w+) celebrated their wedding",
              _sorted_pair),
    RegexRule("spouse_of", r"(\w+) , the spouse of (\w+) ,", _sorted_pair),
    # Increasingly desperate rules: case-insensitive retries and partial
    # patterns that add little but maintenance burden.
    RegexRule("wife_of_loose", r"(?i)(\w+) and .{0,10} wife (\w+)", _sorted_pair),
    RegexRule("married_loose", r"(?i)(\w+) married (\w+)", _sorted_pair),
    RegexRule("wed_loose", r"(?i)(\w+) wed (\w+)", _sorted_pair),
]
