"""The feature library (paper Section 5.3).

"In the past year we have introduced a feature library system that
automatically proposes a massive number of features that plausibly work
across many domains, and then uses statistical regularization to throw away
all but the most effective features.  This method gives a bit of the feel of
deep learning, in that some features come 'for free' with no explicit
engineer involvement.  However, the hypothesized features are designed to
always be human-understandable; we describe the space of all possible
features using code-like 'feature templates'."

A :class:`FeatureTemplate` generates candidate features from a mention pair;
:class:`FeatureLibrary` composes templates into a weight UDF and, after a
training run, prunes features whose learned weights the L2 prior crushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.nlp.tokenize import token_texts

TemplateFn = Callable[[int, int, Sequence[str]], Iterable[str]]


@dataclass(frozen=True)
class FeatureTemplate:
    """One named feature template over (position1, position2, tokens)."""

    name: str
    fn: TemplateFn

    def generate(self, p1: int, p2: int, tokens: Sequence[str]) -> list[str]:
        return [f"{self.name}:{value}" for value in self.fn(p1, p2, tokens)]


def _between(p1, p2, tokens):
    lo, hi = min(p1, p2), max(p1, p2)
    between = tokens[lo + 1:hi]
    if len(between) <= 8:
        yield " ".join(between)


def _between_bigrams(p1, p2, tokens):
    lo, hi = min(p1, p2), max(p1, p2)
    between = tokens[lo + 1:hi]
    for a, b in zip(between, between[1:]):
        yield f"{a} {b}"


def _between_words(p1, p2, tokens):
    lo, hi = min(p1, p2), max(p1, p2)
    yield from tokens[lo + 1:hi][:10]


def _left_window(p1, p2, tokens):
    lo = min(p1, p2)
    for offset in (1, 2):
        if lo - offset >= 0:
            yield f"-{offset}={tokens[lo - offset]}"


def _right_window(p1, p2, tokens):
    hi = max(p1, p2)
    for offset in (1, 2):
        if hi + offset < len(tokens):
            yield f"+{offset}={tokens[hi + offset]}"


def _distance(p1, p2, tokens):
    yield str(min(abs(p2 - p1), 10))


def _word_shapes(p1, p2, tokens):
    for position in (min(p1, p2), max(p1, p2)):
        word = tokens[position]
        shape = "".join("X" if c.isupper() else "x" if c.islower()
                        else "9" if c.isdigit() else c for c in word)
        yield shape


def _prefixes(p1, p2, tokens):
    lo, hi = min(p1, p2), max(p1, p2)
    between = tokens[lo + 1:hi]
    for word in between[:6]:
        if len(word) >= 5:
            yield word[:4]


STANDARD_TEMPLATES = [
    FeatureTemplate("between", _between),
    FeatureTemplate("bet_bigram", _between_bigrams),
    FeatureTemplate("bet_word", _between_words),
    FeatureTemplate("left", _left_window),
    FeatureTemplate("right", _right_window),
    FeatureTemplate("dist", _distance),
    FeatureTemplate("shape", _word_shapes),
    FeatureTemplate("prefix", _prefixes),
]


class FeatureLibrary:
    """Compose templates into a weight UDF and prune by learned weight.

    Usage::

        library = FeatureLibrary()            # standard template set
        app.register_udf("pair_features", library.udf)
        ... run ...
        kept = library.prune(result.feature_stats, min_weight=0.05)
        # library.udf now only emits surviving features; rerun is cheaper
    """

    def __init__(self, templates: Sequence[FeatureTemplate] | None = None,
                 dictionaries: dict[str, set[str]] | None = None) -> None:
        self.templates = list(STANDARD_TEMPLATES if templates is None
                              else templates)
        for name, words in (dictionaries or {}).items():
            self.templates.append(self._dictionary_template(name, words))
        self._keep: set[str] | None = None      # None = emit everything

    @staticmethod
    def _dictionary_template(name: str, words: set[str]) -> FeatureTemplate:
        lowered = {w.lower() for w in words}

        def in_dictionary(p1, p2, tokens):
            lo, hi = min(p1, p2), max(p1, p2)
            if any(t in lowered for t in tokens[lo + 1:hi]):
                yield "between"
            if tokens[lo] in lowered:
                yield "m1"
            if tokens[hi] in lowered:
                yield "m2"

        return FeatureTemplate(f"dict_{name}", in_dictionary)

    def udf(self, p1: int, p2: int, content: str) -> list[str]:
        """The weight UDF to register with a DDlog program."""
        tokens = [t.lower() for t in token_texts(content)]
        features: list[str] = []
        for template in self.templates:
            features.extend(template.generate(p1, p2, tokens))
        if self._keep is not None:
            features = [f for f in features if f in self._keep]
        return features

    def prune(self, feature_stats, min_weight: float = 0.05,
              min_observations: int = 1) -> set[str]:
        """Keep only features whose trained weight survived regularization.

        ``feature_stats`` is the run result's weight table; weight keys look
        like ``rule<N>:<feature>``.  Returns the surviving feature set and
        switches :meth:`udf` into pruned mode.
        """
        kept: set[str] = set()
        for stat in feature_stats:
            _, _, feature = stat.key.partition(":")
            if abs(stat.weight) >= min_weight \
                    and stat.observations >= min_observations:
                kept.add(feature)
        self._keep = kept
        return kept

    def reset(self) -> None:
        """Return to emit-everything mode."""
        self._keep = None
