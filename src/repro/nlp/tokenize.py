"""Tokenization with character offsets.

Candidates in DeepDive are token spans, and error analysis needs to point
back into the raw document, so every token records its character offsets.
The tokenizer is a Penn-Treebank-flavoured regex tokenizer: it splits off
punctuation, keeps numbers with internal separators intact (prices like
``1,200.50``), keeps hyphenated chemical formulas together, and treats
currency and percent symbols as their own tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Token:
    """One token: its surface text and character span within the sentence."""

    text: str
    start: int
    end: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.text


_TOKEN = re.compile(
    r"""
    \d{1,3}(?:,\d{3})+(?:\.\d+)?      # 1,200 or 12,345.67
    | \d+\.\d+                        # 3.14
    | \d+(?:st|nd|rd|th)              # ordinals: 3rd
    | [A-Za-z][A-Za-z\d]*(?:[-'][A-Za-z\d]+)*   # words, gene symbols (BRCA1),
                                      # hyphenated words, contractions
    | \d+                             # bare integers
    | [$€£¥%]                         # currency / percent
    | \.\.\.                          # ellipsis
    | [^\w\s]                         # any other single punctuation mark
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into :class:`Token` objects with character offsets."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def token_texts(text: str) -> list[str]:
    """Just the surface strings of :func:`tokenize`, without the objects."""
    return _TOKEN.findall(text)
