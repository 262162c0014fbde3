"""Sentence splitting.

A rule-based splitter good enough for the synthetic corpora and robust to the
abbreviation traps that matter for our applications (``Dr.``, ``Mr.``,
``et al.``, initials like ``B. Obama``, decimal numbers).
"""

from __future__ import annotations

import re

# Abbreviations after which a period does NOT end the sentence.
_ABBREVIATIONS = {
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st", "vs", "etc", "et",
    "al", "fig", "eq", "no", "vol", "pp", "inc", "corp", "co", "dept",
    "approx", "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep",
    "sept", "oct", "nov", "dec", "e.g", "i.e", "cf",
}

_BOUNDARY = re.compile(r"([.!?])(\s+|$)")
# The word a period ends: from its first ASCII letter, word characters and
# inner periods up to the end of the searched region.
_WORD_BEFORE = re.compile(r"[A-Za-z][\w.]*$")


def split_sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    Newlines are always sentence boundaries (the HTML stripper emits one per
    block element).  Within a line, ``. ! ?`` followed by whitespace ends a
    sentence unless the period terminates a known abbreviation or a single
    capital initial, or the next character is lowercase (mid-sentence period).
    """
    sentences: list[str] = []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        sentences.extend(_split_line(line))
    return sentences


def _split_line(line: str) -> list[str]:
    pieces: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(line):
        end = match.end(1)
        if match.group(1) == "." and _is_non_terminal_period(line, match.start(1)):
            continue
        nxt = match.end()
        if nxt < len(line) and line[nxt].islower():
            continue
        piece = line[start:end].strip()
        if piece:
            pieces.append(piece)
        start = match.end()
    tail = line[start:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def _is_non_terminal_period(line: str, period_index: int) -> bool:
    # A space cannot be part of the word, so the search may start after the
    # last one instead of at the start of the line.
    word_match = _WORD_BEFORE.search(
        line, line.rfind(" ", 0, period_index) + 1, period_index)
    if not word_match:
        return False
    word = word_match.group()
    lower = word.lower()
    if lower.rstrip(".") in _ABBREVIATIONS or lower in _ABBREVIATIONS:
        return True
    # Single capital initial, e.g. the "B." in "B. Obama".
    if len(word) == 1 and word.isupper():
        return True
    # Internal-period tokens like "e.g" already matched above; also treat
    # digit-adjacent periods as decimal points.
    if period_index + 1 < len(line) and line[period_index + 1].isdigit():
        return True
    return False
