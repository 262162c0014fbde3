"""HTML stripping, the first step of DeepDive's document loading.

The paper: "DeepDive stores all documents in the database in one sentence per
row with markup produced by standard NLP pre-processing tools, including HTML
stripping, part-of-speech tagging, and linguistic parsing."  Web classified
ads and review pages arrive as HTML; this module reduces them to text while
dropping script/style payloads and decoding the common entities.
"""

from __future__ import annotations

import html
import re

_SCRIPT_STYLE = re.compile(r"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL)
_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
# Block-level tags become newlines so sentence splitting sees boundaries.
_BLOCK_TAG = re.compile(
    r"</?(?:p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|blockquote|section|article)\b[^>]*>",
    re.IGNORECASE)
_ANY_TAG = re.compile(r"<[^>]+>")
_BLANK_RUNS = re.compile(r"[ \t]+")
_NEWLINE_RUNS = re.compile(r"\n\s*\n+")


def strip_html(raw: str) -> str:
    """Return the visible text of an HTML document.

    Block-level tags are converted to newlines (paragraph boundaries), all
    other tags are removed, entities are decoded, and whitespace is
    normalized.  Plain-text input passes through unchanged apart from
    whitespace normalization, so the loader can apply this unconditionally.
    """
    text = raw
    if "<" in text:
        text = _SCRIPT_STYLE.sub(" ", text)
        text = _COMMENT.sub(" ", text)
        text = _BLOCK_TAG.sub("\n", text)
        text = _ANY_TAG.sub(" ", text)
    if "&" in text:
        text = html.unescape(text)
    if "  " in text or "\t" in text:
        text = _BLANK_RUNS.sub(" ", text)
    if "\n" not in text:
        return text.strip()
    text = _NEWLINE_RUNS.sub("\n", text)
    return "\n".join(line.strip() for line in text.split("\n")).strip()
