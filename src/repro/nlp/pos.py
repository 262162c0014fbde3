"""Rule-based part-of-speech tagging.

A lexicon-plus-suffix tagger in the spirit of the baseline stage of a Brill
tagger.  DeepDive's features consume POS tags for things like "is the
candidate preceded by a proper noun?" -- the tag inventory is a compact
subset of Penn Treebank tags sufficient for the feature library:

``NNP`` proper noun, ``NN`` common noun, ``VB`` verb, ``JJ`` adjective,
``RB`` adverb, ``CD`` number, ``DT`` determiner, ``IN`` preposition,
``CC`` conjunction, ``PRP`` pronoun, ``MD`` modal, ``SYM`` symbol,
``PUNCT`` punctuation.
"""

from __future__ import annotations

import re

# Closed-class words -> tag.  No word is listed under two tags.
_LEXICON = {word: tag_name for tag_name, words in {
    "DT": "a an the this that these those each every some any no all both",
    "IN": "in on at by for with about against between into through during "
          "before after above below to from up down of off over under near "
          "per",
    "CC": "and or but nor so yet while whereas",
    "PRP": "i you he she it we they him her them his hers its their our "
           "your my who whom which whose",
    "MD": "can could may might must shall should will would",
    "VB": "is are was were be been being has have had do does did said says "
          "made make found shows show showed reported reports married met "
          "divorced causes cause caused regulates regulate regulated "
          "inhibits inhibit inhibited activates activate activated treats "
          "treat treated exhibits exhibit exhibited measured observed "
          "increases decreases induces induced associated linked wed dated "
          "interacts binds encodes",
    "RB": "very not also never always often recently significantly strongly "
          "weakly reportedly allegedly",
}.items() for word in words.split()}

# Punctuation (group 1) | number | ordinal, in one match.
_PUNCT_OR_NUMBER = re.compile(
    r"(?:([^\w\s]+)|\d[\d,]*(?:\.\d+)?|\d+(?:st|nd|rd|th))$")
_SYMBOL = set("$€£¥%")

_VERB_SUFFIXES = ("ize", "ise", "ate", "ify")
_ADJ_SUFFIXES = ("ous", "ful", "ble", "ive", "ic", "al", "ary", "less", "ish")
_ADV_SUFFIX = "ly"
_NOUN_SUFFIXES = ("tion", "sion", "ment", "ness", "ity", "ism", "ist", "ance", "ence", "ship")


def tag_token(text: str, is_sentence_initial: bool = False) -> str:
    """Tag one token; ``is_sentence_initial`` damps the capitalized->NNP cue.

    The scalar reference: :func:`tag` answers from a memo of this function
    and the property tests hold the two equal.
    """
    if text in _SYMBOL:
        return "SYM"
    closed = _PUNCT_OR_NUMBER.match(text)
    if closed:
        return "PUNCT" if closed.lastindex else "CD"
    lower = text.lower()
    closed = _LEXICON.get(lower)
    if closed:
        return closed
    if text[0].isupper() and not is_sentence_initial:
        return "NNP"
    if lower.endswith(_ADV_SUFFIX) and len(lower) > 4:
        return "RB"
    if lower.endswith(("ed", "ing")) and len(lower) > 4:
        return "VB"
    if lower.endswith(_VERB_SUFFIXES) and len(lower) > 5:
        return "VB"
    if lower.endswith(_NOUN_SUFFIXES):
        return "NN"
    if lower.endswith(_ADJ_SUFFIXES) and len(lower) > 4:
        return "JJ"
    if text[0].isupper():  # sentence-initial capital: could still be a name
        return "NNP" if len(text) > 1 and not lower.endswith("s") else "NN"
    return "NN"


#: Entries each memo below may hold.  The corpus mints new names forever, so
#: the memos must be bounded: at ~90 bytes of dict slot and key per entry the
#: two together stay under 1 MB.  A full memo is cleared, not grown -- the
#: frequent tokens are back within a few sentences.
_MEMO_CAP = 4096
#: token -> ``tag_token(token, initial)``, indexed by ``initial``
_MEMO: tuple[dict[str, str], dict[str, str]] = ({}, {})


def _tag_miss(text: str, is_sentence_initial: bool) -> str:
    memo = _MEMO[is_sentence_initial]
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[text] = found = tag_token(text, is_sentence_initial)
    return found


def tag(tokens: list[str]) -> list[str]:
    """Tag a tokenized sentence; applies one contextual repair pass.

    The repair pass re-tags sentence-initial capitalized tokens as NNP when
    the following token is also NNP (names like "Barack Obama" at sentence
    start), mirroring the most valuable Brill transformation for our corpora.
    """
    if not tokens:
        return []
    tags = list(map(_MEMO[False].get, tokens))
    first = tokens[0]
    tags[0] = _MEMO[True].get(first) or _tag_miss(first, True)
    if None in tags:
        for i, found in enumerate(tags):
            if found is None:
                tags[i] = _tag_miss(tokens[i], False)
    if len(tags) >= 2 and tags[1] == "NNP" and first[:1].isupper() and tags[0] in ("NN", "JJ", "VB"):
        tags[0] = "NNP"
    return tags
