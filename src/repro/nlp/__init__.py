"""NLP preprocessing substrate: HTML stripping, sentence splitting,
tokenization and POS tagging.

This stands in for the Stanford CoreNLP pipeline DeepDive runs at load time;
the output contract is identical: one sentence per datastore row, carrying
token and POS markup.
"""

from repro.nlp.htmlstrip import strip_html
from repro.nlp.pipeline import (DOCUMENT_SCHEMA, SENTENCE_SCHEMA, Document,
                                Sentence, load_corpus, preprocess_corpus,
                                preprocess_document, sentence_from_row,
                                sentence_row)
from repro.nlp.pos import tag, tag_token
from repro.nlp.sentences import split_sentences
from repro.nlp.tokenize import Token, token_texts, tokenize

__all__ = [
    "DOCUMENT_SCHEMA",
    "Document",
    "SENTENCE_SCHEMA",
    "Sentence",
    "Token",
    "load_corpus",
    "preprocess_corpus",
    "preprocess_document",
    "sentence_from_row",
    "sentence_row",
    "split_sentences",
    "strip_html",
    "tag",
    "tag_token",
    "token_texts",
    "tokenize",
]
