"""The document-loading pipeline: raw documents -> sentence rows with markup.

Mirrors DeepDive's default loading step: each input document is HTML-stripped,
split into sentences, tokenized, and POS-tagged; the result is stored *one
sentence per row* in the ``sentences`` relation of the datastore.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from repro import obs
from repro.datastore import Database, Schema
from repro.nlp.htmlstrip import strip_html
from repro.nlp.pos import tag
from repro.nlp.sentences import split_sentences
from repro.nlp.tokenize import token_texts


@dataclass(frozen=True)
class Document:
    """A raw input document (possibly HTML)."""

    doc_id: str
    content: str


@dataclass(frozen=True)
class Sentence:
    """One preprocessed sentence: the unit DeepDive candidates live in."""

    doc_id: str
    sentence_id: int      # position of the sentence within its document
    text: str
    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...]

    @property
    def key(self) -> str:
        """Globally unique sentence identifier."""
        return f"{self.doc_id}:{self.sentence_id}"


SENTENCE_SCHEMA = Schema.of(
    sentence_key="text", doc_id="text", sentence_id="int", text="text",
    tokens="array", pos_tags="array")

DOCUMENT_SCHEMA = Schema.of(doc_id="text", content="text")


def sentence_rows(doc_id: str, content: str) -> list[tuple]:
    """The ``sentences`` relation rows of one document: the row kernel.

    HTML strip, sentence split, tokenize and tag, straight into
    ``(key, doc_id, sentence_id, text, tokens, pos_tags)`` tuples with no
    per-token or per-sentence objects in between.  Everything that
    preprocesses a document goes through here.
    """
    rows = []
    for index, text in enumerate(split_sentences(strip_html(content))):
        tokens = token_texts(text)
        rows.append((f"{doc_id}:{index}", doc_id, index, text,
                     tuple(tokens), tuple(tag(tokens))))
    if obs.enabled():
        obs.count("nlp.documents")
        obs.observe("nlp.sentences_per_doc", len(rows))
        obs.observe("nlp.tokens_per_doc", sum(len(row[4]) for row in rows))
    return rows


def preprocess_document_rows(doc: Document) -> list[tuple]:
    """The ``sentences`` relation rows for one document.

    What :func:`iter_corpus_rows` maps over a corpus: plain row tuples
    stream straight into ``insert_many`` with no :class:`Sentence` objects
    in between.
    """
    return sentence_rows(doc.doc_id, doc.content)


def preprocess_document(doc: Document) -> list[Sentence]:
    """Run the full NLP chain on one document."""
    return [sentence_from_row(row)
            for row in sentence_rows(doc.doc_id, doc.content)]


def preprocess_corpus(documents: Sequence[Document]) -> list[list[Sentence]]:
    """Per-document sentence lists: ``[preprocess_document(d) for d in
    documents]``."""
    return [preprocess_document(doc) for doc in documents]


def iter_corpus_rows(documents: Iterable[Document]):
    """Lazily yield per-document ``sentences`` row lists (the row-iterator
    protocol's NLP face): one document's rows resident at a time, equal to
    ``[preprocess_document_rows(d) for d in documents]``."""
    return (preprocess_document_rows(doc) for doc in documents)


def iter_document_chunks(documents: Iterable[Document],
                         chunk_docs: int) -> Iterable[list[Document]]:
    """Batch a document iterable into lists of at most ``chunk_docs``.

    Never materializes the whole iterable: at most one chunk is resident,
    which is what makes :func:`load_corpus`'s streaming path bounded-memory.
    """
    if chunk_docs < 1:
        raise ValueError(f"chunk_docs must be positive, got {chunk_docs}")
    chunk: list[Document] = []
    for doc in documents:
        chunk.append(doc)
        if len(chunk) >= chunk_docs:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def load_corpus(db: Database, documents: Iterable[Document],
                chunk_docs: int | None = None) -> int:
    """Preprocess ``documents`` into the ``documents``/``sentences`` relations.

    Creates the relations if absent.  Returns the number of sentences loaded.
    Rows are built per document and bulk-loaded with ``insert_many`` (one
    relation version bump instead of one per row).

    ``chunk_docs`` selects the streaming path: documents are pulled from the
    iterable ``chunk_docs`` at a time, preprocessed, and inserted
    chunk-by-chunk — peak memory is bounded by one chunk regardless of
    corpus size, and the final relation contents are identical to a
    one-shot load (the relations just see one version bump per chunk
    instead of one in total).

    The merge consumes :func:`iter_corpus_rows`: sentence rows stream into
    ``insert_many`` directly, so no :class:`Sentence` objects are ever
    materialized here — at most one document's rows are resident beyond
    the validated insert batch.
    """
    if "documents" not in db:
        db.create("documents", DOCUMENT_SCHEMA)
    if "sentences" not in db:
        db.create("sentences", SENTENCE_SCHEMA)
    if chunk_docs is None:
        chunks: Iterable[list[Document]] = [list(documents)]
    else:
        chunks = iter_document_chunks(documents, chunk_docs)
    loaded = 0
    for docs in chunks:
        per_doc_rows = iter_corpus_rows(docs)
        db["documents"].insert_many((doc.doc_id, doc.content) for doc in docs)
        loaded += db["sentences"].insert_many(
            chain.from_iterable(per_doc_rows))
    return loaded


def sentence_row(sentence: Sentence) -> tuple:
    """The ``sentences`` relation row for a :class:`Sentence`."""
    return (sentence.key, sentence.doc_id, sentence.sentence_id, sentence.text,
            sentence.tokens, sentence.pos_tags)


def sentence_from_row(row: Sequence) -> Sentence:
    """Reconstruct a :class:`Sentence` from its ``sentences`` relation row."""
    _, doc_id, sentence_id, text, tokens, pos_tags = row
    return Sentence(doc_id=doc_id, sentence_id=sentence_id, text=text,
                    tokens=tuple(tokens), pos_tags=tuple(pos_tags))
