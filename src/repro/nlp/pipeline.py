"""The document-loading pipeline: raw documents -> sentence rows with markup.

Mirrors DeepDive's default loading step: each input document is HTML-stripped,
split into sentences, tokenized, and POS-tagged; the result is stored *one
sentence per row* in the ``sentences`` relation of the datastore.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.datastore import Database, Schema
from repro.nlp.chunker import Chunk, noun_phrases
from repro.nlp.htmlstrip import strip_html
from repro.nlp.pos import tag
from repro.nlp.sentences import split_sentences
from repro.nlp.tokenize import token_texts, tokenize


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

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """Character span of each token within :attr:`text`.

        Derived on demand, so it is no part of equality and a sentence
        rebuilt from its relation row equals the original.
        """
        return tuple((t.start, t.end) for t in tokenize(self.text))

    def noun_phrase_chunks(self) -> list[Chunk]:
        return noun_phrases(list(self.pos_tags))


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

    What pool workers map over a corpus for :func:`iter_corpus_rows`: plain
    row tuples pickle smaller than :class:`Sentence` objects and stream
    straight into ``insert_many``.
    """
    return sentence_rows(doc.doc_id, doc.content)


def preprocess_document(doc: Document) -> list[Sentence]:
    """Run the full NLP chain on one document."""
    return [sentence_from_row(row)
            for row in sentence_rows(doc.doc_id, doc.content)]


def _pool_map(fn: Callable[[Document], list],
              documents: Sequence[Document], workers: int,
              parallel_mode: str, pool_min_work: int | None,
              pool_owner: str | None) -> list[list] | None:
    """``[fn(d) for d in documents]`` computed on the warm worker pool, or
    ``None`` when the sequential loop should run instead.

    The adaptive dispatcher keeps corpora whose total character count
    estimates below ``pool_min_work`` sequential, ``pool_owner`` selects a
    private registry partition (a sharded service's per-shard pool), and a
    pool failure is ``None`` too.
    """
    if workers <= 0 or len(documents) <= 1:
        return None
    from repro.obs.config import DEFAULT_POOL_MIN_WORK
    from repro.parallel import decide_map, get_pool
    if pool_min_work is None:
        pool_min_work = DEFAULT_POOL_MIN_WORK
    decision = decide_map(sum(len(doc.content) for doc in documents),
                          workers=workers, min_work=pool_min_work)
    decision.record()
    if not decision.use_pool:
        return None
    pool = get_pool(workers, mode=parallel_mode, owner=pool_owner)
    return pool.map(fn, documents) if pool is not None else None


def preprocess_corpus(documents: Sequence[Document], workers: int = 0,
                      parallel_mode: str = "auto",
                      pool_min_work: int | None = None,
                      pool_owner: str | None = None
                      ) -> list[list[Sentence]]:
    """Per-document sentence lists, fanned out when ``workers > 0``.

    The parallel layer's chunked order-preserving merge returns exactly
    what the sequential loop would; a pool failure silently falls back to
    that loop, so callers always get ``[preprocess_document(d) for d in
    docs]``.  See :func:`_pool_map` for the pool parameters.
    """
    per_doc = _pool_map(preprocess_document, documents, workers,
                        parallel_mode, pool_min_work, pool_owner)
    if per_doc is None:
        per_doc = [preprocess_document(doc) for doc in documents]
    return per_doc


def iter_corpus_rows(documents: Sequence[Document], workers: int = 0,
                     parallel_mode: str = "auto",
                     pool_min_work: int | None = None,
                     pool_owner: str | None = None):
    """Lazily yield per-document ``sentences`` row lists (the row-iterator
    protocol's NLP face).

    Bit-identical to ``[preprocess_document_rows(d) for d in documents]``:
    the sequential path is a generator (one document's rows resident at a
    time), and the pooled path maps :func:`preprocess_document_rows` so
    workers return row tuples directly.
    """
    per_doc = _pool_map(preprocess_document_rows, documents, workers,
                        parallel_mode, pool_min_work, pool_owner)
    if per_doc is None:
        per_doc = (preprocess_document_rows(doc) for doc in documents)
    return per_doc


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
                workers: int | None = None,
                parallel_mode: str | None = None,
                pool_min_work: int | None = None,
                chunk_docs: int | None = None) -> int:
    """Preprocess ``documents`` into the ``documents``/``sentences`` relations.

    Creates the relations if absent.  Returns the number of sentences loaded.
    Rows are built per document and bulk-loaded with ``insert_many`` (one
    relation version bump instead of one per row); ``workers`` (defaulting
    to the database's :class:`~repro.obs.config.EngineConfig`) fans the NLP
    chain across worker processes with byte-identical relation contents and
    row order.

    ``chunk_docs`` selects the streaming path: documents are pulled from the
    iterable ``chunk_docs`` at a time, preprocessed (still through the
    worker pool when enabled), and inserted chunk-by-chunk — peak memory is
    bounded by one chunk regardless of corpus size, and the final relation
    contents are identical to a one-shot load (the relations just see one
    version bump per chunk instead of one in total).

    The merge consumes :func:`iter_corpus_rows`: sentence rows stream into
    ``insert_many`` directly, so no :class:`Sentence` objects are ever
    materialized here — on the sequential path at most one document's rows
    are resident beyond the validated insert batch.
    """
    if "documents" not in db:
        db.create("documents", DOCUMENT_SCHEMA)
    if "sentences" not in db:
        db.create("sentences", SENTENCE_SCHEMA)
    config = getattr(db, "config", None)
    if workers is None:
        workers = config.workers if config is not None else 0
    if parallel_mode is None:
        parallel_mode = config.parallel_mode if config is not None else "auto"
    if pool_min_work is None:
        pool_min_work = config.pool_min_work if config is not None else None
    pool_owner = config.pool_owner if config is not None else None
    if chunk_docs is None:
        chunks: Iterable[list[Document]] = [list(documents)]
    else:
        chunks = iter_document_chunks(documents, chunk_docs)
    loaded = 0
    for docs in chunks:
        per_doc_rows = iter_corpus_rows(docs, workers=workers,
                                        parallel_mode=parallel_mode,
                                        pool_min_work=pool_min_work,
                                        pool_owner=pool_owner)
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
