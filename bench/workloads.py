"""Seeded input generators: one per workload, the complete input up front.

``--seed`` reaches only this module.  Every generator is a pure function of
``(seed, scale)``: the same pair gives byte-identical documents, operation
schedules and read schedules, and the program under test only ever sees the
generated inputs.  ``scale`` multiplies the sizes below (1.0 is the
benchmark of record; the smoke test runs at a fraction).

Sizes are what fits the driver's budget -- 136 runs of ``run_seconds`` plus
three set-ups each inside 3420 s on a 2-core box -- scaled down *together*
from the sizes the issue first measured, so the layer shares it predicts
still hold (README.md, "Sizes").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus import ads as ads_corpus
from repro.corpus import spouse as spouse_corpus
from repro.corpus.base import GeneratedCorpus
from repro.serve import add_documents, add_rows
from repro.serve.ops import IngestOp, RemoveDocuments

#: open-loop read rate of the serve-mixed / serve-sharded reader
READ_RATE = 200.0
DOCS_PER_BATCH = 4


def scaled(size: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(size * scale)))


def _spouse(couples: int, seed: int) -> GeneratedCorpus:
    config = spouse_corpus.SpouseConfig(
        num_couples=couples, num_distractor_pairs=couples,
        num_sibling_pairs=max(1, couples // 3))
    return spouse_corpus.generate(config, seed=seed)


# ------------------------------------------------------------- batch pipeline
def batch_spouse(seed: int = 0, scale: float = 1.0) -> GeneratedCorpus:
    """Documents for one full extraction -> grounding -> learning ->
    inference run of the spouse application (500 couples, ~2 330 documents).

    Why: Figure 2's full run.  ``repro.nlp``, the extractors and the initial
    grounding are nearly all of it and learning/inference a few percent, so
    this is the bulk-load use of the datastore and grounding layers and the
    workload an NLP or extractor change must move.
    """
    return _spouse(scaled(500, scale, floor=24), seed)


def infer_joint(seed: int = 0, scale: float = 1.0) -> GeneratedCorpus:
    """Documents for the *joint* spouse program (entity-level IMPLY factors
    on top of the mention classifiers) at 200 couples, ~930 documents.

    Why: the application is built and grounded in set-up, so the timed
    section is learning plus Gibbs sampling only -- NLP and grounding do
    nothing in it and their cost shows in ``setup_s``.  The workload for any
    sampler, learner or factor-graph change; work moved out of the run and
    into grounding shows as a worse ``setup_s``.
    """
    return _spouse(scaled(200, scale, floor=24), seed)


# -------------------------------------------------------------------- serving
@dataclass
class Batch:
    """One pre-generated ingest batch of the closed-loop writer."""

    kind: str                          # "add" | "remove" | "rows"
    ops: list[IngestOp]
    docs: int                          # documents added or removed
    user_bytes: int                    # payload bytes the client handed over
    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()


@dataclass
class ServeInput:
    corpus: GeneratedCorpus            # the bootstrap corpus
    batches: list[Batch]
    #: (kind, pick): due time of read ``i`` is ``i / READ_RATE`` (open loop)
    #: or "as soon as the previous one returned" (closed loop); ``pick``
    #: selects the relation or key among those the snapshot offers
    reads: list[tuple[str, int]] = field(default_factory=list)


def _ads(num_ads: int, forum: float, seed: int) -> GeneratedCorpus:
    return ads_corpus.generate(
        ads_corpus.AdsConfig(num_ads=num_ads, forum_posts_per_ad=forum,
                             pii=True), seed=seed)


def _read_schedule(rng: np.random.Generator, count: int,
                   mix: dict[str, float]) -> list[tuple[str, int]]:
    kinds = list(mix)
    chosen = rng.choice(len(kinds), size=count, p=list(mix.values()))
    picks = rng.integers(0, 1 << 30, size=count)
    return [(kinds[int(k)], int(p)) for k, p in zip(chosen, picks)]


def serve_mixed(seed: int = 0, scale: float = 1.0) -> ServeInput:
    """A live ads knowledge base under mixed traffic: 300 PII-laden ads plus
    150 forum posts bootstrapped, then a schedule of 600 batches (80% add 4
    documents, 10% remove 4 earlier documents, 10% ``add_rows`` supervision)
    for one closed-loop writer, and an open-loop read schedule at 200
    reads/s (60% ``query``, 30% ``top(10)``, 10% ``marginal``).

    Why: the delta path of Section 4 -- WAL -> DRed delta grounding ->
    incremental refresh -> compliance scrub -> publish -- with periodic
    checkpoints and reads competing for the interpreter.  The same
    datastore and grounding layers as ``batch-spouse``, used as deltas
    instead of bulk.
    """
    rng = np.random.default_rng([seed, 1])
    num_ads = scaled(300, scale, floor=12)
    num_batches = scaled(600, scale, floor=12)
    corpus = _ads(num_ads, 0.5, seed)
    # the first num_ads ads of the longer generation repeat the bootstrap
    # corpus draw for draw; the ads after them are the stream's new ones
    pool = _ads(num_ads + num_batches * DOCS_PER_BATCH, 0.0, seed)
    fresh = iter(pool.documents[num_ads:])
    facts = [(relation, row) for relation in ("KnownPhone", "KnownEmail")
             for row in pool.kb[relation] if int(row[0][2:]) >= num_ads]
    rng.shuffle(facts)
    fact_cursor = iter(facts)
    live = [doc.doc_id for doc in corpus.documents
            if doc.doc_id.startswith("ad")]
    batches: list[Batch] = []
    for draw in rng.random(num_batches):
        if draw < 0.1 and len(live) >= 2 * DOCS_PER_BATCH:
            chosen = sorted(rng.choice(len(live), size=DOCS_PER_BATCH,
                                       replace=False), reverse=True)
            doc_ids = tuple(live.pop(int(index)) for index in chosen)
            batches.append(Batch(
                "remove", [RemoveDocuments(doc_ids)], DOCS_PER_BATCH,
                sum(len(doc_id) for doc_id in doc_ids), removed=doc_ids))
            continue
        if draw < 0.2:
            rows = [fact for _, fact in zip(range(DOCS_PER_BATCH),
                                            fact_cursor)]
            if rows:
                by_relation: dict[str, list] = {}
                for relation, row in rows:
                    by_relation.setdefault(relation, []).append(row)
                batches.append(Batch(
                    "rows",
                    [add_rows(rel, found)
                     for rel, found in sorted(by_relation.items())],
                    0, sum(len(cell) for _, row in rows for cell in row)))
                continue
        docs = [next(fresh) for _ in range(DOCS_PER_BATCH)]
        live.extend(doc.doc_id for doc in docs)
        batches.append(Batch(
            "add", [add_documents(docs)], DOCS_PER_BATCH,
            sum(len(doc.content) for doc in docs),
            added=tuple(doc.doc_id for doc in docs)))
    reads = _read_schedule(rng, 4096,
                           {"query": 0.6, "top": 0.3, "marginal": 0.1})
    return ServeInput(corpus, batches, reads)


def serve_sharded(seed: int = 0, scale: float = 1.0) -> ServeInput:
    """Byte-identical input to ``serve-mixed``; the service runs two shards.

    Why: router, commit groups, reaper and ``MergedSnapshot`` are the only
    difference from ``serve-mixed``, so a change to how shards run (threads
    to processes) has one workload where it shows and one where it must
    not move.
    """
    return serve_mixed(seed, scale)


def serve_read(seed: int = 0, scale: float = 1.0) -> ServeInput:
    """A 1 200-ad (1 800-document) knowledge base bootstrapped in set-up,
    writer idle, and a closed-loop read mix: 50% ``query``, 30%
    ``top(10)``, 15% ``marginal``, 5% ``snapshot_at``.

    Why: isolates the snapshot/client read code at a size where its O(KB)
    scans cost as much as a millisecond.  Paired with ``serve-mixed``: a
    read index paid for at publish time wins here and must not lose there.
    """
    rng = np.random.default_rng([seed, 2])
    corpus = _ads(scaled(1200, scale, floor=12), 0.5, seed)
    reads = _read_schedule(rng, 4096, {"query": 0.5, "top": 0.3,
                                       "marginal": 0.15, "snapshot_at": 0.05})
    return ServeInput(corpus, [], reads)


# --------------------------------------------------------------------- ingest
@dataclass
class StreamInput:
    chunk_config: spouse_corpus.SpouseConfig
    stream_seed: int
    #: documents one generator chunk holds (= ``load_corpus`` chunk size)
    chunk_docs: int

    def documents(self, chunks: int):
        """The lazily generated stream; only one chunk is ever resident."""
        return spouse_corpus.stream(chunks, config=self.chunk_config,
                                    seed=self.stream_seed)


def stream_ingest(seed: int = 0, scale: float = 1.0) -> StreamInput:
    """An unbounded spouse document stream in 280-document chunks, loaded
    through ``load_corpus(chunk_docs=...)`` into *segmented* (disk-backed)
    ``documents``/``sentences`` relations that seal every 512 rows under a
    1 MiB memory budget -- several budgets of text in one run.

    Why: the bulk-ingest hot path.  NLP as in ``batch-spouse``, but rows go
    through segment sealing instead of in-memory relations, and it is the
    one workload larger than the program's own memory budget.
    """
    couples = scaled(60, scale, floor=6)
    config = spouse_corpus.SpouseConfig(
        num_couples=couples, num_distractor_pairs=couples,
        num_sibling_pairs=max(1, couples // 3))
    # spouse.stream seeds chunk i with seed + i: spread the bases so two
    # benchmark seeds never share a chunk
    base = seed * 100_003
    chunk_docs = len(spouse_corpus.generate(config, seed=base).documents)
    return StreamInput(config, base, chunk_docs)


GENERATORS = {
    "batch-spouse": batch_spouse,
    "infer-joint": infer_joint,
    "serve-mixed": serve_mixed,
    "serve-read": serve_read,
    "serve-sharded": serve_sharded,
    "stream-ingest": stream_ingest,
}
