"""E17 -- the out-of-core datastore: bounded-RSS ingest, spill operators,
O(delta) checkpoints.

The paper's premise is corpora much larger than RAM; ROADMAP item 3 asks the
datastore to honor that.  Three measurements against a corpus ~10x the
configured memory budget:

* **streaming ingest**: ``spouse.stream`` feeds ``load_corpus``'s chunked
  path into segmented (disk-backed) ``documents``/``sentences`` relations;
  a sampler thread watches ``/proc/self/status`` and the bench asserts the
  post-warmup peak-RSS *delta* stays within 2x the budget even though the
  corpus is 10x it;
* **spill equivalence**: a join whose inputs exceed the budget runs through
  the grace-hash spill path and must match the in-memory kernels bag-for-bag;
* **checkpointing**: a segment-manifest checkpoint of the unchanged store
  (hard-links + seal-cache hits, O(delta)) against a full inline dump
  (O(store)); the speedup floor is 5x.

Machine-readable results land in ``results/BENCH_e17_out_of_core.json``; the
RSS check is soft-gated (``rss_enforced``) on hosts without ``/proc``, like
e15's CPU-count gate.

A second report, **ingest kernels**, times the two per-row kernels of the
load path against the scalar code they are checked against: the NLP row
kernel (``sentence_rows``) vs the object-building reference composition
(``tokenize`` -> ``Token``, ``tag_token`` per token, ``Sentence``,
``sentence_row``), asserted row-for-row identical with a 1.5x floor, and
the compiled row validator vs per-cell ``coerce``.  Results land in
``results/BENCH_e17_ingest_kernels.json``.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter, sleep

from conftest import once, write_json

from repro.corpus import materials, spouse
from repro.datastore import Database, Relation, Schema
from repro.datastore import query as Q
from repro.datastore.io import database_from_dict, database_to_dict
from repro.datastore.types import coerce
from repro.nlp.htmlstrip import strip_html
from repro.nlp.pipeline import (DOCUMENT_SCHEMA, SENTENCE_SCHEMA, Sentence,
                                load_corpus, sentence_row, sentence_rows)
from repro.nlp.pos import tag_token
from repro.nlp.sentences import split_sentences
from repro.nlp.tokenize import tokenize
from repro.obs.config import EngineConfig
from repro.serve import CheckpointManager

MEMORY_BUDGET = 2 << 20          # 2 MiB -- the knob REPRO_MEMORY_BUDGET sets
CORPUS_MULTIPLE = 10             # corpus must be >= this many budgets of text
RSS_MULTIPLE = 2.0               # peak RSS delta must stay <= 2x budget
CHECKPOINT_SPEEDUP_FLOOR = 5.0
SEGMENT_ROWS = 512               # small seals keep the resident tail tiny
ROW_KERNEL_FLOOR = 1.5           # row kernel vs the reference composition
KERNEL_CHUNKS = 20               # generator chunks the kernel report times

CHUNK_CONFIG = spouse.SpouseConfig(num_couples=120, num_distractor_pairs=120,
                                   num_sibling_pairs=40)


def read_rss_bytes():
    """Current VmRSS from /proc, or None where the kernel interface is absent."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


class RssSampler:
    """Background thread tracking the peak resident set at ~20ms cadence."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.baseline = read_rss_bytes()
        self.peak = self.baseline or 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def enabled(self) -> bool:
        return self.baseline is not None

    def _run(self) -> None:
        while not self._stop.is_set():
            rss = read_rss_bytes()
            if rss is not None and rss > self.peak:
                self.peak = rss
            sleep(self.interval)

    def start(self) -> None:
        if self.enabled:
            self._thread.start()

    def rebase(self) -> None:
        """Reset the baseline (after warmup, so arena growth is excluded)."""
        gc.collect()
        rss = read_rss_bytes()
        if rss is not None:
            self.baseline = rss
            self.peak = rss

    def stop(self) -> int:
        self._stop.set()
        if self.enabled:
            self._thread.join(timeout=5)
        return max(0, self.peak - (self.baseline or 0))


def counting_stream(chunks: int):
    """spouse.stream, with a running total of corpus bytes on the side."""
    seen = {"bytes": 0, "docs": 0}

    def docs():
        for doc in spouse.stream(chunks, config=CHUNK_CONFIG, seed=7):
            seen["bytes"] += len(doc.content)
            seen["docs"] += 1
            yield doc

    return docs(), seen


def calibrate_chunks():
    """How many generator chunks add up to CORPUS_MULTIPLE x the budget."""
    probe = spouse.generate(CHUNK_CONFIG, seed=7)
    chunk_bytes = sum(len(doc.content) for doc in probe.documents)
    chunk_docs = len(probe.documents)
    # 5% margin: chunk sizes vary a few percent with the per-chunk seed, and
    # the corpus must land at >= CORPUS_MULTIPLE x the budget, not near it
    target = int(CORPUS_MULTIPLE * MEMORY_BUDGET * 1.05)
    chunks = -(-target // chunk_bytes)
    return int(chunks), chunk_docs


def measure_streaming_ingest(tmp_path, results):
    """Corpus 10x the budget through the chunked path; RSS stays bounded."""
    config = EngineConfig(datastore_backend="columnar",
                          memory_budget=MEMORY_BUDGET,
                          segment_rows=SEGMENT_ROWS)
    db = Database(config=config)
    db.create_segmented("documents", DOCUMENT_SCHEMA,
                        directory=tmp_path / "documents")
    db.create_segmented("sentences", SENTENCE_SCHEMA,
                        directory=tmp_path / "sentences")

    chunks, chunk_docs = calibrate_chunks()
    documents, seen = counting_stream(chunks)

    sampler = RssSampler()
    sampler.start()
    # warmup: one chunk through the whole chain grows the allocator arenas
    # and the interpreter's caches; measure steady state after it
    warm_docs = [next(documents) for _ in range(chunk_docs)]
    load_corpus(db, warm_docs, chunk_docs=chunk_docs)
    sampler.rebase()

    started = perf_counter()
    sentences = load_corpus(db, documents, chunk_docs=chunk_docs)
    ingest_seconds = perf_counter() - started
    peak_delta = sampler.stop()

    for name in ("documents", "sentences"):
        db[name].flush()

    corpus_bytes = seen["bytes"]
    results.update({
        "memory_budget_bytes": MEMORY_BUDGET,
        "corpus_bytes": corpus_bytes,
        "corpus_budget_multiple": corpus_bytes / MEMORY_BUDGET,
        "documents_loaded": seen["docs"],
        "sentences_loaded": sentences + len(warm_docs),
        "chunk_docs": chunk_docs,
        "ingest_seconds": ingest_seconds,
        "ingest_mb_per_sec": corpus_bytes / (1 << 20) / ingest_seconds,
        "rss_enforced": sampler.enabled,
        "peak_rss_delta_bytes": peak_delta,
        "rss_budget_multiple": peak_delta / MEMORY_BUDGET,
        "rss_multiple_limit": RSS_MULTIPLE,
        "rss_ok": (not sampler.enabled
                   or peak_delta <= RSS_MULTIPLE * MEMORY_BUDGET),
        "segment_files": sum(len(db[n].segment_refs)
                             for n in ("documents", "sentences")),
    })
    return db


def measure_spill_equivalence(results):
    """A join bigger than the budget spills and still matches in-memory."""
    left = Relation("mentions", Schema.of(k="int", tag="text"))
    right = Relation("labels", Schema.of(k="int", label="text"))
    # 140k distinct left rows -> ~2.2 MB of key/tag codes, over the budget;
    # right matches every even key once so the output stays modest
    for i in range(140_000):
        left.insert((i, f"t{i % 13}"))
    for i in range(30_000):
        right.insert((i * 2, f"l{i % 7}"))
    in_memory = EngineConfig(datastore_backend="columnar")
    budgeted = EngineConfig(datastore_backend="columnar",
                            memory_budget=MEMORY_BUDGET)
    assert (left.columnar().codes.nbytes
            + right.columnar().codes.nbytes) > MEMORY_BUDGET

    started = perf_counter()
    reference = Q.join(left, right, on=[("k", "k")], config=in_memory)
    in_memory_seconds = perf_counter() - started
    started = perf_counter()
    spilled = Q.join(left, right, on=[("k", "k")], config=budgeted)
    spill_seconds = perf_counter() - started

    results.update({
        "spill_bit_identical":
            spilled.counts_copy() == reference.counts_copy(),
        "spill_join_rows": len(spilled),
        "spill_join_seconds": spill_seconds,
        "in_memory_join_seconds": in_memory_seconds,
    })


def measure_checkpoints(tmp_path, db, results):
    """Unchanged store: segment hard-links vs a full inline dump."""
    payload = {"kind": "bench_e17"}

    manifest = CheckpointManager(tmp_path / "ckpt_manifest", keep=3)
    started = perf_counter()
    manifest.save(payload, lsn=1, database=db)    # seals + hard-links all
    first_seconds = perf_counter() - started
    first_bytes = manifest.last_save_bytes
    started = perf_counter()
    manifest.save(payload, lsn=2, database=db)    # unchanged: O(delta) = O(1)
    link_seconds = perf_counter() - started
    link_bytes = manifest.last_save_bytes

    full = CheckpointManager(tmp_path / "ckpt_full", keep=3)
    started = perf_counter()
    full.save({**payload, "database": database_to_dict(db)}, lsn=2)
    full_seconds = perf_counter() - started
    full_bytes = full.last_save_bytes

    restored = database_from_dict(manifest.load()["database"])
    restore_ok = all(
        len(restored[name]) == len(db[name])
        and restored[name].counts_copy() == db[name].counts_copy()
        for name in db.names())

    results.update({
        "checkpoint_first_seconds": first_seconds,
        "checkpoint_first_bytes": first_bytes,
        "checkpoint_link_seconds": link_seconds,
        "checkpoint_link_bytes": link_bytes,
        "checkpoint_full_seconds": full_seconds,
        "checkpoint_full_bytes": full_bytes,
        "checkpoint_speedup": full_seconds / max(link_seconds, 1e-9),
        "checkpoint_speedup_floor": CHECKPOINT_SPEEDUP_FLOOR,
        "restore_bit_identical": restore_ok,
    })


def test_e17_out_of_core(benchmark, reporter, tmp_path):
    results = {"experiment": "e17_out_of_core"}

    def experiment():
        db = measure_streaming_ingest(tmp_path, results)
        measure_spill_equivalence(results)
        measure_checkpoints(tmp_path, db, results)
        return results

    once(benchmark, experiment)

    mib = 1 << 20
    reporter.line("E17 -- out-of-core datastore: corpus >> memory budget")
    reporter.line()
    reporter.table(
        ["measurement", "value"],
        [["memory budget", f"{MEMORY_BUDGET / mib:.1f} MiB"],
         ["corpus size",
          f"{results['corpus_bytes'] / mib:.1f} MiB "
          f"({results['corpus_budget_multiple']:.1f}x budget, "
          f"{results['documents_loaded']} docs)"],
         ["streaming ingest",
          f"{results['ingest_seconds']:.1f} s "
          f"({results['ingest_mb_per_sec']:.2f} MB/s, "
          f"{results['sentences_loaded']} sentences, "
          f"{results['segment_files']} segments)"],
         ["peak RSS delta",
          f"{results['peak_rss_delta_bytes'] / mib:.2f} MiB "
          f"({results['rss_budget_multiple']:.2f}x budget, "
          f"limit {RSS_MULTIPLE:.0f}x)"
          if results["rss_enforced"] else "unmeasured (no /proc)"],
         ["spill join vs in-memory",
          f"bit-identical={results['spill_bit_identical']} "
          f"({results['spill_join_rows']} rows, "
          f"{results['spill_join_seconds']:.2f} s vs "
          f"{results['in_memory_join_seconds']:.2f} s)"],
         ["checkpoint, first (seal + link)",
          f"{results['checkpoint_first_seconds']:.2f} s, "
          f"{results['checkpoint_first_bytes']} bytes"],
         ["checkpoint, unchanged store",
          f"{results['checkpoint_link_seconds'] * 1000:.1f} ms, "
          f"{results['checkpoint_link_bytes']} bytes"],
         ["checkpoint, full dump",
          f"{results['checkpoint_full_seconds']:.2f} s, "
          f"{results['checkpoint_full_bytes']} bytes"],
         ["hard-link speedup",
          f"{results['checkpoint_speedup']:.0f}x "
          f"(floor {CHECKPOINT_SPEEDUP_FLOOR:.0f}x)"],
         ["restore bit-identical", str(results["restore_bit_identical"])]])
    write_json("BENCH_e17_out_of_core", results)

    assert results["corpus_budget_multiple"] >= CORPUS_MULTIPLE
    assert results["spill_bit_identical"]
    assert results["restore_bit_identical"]
    assert results["checkpoint_speedup"] >= CHECKPOINT_SPEEDUP_FLOOR
    if results["rss_enforced"]:
        assert results["rss_ok"], (
            f"peak RSS delta {results['peak_rss_delta_bytes']} exceeds "
            f"{RSS_MULTIPLE}x the {MEMORY_BUDGET}-byte budget")


# ------------------------------------------------------------ ingest kernels
def reference_sentence_rows(doc_id, content):
    """The reference composition the row kernel is held equal to: one
    ``Token`` per token, one scalar ``tag_token`` call per token plus the
    repair pass, one ``Sentence`` per sentence."""
    rows = []
    for index, text in enumerate(split_sentences(strip_html(content))):
        tokens = [token.text for token in tokenize(text)]
        tags = [tag_token(token, is_sentence_initial=(i == 0))
                for i, token in enumerate(tokens)]
        if (len(tags) >= 2 and tags[1] == "NNP" and tokens[0][:1].isupper()
                and tags[0] in ("NN", "JJ", "VB")):
            tags[0] = "NNP"
        rows.append(sentence_row(Sentence(
            doc_id=doc_id, sentence_id=index, text=text,
            tokens=tuple(tokens), pos_tags=tuple(tags))))
    return rows


def per_cell_validate(schema, rows):
    """Row validation as one ``coerce`` call per cell."""
    arity = schema.arity
    columns = schema.columns
    out = []
    for row in rows:
        assert len(row) == arity
        out.append(tuple(coerce(value, column.type)
                         for value, column in zip(row, columns)))
    return out


def best_of(fn, repeats=3):
    """(fastest seconds, last result) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        result = fn()
        best = min(best, perf_counter() - started)
    return best, result


def test_e17_ingest_kernels(benchmark, reporter):
    documents = list(spouse.stream(KERNEL_CHUNKS, config=CHUNK_CONFIG, seed=7))
    documents += materials.generate(seed=7).documents     # HTML, tables
    corpus_bytes = sum(len(doc.content) for doc in documents)
    results = {"experiment": "e17_ingest_kernels"}

    def experiment():
        kernel_seconds, kernel_rows = best_of(lambda: [
            row for doc in documents
            for row in sentence_rows(doc.doc_id, doc.content)])
        reference_seconds, reference_rows = best_of(lambda: [
            row for doc in documents
            for row in reference_sentence_rows(doc.doc_id, doc.content)])
        validate_row = SENTENCE_SCHEMA.validate_row
        compiled_seconds, compiled = best_of(
            lambda: [validate_row(row) for row in kernel_rows])
        per_cell_seconds, per_cell = best_of(
            lambda: per_cell_validate(SENTENCE_SCHEMA, kernel_rows))
        results.update({
            "documents": len(documents),
            "sentences": len(kernel_rows),
            "corpus_bytes": corpus_bytes,
            "rows_identical": kernel_rows == reference_rows,
            "row_kernel_docs_per_sec": len(documents) / kernel_seconds,
            "row_kernel_mb_per_sec": corpus_bytes / 1e6 / kernel_seconds,
            "reference_docs_per_sec": len(documents) / reference_seconds,
            "reference_mb_per_sec": corpus_bytes / 1e6 / reference_seconds,
            "row_kernel_speedup": reference_seconds / kernel_seconds,
            "row_kernel_floor": ROW_KERNEL_FLOOR,
            "validated_identical": compiled == per_cell,
            "compiled_validate_rows_per_sec":
                len(kernel_rows) / compiled_seconds,
            "per_cell_validate_rows_per_sec":
                len(kernel_rows) / per_cell_seconds,
            "validate_speedup": per_cell_seconds / compiled_seconds,
        })
        return results

    once(benchmark, experiment)

    reporter.line("E17 -- ingest kernels: documents -> validated sentence rows")
    reporter.line()
    reporter.line(f"{results['documents']} documents, "
                  f"{results['sentences']} sentences, "
                  f"{corpus_bytes / 1e6:.2f} MB of text; best of 3")
    reporter.line()
    reporter.table(
        ["kernel", "rate", "vs reference"],
        [["NLP, reference composition",
          f"{results['reference_docs_per_sec']:.0f} docs/s "
          f"({results['reference_mb_per_sec']:.2f} MB/s)", "1.0x"],
         ["NLP, row kernel",
          f"{results['row_kernel_docs_per_sec']:.0f} docs/s "
          f"({results['row_kernel_mb_per_sec']:.2f} MB/s)",
          f"{results['row_kernel_speedup']:.1f}x "
          f"(floor {ROW_KERNEL_FLOOR}x)"],
         ["validation, per-cell coerce",
          f"{results['per_cell_validate_rows_per_sec']:.0f} rows/s", "1.0x"],
         ["validation, compiled",
          f"{results['compiled_validate_rows_per_sec']:.0f} rows/s",
          f"{results['validate_speedup']:.1f}x"]])
    reporter.line()
    reporter.line(f"rows identical: {results['rows_identical']}; "
                  f"validated rows identical: "
                  f"{results['validated_identical']}")
    write_json("BENCH_e17_ingest_kernels", results)

    assert results["rows_identical"]
    assert results["validated_identical"]
    assert results["row_kernel_speedup"] >= ROW_KERNEL_FLOOR
    assert results["validate_speedup"] > 1.0
