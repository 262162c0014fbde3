"""E18 -- sharded serving: ingest scale-out, merged reads, vector recovery.

Routing documents over N single-writer shards — each with its own WAL and
apply loop — while readers still see one consistent (never torn) merged
view.  Three measurements:

* **ingest scale-out**: the same multi-document batch stream through a
  1-shard and a 2-shard layout, reported as ``ingest_speedup``.  Shards are
  threads under one interpreter lock, so no throughput floor is asserted;
  the number is reported for a process-per-shard design to beat;
* **concurrent merged reads**: reader threads hammer the merged snapshot
  during the 2-shard ingest — read p50/p99 plus the readers-never-blocked
  check from E16, now across the router's fan-out/publish path;
* **sharded recovery**: stop the 2-shard router after committed
  multi-shard batches, reopen, and require the republished (version, LSN)
  vector and marginals to be bit-identical.

Machine-readable results land in ``results/BENCH_e18_sharded.json`` for CI
to validate.
"""

from __future__ import annotations

import threading
from statistics import quantiles
from time import perf_counter

from conftest import once, write_json

from repro.core.app import DeepDive
from repro.inference import LearningOptions
from repro.obs.config import EngineConfig
from repro.parallel import effective_cpus
from repro.serve import ServeConfig, ShardedKBService, add_documents, add_rows

PROGRAM = """
Content(s text, content text).
NameMention(s text, m text, token text, position int).
GoodName?(m text).
GoodList(token text).
BadList(token text).

GoodName(m) :-
    NameMention(s, m, t, p), Content(s, content)
    weight = name_features(t, content).

GoodName_Ev(m, true) :- NameMention(s, m, t, p), GoodList(t).
GoodName_Ev(m, false) :- NameMention(s, m, t, p), BadList(t).
"""

GOOD = ["apple", "plum", "pear", "fig", "grape", "melon", "lime", "peach"]
BAD = ["rust", "mold", "rot", "slime", "blight", "decay", "scum", "tar"]

#: filler sentences per document: makes the NLP chain (strip, split,
#: tokenize, tag) the dominant per-document cost
FILLER_SENTENCES = 40
NUM_BOOTSTRAP_DOCS = 8
NUM_INGEST_BATCHES = 4
DOCS_PER_BATCH = 8
NUM_READERS = 4


def extractor(sentence):
    rows = []
    for position, token in enumerate(sentence.tokens):
        lower = token.lower()
        if lower in GOOD + BAD:
            rows.append((sentence.key, f"{sentence.key}:{position}",
                         lower, position))
    return rows


def app_factory(extra_rules=""):
    source = PROGRAM + ("\n" + extra_rules if extra_rules else "")
    app = DeepDive(source, seed=0, config=EngineConfig())
    app.register_udf("name_features",
                     lambda t, content: [f"word:{t}",
                                         "fresh" if t in GOOD else "spoiled"])
    app.add_extractor("NameMention", extractor)
    app.add_extractor("Content", lambda s: [(s.key, s.text)])
    return app


RUN_KWARGS = dict(threshold=0.7, learning=LearningOptions(epochs=40, seed=0),
                  num_samples=120, burn_in=20)


def doc_content(token, serial):
    filler = " ".join(
        f"Sentence number {serial}-{index} rambles on about the weather "
        f"and the harvest season in the valley."
        for index in range(FILLER_SENTENCES))
    return f"the {token} sat there . {filler}"


def bootstrap_ops():
    docs = [(f"d{i}", doc_content(GOOD[i % len(GOOD)], i))
            for i in range(NUM_BOOTSTRAP_DOCS)]
    return [add_documents(docs),
            add_rows("GoodList", [(g,) for g in GOOD[:5]]),
            add_rows("BadList", [(b,) for b in BAD[:5]])]


def delta_batch(index):
    base = (index + 1) * 1000
    docs = [(f"n{base + slot}",
             doc_content(GOOD[(index + slot) % len(GOOD)], base + slot))
            for slot in range(DOCS_PER_BATCH)]
    return [add_documents(docs)]


def make_service(tmp_path, tag, shards):
    config = ServeConfig(shards=shards, checkpoint_every=0,
                         refresh_samples=40, refresh_burn_in=10)
    return ShardedKBService.create(tmp_path / tag, app_factory,
                                   bootstrap_ops(), config=config,
                                   run_kwargs=RUN_KWARGS)


def measure_ingest(tmp_path, shards, with_readers=False):
    """Stream the delta batches through an N-shard layout; docs/sec, and
    (optionally) merged-read latency under that load."""
    with make_service(tmp_path, f"shards{shards}", shards) as service:
        client = service.client()
        stop = threading.Event()
        ingesting = threading.Event()
        latencies: list[list[float]] = [[] for _ in range(NUM_READERS)]
        during: list[int] = [0] * NUM_READERS

        def reader(slot):
            while not stop.is_set():
                started = perf_counter()
                snapshot = client.snapshot()
                snapshot.output_tuples("GoodName")
                latencies[slot].append(perf_counter() - started)
                if ingesting.is_set():
                    during[slot] += 1

        threads = []
        if with_readers:
            threads = [threading.Thread(target=reader, args=(slot,))
                       for slot in range(NUM_READERS)]
            for thread in threads:
                thread.start()
        ingesting.set()
        started = perf_counter()
        for index in range(NUM_INGEST_BATCHES):
            client.ingest(delta_batch(index))
        ingest_seconds = perf_counter() - started
        ingesting.clear()
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        result = {
            "ingest_seconds": ingest_seconds,
            "docs_per_sec": (NUM_INGEST_BATCHES * DOCS_PER_BATCH)
            / ingest_seconds,
        }
        if with_readers:
            flat = sorted(sum(latencies, []))
            cuts = quantiles(flat, n=100)
            result.update({
                "reads_total": len(flat),
                "reads_during_ingest": sum(during),
                "read_p50_ms": cuts[49] * 1000,
                "read_p99_ms": cuts[98] * 1000,
                "readers_never_blocked": (
                    all(count > 0 for count in during)
                    and cuts[98] < ingest_seconds / NUM_INGEST_BATCHES),
            })
    return result


def measure_sharded_recovery(tmp_path):
    """Kill the 2-shard router after committed multi-shard batches; reopen
    must republish the identical LSN vector and marginals."""
    config = ServeConfig(shards=2, checkpoint_every=0,
                         refresh_samples=40, refresh_burn_in=10)
    service = make_service(tmp_path, "recover", 2)
    for index in range(2):
        service.client().ingest(delta_batch(index))
    expected_view = service.client().snapshot()
    expected = (expected_view.lsn_vector, expected_view.version_vector,
                dict(expected_view.marginals))
    service.stop()                               # no final checkpoint
    started = perf_counter()
    recovered = ShardedKBService.open(tmp_path / "recover", app_factory,
                                      config=config, run_kwargs=RUN_KWARGS)
    recovery_seconds = perf_counter() - started
    with recovered:
        view = recovered.client().snapshot()
        identical = (view.lsn_vector, view.version_vector,
                     dict(view.marginals)) == expected
    return recovery_seconds, identical


def test_e18_sharded(benchmark, reporter, tmp_path):
    results = {"cpus": effective_cpus(),
               "docs_per_batch": DOCS_PER_BATCH,
               "ingest_batches": NUM_INGEST_BATCHES}

    def experiment():
        single = measure_ingest(tmp_path, shards=1)
        sharded = measure_ingest(tmp_path, shards=2, with_readers=True)
        results["single_docs_per_sec"] = single["docs_per_sec"]
        results["sharded_docs_per_sec"] = sharded["docs_per_sec"]
        results["ingest_speedup"] = (sharded["docs_per_sec"]
                                     / single["docs_per_sec"])
        for key in ("reads_total", "reads_during_ingest", "read_p50_ms",
                    "read_p99_ms", "readers_never_blocked"):
            results[key] = sharded[key]
        recovery_seconds, identical = measure_sharded_recovery(tmp_path)
        results["recovery_seconds"] = recovery_seconds
        results["recovery_bit_identical"] = identical
        return results

    once(benchmark, experiment)

    reporter.line("E18 -- sharded serving: scale-out ingest, merged reads")
    reporter.line()
    reporter.table(
        ["measurement", "value"],
        [["visible CPUs", str(results["cpus"])],
         ["1-shard ingest",
          f"{results['single_docs_per_sec']:.1f} docs/s"],
         ["2-shard ingest",
          f"{results['sharded_docs_per_sec']:.1f} docs/s"],
         ["ingest speedup", f"{results['ingest_speedup']:.2f}x"],
         ["merged read p50 / p99",
          f"{results['read_p50_ms']:.2f} / {results['read_p99_ms']:.2f} ms"],
         ["reads during ingest",
          f"{results['reads_during_ingest']} of {results['reads_total']}"],
         ["readers never blocked",
          str(results["readers_never_blocked"])],
         ["sharded recovery",
          f"{results['recovery_seconds'] * 1000:.0f} ms"],
         ["recovery vector bit-identical",
          str(results["recovery_bit_identical"])]])
    write_json("BENCH_e18_sharded", results)

    assert results["readers_never_blocked"]
    assert results["recovery_bit_identical"]
