"""The six workloads: set-up, timed section, output checks.

Everything here calls only the program's public API (``repro.apps``,
``repro.corpus`` via :mod:`workloads`, ``repro.nlp.pipeline``,
``repro.datastore``, ``repro.serve``, ``repro.inference``) and hands it only
generated inputs.  Each workload class has the same four steps:

``setup()``   generation is already done; bootstrap up to the timed section
``run(s)``    the timed section: operations until ``s`` seconds have passed
``finish()``  recovery and whole-output checks, off the clock
``close()``   stop services, so no thread outlives the workload

``run`` returns a :class:`Measured`; wrong answers found while running and
checks failed in ``finish`` both count as failed operations.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import pathlib
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

from repro.apps import ads, spouse
from repro.compliance import CompliancePolicy
from repro.datastore import Database
from repro.datastore.io import database_from_dict
from repro.inference import LearningOptions
from repro.nlp.pipeline import DOCUMENT_SCHEMA, SENTENCE_SCHEMA, load_corpus
from repro.obs.config import EngineConfig
from repro.serve import (CheckpointManager, IngestRejected, KBClient,
                         ServeConfig, ServiceFailed)

from bench.workloads import READ_RATE, ServeInput, StreamInput

# ------------------------------------------------------------------ settings
#: the spouse runs accept at 0.5, where F1 over 33 seeds never fell below
#: 0.947 (at 0.7 one seed reaches 0.903, too close to the floor to check)
SPOUSE_THRESHOLD = 0.5
MIN_F1 = 0.90
BATCH_RUN = dict(threshold=SPOUSE_THRESHOLD, num_samples=150, burn_in=25,
                 learning=LearningOptions(epochs=40, seed=0))
#: learning and sampling each take about half of one infer-joint run
JOINT_RUN = dict(threshold=SPOUSE_THRESHOLD, num_samples=2500, burn_in=500,
                 learning=LearningOptions(epochs=15, seed=0),
                 compute_train_histogram=False)
SERVE_RUN = dict(threshold=0.7, num_samples=120, burn_in=20,
                 learning=LearningOptions(epochs=40, seed=0))
ANONYMIZE = CompliancePolicy(enabled=True, default_action="anonymize",
                             min_confidence=0.5)
#: flush policy: fsync the WAL on every commit, checkpoint every 25 batches
#: (six cycles in a 150-batch run), work directory on the checkout's disk
SERVE_CONFIG = ServeConfig(wal_fsync=True, checkpoint_every=25,
                           refresh_samples=120, refresh_burn_in=20,
                           compliance=ANONYMIZE)
INGEST_TIMEOUT = 30.0
MEMORY_BUDGET = 1 << 20
SEGMENT_ROWS = 512
#: post-warm-up RSS growth allowed while streaming, in memory budgets: a
#: run streams 2-3 budgets of text, which held in memory as rows would take
#: over ten; the bounded tail plus allocator slack stays under two
RSS_BUDGETS = 4.0
#: warm-up chunks: enough documents that both relations have sealed once
WARM_CHUNKS = 4


@dataclass
class Measured:
    """What one timed section produced."""

    latencies: list[float]             # seconds per primary operation
    work: float                        # units of work done (see README)
    busy: float                        # seconds the work took
    attempted: int
    failed: int = 0
    #: reported-only values: name -> (value, unit, samples)
    extras: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: inputs to per-layer ratios the tracer cannot see (user bytes ...)
    facts: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def marginals_digest(marginals) -> str:
    rows = sorted((repr(key), value) for key, value in marginals.items())
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def tail(latencies: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for label, fraction in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        beyond = int(len(ordered) * (1.0 - fraction))
        if beyond >= 10:
            return label, ordered[len(ordered) - beyond - 1]
    return None


def add_latency_extras(extras: dict, prefix: str, latencies: list[float],
                       factor: float, unit: str) -> None:
    if not latencies:
        return
    n = len(latencies)
    extras[f"{prefix}_p50_{unit}"] = (
        statistics.median(latencies) * factor, unit, n)
    found = tail(latencies)
    if found is not None:
        label, value = found
        extras[f"{prefix}_{label}_{unit}"] = (value * factor, unit, n)


def read_rss_bytes() -> int | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


# ------------------------------------------------------------- batch pipeline
class BatchSpouse:
    """Documents -> marginals, a fresh application per operation."""

    work_unit = "documents"
    #: whole-output checks ``finish`` makes (each counts as one operation)
    checks = 0

    def __init__(self, inputs, workdir, tracer) -> None:
        self.corpus = inputs
        self.tracer = tracer
        self.digests: set[str] = set()
        #: reported-only values ``finish`` measured: name -> (value, unit, n)
        self.post_extras: dict = {}

    def setup(self) -> None:
        # one pass over a slice pays lazy imports and regex compilation
        warm = dataclasses.replace(
            self.corpus, documents=self.corpus.documents[:256])
        spouse.build(warm, seed=0).run(**BATCH_RUN)

    def operation(self):
        app = spouse.build(self.corpus, seed=0)
        return app, app.run(**BATCH_RUN)

    def run(self, seconds: float) -> Measured:
        latencies, failed = [], 0
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            started = perf_counter()
            with self.tracer.span("bench.run"):
                app, result = self.operation()
            latencies.append(perf_counter() - started)
            failed += self.wrong(app, result)
        return Measured(latencies,
                        work=len(self.corpus.documents) * len(latencies),
                        busy=sum(latencies), attempted=len(latencies),
                        failed=failed, digest=",".join(sorted(self.digests)))

    def wrong(self, app, result) -> int:
        """1 when this run's output is wrong: low F1, or marginals that
        differ from an earlier run on the same input."""
        self.digests.add(marginals_digest(result.marginals))
        quality = spouse.evaluate(app, result, self.corpus)
        return int(quality.f1 < MIN_F1 or len(self.digests) > 1)

    def finish(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class InferJoint(BatchSpouse):
    """Learning + Gibbs sampling over a graph grounded in set-up."""

    work_unit = "variable samples"

    def setup(self) -> None:
        self.app = spouse.build(self.corpus, seed=0, joint=True)
        graph = self.app.grounder.graph
        # run() exports the learned weights into the graph; every operation
        # starts from the grounded values again, so all are the same work
        self.initial_weights = {weight_id: weight.value
                                for weight_id, weight in graph.weights.items()}
        options = JOINT_RUN["learning"]
        self.samples_per_run = len(graph.variables) * (
            2 * options.epochs * options.sweeps_per_epoch
            + JOINT_RUN["num_samples"] + JOINT_RUN["burn_in"])

    def operation(self):
        for weight_id, weight in self.app.graph.weights.items():
            weight.value = self.initial_weights[weight_id]
        return self.app, self.app.run(**JOINT_RUN)

    def run(self, seconds: float) -> Measured:
        measured = super().run(seconds)
        measured.work = self.samples_per_run * len(measured.latencies)
        return measured


# -------------------------------------------------------------------- serving
class ServeMixed:
    """One closed-loop writer, one open-loop reader, then recovery."""

    work_unit = "documents committed"
    checks = 5
    shards = 1

    def __init__(self, inputs: ServeInput, workdir: pathlib.Path,
                 tracer) -> None:
        self.inputs = inputs
        self.directory = workdir / "service"
        self.tracer = tracer
        self.config = SERVE_CONFIG.with_options(shards=self.shards)
        self.client: KBClient | None = None
        self.acked: list = []
        self.post_extras: dict = {}

    def setup(self) -> None:
        self.client = KBClient.create(
            self.directory, ads.make_serve_factory(),
            ads.serve_bootstrap_ops(self.inputs.corpus),
            config=self.config, run_kwargs=SERVE_RUN)
        snapshot = self.client.snapshot()
        self.keys = sorted(snapshot.marginals)
        self.relations = sorted({name for name, _ in self.keys})

    # ---------------------------------------------------------------- reads
    def read(self, kind: str, pick: int):
        client = self.client
        if kind == "query":
            return client.query(self.relations[pick % len(self.relations)])
        if kind == "top":
            return client.top(self.relations[pick % len(self.relations)], 10)
        if kind == "marginal":
            return client.marginal(self.keys[pick % len(self.keys)], -1.0)
        return client.snapshot_at(client.lsn_vector())

    @staticmethod
    def plausible(kind: str, result) -> bool:
        """The cheap shape check the open-loop reader can afford."""
        if kind == "query":
            return isinstance(result, set)
        if kind == "top":
            probabilities = [p for _, p in result]
            return len(result) <= 10 and \
                probabilities == sorted(probabilities, reverse=True)
        return result == -1.0 or 0.0 <= result <= 1.0

    def reader(self, start: float, stop: threading.Event, out: dict) -> None:
        reads = self.inputs.reads
        latencies, lateness, examined, returned = [], [], 0, 0
        failed = index = 0
        while not stop.is_set():
            due = start + index / READ_RATE
            wait = due - perf_counter()
            if wait > 0:
                sleep(min(wait, 0.05))
                continue
            kind, pick = reads[index % len(reads)]
            lateness.append(perf_counter() - due)
            try:
                with self.tracer.span("bench.read"):
                    result = self.read(kind, pick)
            except (ServiceFailed, KeyError):   # a refused read has failed
                result, ok = None, False
            else:
                ok = self.plausible(kind, result)
            # each read is timed from when it was due, so a stall is
            # charged to every read it delayed
            latencies.append(perf_counter() - due)
            failed += not ok
            if ok and kind != "marginal":
                examined += len(self.client.snapshot())
                returned += len(result)
            index += 1
        out.update(latencies=latencies, lateness=lateness, failed=failed,
                   examined=examined, returned=returned)

    # --------------------------------------------------------------- writes
    def run(self, seconds: float) -> Measured:
        client, tracer = self.client, self.tracer
        stop, reads = threading.Event(), {}
        latencies, refused, docs, user_bytes = [], 0, 0, 0
        started = perf_counter()
        thread = threading.Thread(target=self.reader, name="bench-reader",
                                  args=(started, stop, reads))
        thread.start()
        try:
            deadline = started + seconds
            for batch in self.inputs.batches:
                issued = perf_counter()
                if issued >= deadline:
                    break
                try:
                    with tracer.span("serve.commit", ambient=True):
                        client.ingest(batch.ops, timeout=INGEST_TIMEOUT)
                except (IngestRejected, ServiceFailed, TimeoutError):
                    refused += 1
                    continue
                latencies.append(perf_counter() - issued)
                self.acked.append(batch)
                docs += batch.docs
                user_bytes += batch.user_bytes
            busy = perf_counter() - started
        finally:
            stop.set()
            thread.join(INGEST_TIMEOUT)
        # a reader that never reported counts as one failed read
        failed = refused + reads.get("failed", 1)
        extras: dict = {}
        add_latency_extras(extras, "ingest", latencies, 1e3, "ms")
        add_latency_extras(extras, "read", reads.get("latencies", []),
                           1e6, "us")
        lateness = reads.get("lateness", [])
        if lateness:
            extras["read_generator_lateness_p50_us"] = (
                statistics.median(lateness) * 1e6, "us", len(lateness))
        facts = {"user_bytes": user_bytes,
                 "rows_examined": reads.get("examined", 0),
                 "rows_returned": reads.get("returned", 0)}
        return Measured(latencies, work=docs, busy=busy,
                        attempted=len(latencies) + refused
                        + max(1, len(lateness)),
                        failed=failed, extras=extras, facts=facts)

    # ------------------------------------------------------------- recovery
    def finish(self) -> list[str]:
        """Stop without a final checkpoint, reopen, and compare with the
        last acknowledged snapshot."""
        client = self.client
        acknowledged = client.snapshot()
        lsn_vector = client.lsn_vector()
        expected = dict(acknowledged.marginals)
        client.stop(checkpoint=False)
        started = perf_counter()
        with self.tracer.span("bench.recover"):
            self.client = client = KBClient.open(
                self.directory, ads.make_serve_factory(),
                config=self.config, run_kwargs=SERVE_RUN)
        self.post_extras["recovery_s"] = (perf_counter() - started, "s", 1)
        recovered = client.snapshot()
        marginals = dict(recovered.marginals)
        published_ads = {values[0] for _, values in marginals}
        added = {doc for batch in self.acked for doc in batch.added}
        removed = {doc for batch in self.acked for doc in batch.removed}
        raw_pii = {value for truth in ("ad_phone", "ad_email",
                                       "ad_contact_phone")
                   for _, value in self.inputs.corpus.truth[truth]}
        for batch in self.acked:
            for op in batch.ops:
                for _, content in getattr(op, "documents", ()):
                    raw_pii.update(ads.EMAIL_PATTERN.findall(content))
                    raw_pii.update(
                        m.group(0) for m in
                        ads.CONTACT_PHONE_PATTERN.finditer(content))
        parts = getattr(recovered, "parts", (recovered,))
        counts = [part.relation_counts.get("documents", 0) for part in parts]
        self.shard_skew = max(counts) / (sum(counts) / len(counts))
        checks = {
            "lsn_vector_recovered": client.lsn_vector() == lsn_vector,
            "marginals_bit_identical": marginals == expected,
            "acked_adds_visible": added - removed <= published_ads,
            "acked_removes_gone": not (removed & published_ads),
            "no_raw_pii_published": not any(
                cell in raw_pii for _, values in marginals
                for cell in values),
        }
        return [name for name, passed in checks.items() if not passed]

    def close(self) -> None:
        if self.client is not None:
            self.client.stop(checkpoint=False)
            self.client = None


class ServeSharded(ServeMixed):
    """``ServeMixed`` with the same input and two shards."""

    shards = 2


class ServeRead(ServeMixed):
    """Closed-loop reads against an idle, larger knowledge base; every
    result is compared with a reference worked out from the marginals."""

    work_unit = "reads"
    checks = 0

    def setup(self) -> None:
        super().setup()
        self.snapshot = self.client.snapshot()
        self.references: dict = {}

    def finish(self) -> list[str]:
        return []                            # every read was checked in run

    def reference(self, kind: str, pick: int):
        marginals = self.snapshot.marginals
        if kind == "marginal":
            return marginals[self.keys[pick % len(self.keys)]]
        relation = self.relations[pick % len(self.relations)]
        if (kind, relation) not in self.references:
            rows = [(values, p) for (name, values), p in marginals.items()
                    if name == relation]
            if kind == "query":
                found = {values for values, p in rows
                         if p >= self.snapshot.threshold}
            else:
                found = sorted(rows, key=lambda row: (-row[1], row[0]))[:10]
            self.references[kind, relation] = found
        return self.references[kind, relation]

    def run(self, seconds: float) -> Measured:
        reads, tracer = self.inputs.reads, self.tracer
        by_kind: dict[str, list[float]] = {}
        latencies, failed, examined, returned = [], 0, 0, 0
        size = len(self.snapshot)
        deadline = perf_counter() + seconds
        for index in itertools.count():
            started = perf_counter()
            if started >= deadline:
                break
            kind, pick = reads[index % len(reads)]
            with tracer.span("bench.read"):
                result = self.read(kind, pick)
            elapsed = perf_counter() - started
            latencies.append(elapsed)
            by_kind.setdefault(kind, []).append(elapsed)
            # checked off the clock: work_per_s divides by busy seconds
            if kind == "snapshot_at":
                failed += result is not self.snapshot
            else:
                failed += result != self.reference(kind, pick)
                if kind != "marginal":
                    examined += size
                    returned += len(result)
        extras: dict = {}
        add_latency_extras(extras, "read", latencies, 1e6, "us")
        for kind, values in sorted(by_kind.items()):
            extras[f"read_{kind}_p50_us"] = (
                statistics.median(values) * 1e6, "us", len(values))
        return Measured(latencies, work=len(latencies), busy=sum(latencies),
                        attempted=len(latencies), failed=failed,
                        extras=extras,
                        facts={"rows_examined": examined,
                               "rows_returned": returned})


# --------------------------------------------------------------------- ingest
class StreamIngest:
    """Chunked streaming load into segmented relations, then checkpoints."""

    work_unit = "kilobytes of text"
    checks = 4

    def __init__(self, inputs: StreamInput, workdir: pathlib.Path,
                 tracer) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.post_extras: dict = {}

    def setup(self) -> None:
        config = EngineConfig(datastore_backend="columnar",
                              memory_budget=MEMORY_BUDGET,
                              segment_rows=SEGMENT_ROWS)
        self.db = Database(config=config)
        self.db.create_segmented("documents", DOCUMENT_SCHEMA,
                                 directory=self.workdir / "documents")
        self.db.create_segmented("sentences", SENTENCE_SCHEMA,
                                 directory=self.workdir / "sentences")
        self.stream = self.inputs.documents(chunks=1_000_000)
        # a few chunks through the whole chain, sealing included, grow the
        # allocator arenas and fill the interpreter's caches; the timed
        # section starts after them
        warm = list(itertools.islice(
            self.stream, WARM_CHUNKS * self.inputs.chunk_docs))
        self.documents = len(warm)
        self.sentences = load_corpus(self.db, warm,
                                     chunk_docs=self.inputs.chunk_docs)
        gc.collect()
        self.rss_baseline = read_rss_bytes()

    def run(self, seconds: float) -> Measured:
        chunk_docs = self.inputs.chunk_docs
        latencies: list[float] = []
        totals = {"bytes": 0, "peak_rss": self.rss_baseline or 0}
        deadline = perf_counter() + seconds

        def feed():
            ready = None
            while True:
                requested = perf_counter()
                if ready is not None:        # the previous chunk is loaded
                    latencies.append(requested - ready)
                    totals["peak_rss"] = max(totals["peak_rss"],
                                             read_rss_bytes() or 0)
                if requested >= deadline:
                    return
                # generating the next chunk is the benchmark's own work:
                # named in the trace, left out of the latencies
                with self.tracer.span("workload.generate"):
                    chunk = list(itertools.islice(self.stream, chunk_docs))
                totals["bytes"] += sum(len(doc.content) for doc in chunk)
                self.documents += len(chunk)
                ready = perf_counter()
                yield from chunk

        with self.tracer.span("bench.ingest"):
            self.sentences += load_corpus(self.db, feed(),
                                          chunk_docs=chunk_docs)
        self.text_bytes = totals["bytes"]
        self.rss_growth = totals["peak_rss"] - (self.rss_baseline or 0)
        extras: dict = {}
        add_latency_extras(extras, "chunk", latencies, 1e3, "ms")
        extras["ingest_mb_per_s"] = (
            totals["bytes"] / 1e6 / sum(latencies), "MB/s", len(latencies))
        extras["rss_growth_mb"] = (self.rss_growth / 1e6, "MB", 1)
        extras["text_budgets"] = (totals["bytes"] / MEMORY_BUDGET, "x", 1)
        return Measured(latencies, work=totals["bytes"] / 1e3,
                        busy=sum(latencies), attempted=len(latencies),
                        extras=extras, facts={"user_bytes": totals["bytes"]})

    def finish(self) -> list[str]:
        db = self.db
        for name in ("documents", "sentences"):
            db[name].flush()
        manager = CheckpointManager(self.workdir / "checkpoints", keep=3)
        for lsn, label in ((1, "first"), (2, "link")):   # 2: unchanged store
            started = perf_counter()
            manager.save({"kind": "stream-ingest"}, lsn=lsn, database=db)
            self.post_extras[f"checkpoint_{label}_s"] = (
                perf_counter() - started, "s", 1)
        restored = database_from_dict(manager.load()["database"])
        checks = {
            "documents_row_count": len(db["documents"]) == self.documents,
            "sentences_row_count": len(db["sentences"]) == self.sentences,
            "restore_bit_identical": all(
                restored[name].counts_copy() == db[name].counts_copy()
                for name in db.names()),
            # a traced run keeps its spans in this process, so only the
            # untraced run can vouch for the program's memory
            "rss_growth_within_budget": self.rss_baseline is None
            or self.tracer.enabled
            or self.rss_growth <= RSS_BUDGETS * MEMORY_BUDGET,
        }
        return [name for name, passed in checks.items() if not passed]

    def close(self) -> None:
        pass


WORKLOADS = {
    "batch-spouse": BatchSpouse,
    "infer-joint": InferJoint,
    "serve-mixed": ServeMixed,
    "serve-read": ServeRead,
    "serve-sharded": ServeSharded,
    "stream-ingest": StreamIngest,
}
