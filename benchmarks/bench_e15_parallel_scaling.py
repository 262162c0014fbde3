"""E15 -- real wall-clock scaling of the shared-memory parallel layer.

Unlike E4 (which scales the *modeled* NUMA cost), this experiment measures
actual wall-clock time: the replica chains genuinely run in warm worker
processes over one shared-memory copy of the compiled graph
(:mod:`repro.parallel`), and the corpus loader genuinely fans the NLP
chain across the same persistent pool.

Artifacts:

* replica sampling wall clock at workers = 0 (sequential reference), 1, 2,
  4 on a KBC-shaped graph with 4 NUMA replicas -- marginals asserted
  bit-identical to the sequential path at every worker count.  Each pool
  is warmed (workers spawned, segment packed) by a short untimed dispatch
  before its timed run, so the timings measure the steady state a real
  iteration loop sees;
* dispatch overhead, cold vs warm: the first dispatch on a fresh pool
  pays spawn + shared-memory packing; the second hits the segment cache.
  The warm overhead must be < 10% of the cold one;
* corpus loading wall clock sequential vs 4 warm workers -- relation
  contents asserted byte-identical.

Acceptance floor: >= 1.5x replica speedup at some worker count, asserted
only when the host actually has >= 4 usable CPUs (the determinism and
overhead assertions always run; on a 1-core container the parallel path
is correctness-only).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import once, write_json

from repro.datastore import Database
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs
from repro.nlp.pipeline import Document, load_corpus
from repro.parallel import get_pool, shutdown_pools

SOCKETS = 4
WORKER_COUNTS = [1, 2, 4]
SPEEDUP_FLOOR = 1.5
WARM_OVERHEAD_CEILING = 0.1          # warm dispatch < 10% of cold dispatch
NUM_SAMPLES = 120
BURN_IN = 30
SYNC_EVERY = 30
SEED = 7


def effective_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def kbc_graph(num_candidates=12000, features_per_candidate=3,
              correlation_fraction=0.2, seed=0) -> CompiledGraph:
    """Unary-heavy KBC-shaped graph (the e3 profile, sized for 4 replicas)."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    for i in range(num_candidates):
        v = graph.variable(("cand", i))
        for _ in range(features_per_candidate):
            weight = graph.weight(("feat", int(rng.integers(0, 200))),
                                  float(rng.normal(0, 0.5)))
            graph.add_factor(FactorFunction.IS_TRUE, [v], weight)
    for _ in range(int(num_candidates * correlation_fraction)):
        a = graph.variable(("cand", int(rng.integers(0, num_candidates))))
        b = graph.variable(("cand", int(rng.integers(0, num_candidates))))
        if a == b:
            continue
        weight = graph.weight(("corr", int(rng.integers(0, 20))), 0.5)
        graph.add_factor(FactorFunction.IMPLY, [a, b], weight)
    return CompiledGraph(graph)


def run_once(compiled: CompiledGraph, workers: int,
             num_samples=NUM_SAMPLES, burn_in=BURN_IN):
    config = NumaConfig(sockets=SOCKETS, sync_every=SYNC_EVERY,
                        workers=workers)
    return NumaGibbs(compiled, config, seed=SEED).run(
        num_samples=num_samples, burn_in=burn_in)


def timed_run(compiled: CompiledGraph, workers: int):
    start = time.perf_counter()
    result = run_once(compiled, workers)
    return time.perf_counter() - start, result


def corpus_documents(count=120, sentences_per_doc=12) -> list[Document]:
    body = " ".join(
        f"<p>Researcher {i} of group {{d}} studies statistical inference "
        f"over factor graphs and reports strong marginal estimates.</p>"
        for i in range(sentences_per_doc))
    return [Document(f"doc{d}", body.format(d=d)) for d in range(count)]


@pytest.fixture(autouse=True, scope="module")
def _shutdown_registry_pools():
    yield
    shutdown_pools()


def test_e15_replica_scaling(benchmark, reporter):
    measurements = {}

    def experiment():
        compiled = kbc_graph()
        shutdown_pools()                 # overhead numbers start truly cold
        seq_time, seq_result = timed_run(compiled, workers=0)

        # --- dispatch overhead: cold (spawn + pack) vs warm (cache hit).
        # Short dispatches -- overhead is measured up to the point the
        # worker commands are on the wire, independent of sweep count.
        # Warm overhead is the min of several dispatches: a single reading
        # can catch the parent descheduled behind its own workers.
        pool = get_pool(4)
        overhead = {"cold": None, "warm": None}
        if pool is not None:
            warm_readings = []
            for phase in ("cold",) + ("warm",) * 5:
                outcome = pool.run_replicas(
                    compiled, sockets=SOCKETS, seed=SEED,
                    total_sweeps=10, burn_in=5, sync_every=5)
                if outcome is None:
                    break
                assert pool.last_dispatch_cold is (phase == "cold")
                if phase == "cold":
                    overhead["cold"] = pool.last_dispatch_overhead
                else:
                    warm_readings.append(pool.last_dispatch_overhead)
            if warm_readings:
                overhead["warm"] = min(warm_readings)

        # --- scaling: warm each pool with a short dispatch, then time the
        # full run (what a steady-state iteration loop sees).
        runs = {}
        for workers in WORKER_COUNTS:
            warm_up = run_once(compiled, workers, num_samples=8, burn_in=2)
            assert warm_up is not None
            wall, result = timed_run(compiled, workers=workers)
            assert np.array_equal(seq_result.marginals, result.marginals), \
                f"workers={workers} diverged from the sequential reference"
            assert result.samples_drawn == seq_result.samples_drawn
            runs[workers] = wall
        measurements.update(seq_time=seq_time, runs=runs, overhead=overhead,
                            samples=seq_result.samples_drawn,
                            variables=compiled.num_variables)
        return measurements

    once(benchmark, experiment)

    seq_time = measurements["seq_time"]
    runs = measurements["runs"]
    overhead = measurements["overhead"]
    cpus = os.cpu_count() or 1
    usable = effective_cpus()
    speedups = {w: seq_time / t for w, t in runs.items()}
    fraction = (overhead["warm"] / overhead["cold"]
                if overhead["cold"] and overhead["warm"] is not None
                else None)

    reporter.line("E15 -- real wall-clock replica scaling (warm pool)")
    reporter.line(f"graph: {measurements['variables']} variables, "
                  f"{SOCKETS} NUMA replicas, "
                  f"{measurements['samples']} samples; "
                  f"host CPUs: {cpus} ({usable} usable)")
    reporter.line()
    reporter.table(
        ["workers", "wall clock", "speedup", "identical"],
        [["0 (sequential)", f"{seq_time:.3f}s", "1.00x", "reference"]]
        + [[w, f"{runs[w]:.3f}s", f"{speedups[w]:.2f}x", "yes"]
           for w in WORKER_COUNTS])
    reporter.line()
    if fraction is not None:
        reporter.line(f"dispatch overhead: cold {overhead['cold']:.4f}s "
                      f"(spawn + pack), warm {overhead['warm']:.4f}s "
                      f"({fraction:.1%} of cold)")
    gated = usable >= 4
    best = max(speedups.values())
    reporter.line(f"acceptance floor {SPEEDUP_FLOOR}x: "
                  + (f"{'PASS' if best >= SPEEDUP_FLOOR else 'FAIL'} "
                     f"(best {best:.2f}x)"
                     if gated else f"skipped ({usable} usable CPU(s))"))

    write_json("BENCH_e15_parallel_scaling", {
        "experiment": "e15_parallel_scaling",
        "cpus": cpus,
        "effective_cpus": usable,
        "sockets": SOCKETS,
        "sequential_seconds": seq_time,
        "parallel_seconds": {str(w): runs[w] for w in WORKER_COUNTS},
        "speedups": {str(w): speedups[w] for w in WORKER_COUNTS},
        "floor": SPEEDUP_FLOOR,
        "floor_enforced": gated,
        "bit_identical": True,
        "cold_dispatch_overhead_seconds": overhead["cold"],
        "warm_dispatch_overhead_seconds": overhead["warm"],
        "warm_overhead_fraction": fraction,
    })

    # Determinism and the warm-dispatch contract are unconditional; the
    # wall-clock floor only means something when the host can actually run
    # 4 workers concurrently.
    assert fraction is not None, "overhead measurement never dispatched"
    assert fraction < WARM_OVERHEAD_CEILING
    if gated:
        assert best >= SPEEDUP_FLOOR


def test_e15_corpus_fanout(benchmark, reporter):
    measurements = {}

    def experiment():
        docs = corpus_documents()
        db_seq = Database()
        start = time.perf_counter()
        rows = load_corpus(db_seq, docs, workers=0)
        seq_time = time.perf_counter() - start

        # warm the pool (spawn workers) before the timed parallel load
        load_corpus(Database(), docs[:8], workers=4, pool_min_work=0)
        db_par = Database()
        start = time.perf_counter()
        par_rows = load_corpus(db_par, docs, workers=4)
        par_time = time.perf_counter() - start

        assert rows == par_rows
        assert list(db_seq["sentences"]) == list(db_par["sentences"])
        assert list(db_seq["documents"]) == list(db_par["documents"])
        measurements.update(seq_time=seq_time, par_time=par_time,
                            docs=len(docs), rows=rows)
        return measurements

    once(benchmark, experiment)

    seq_time = measurements["seq_time"]
    par_time = measurements["par_time"]
    speedup = seq_time / par_time
    reporter.line("E15 -- corpus fan-out (load_corpus, 4 warm workers)")
    reporter.line(f"{measurements['docs']} documents -> "
                  f"{measurements['rows']} sentence rows; "
                  f"host CPUs: {os.cpu_count() or 1} "
                  f"({effective_cpus()} usable)")
    reporter.line()
    reporter.table(
        ["path", "wall clock", "speedup"],
        [["sequential", f"{seq_time:.3f}s", "1.00x"],
         ["4 workers", f"{par_time:.3f}s", f"{speedup:.2f}x"]])
    reporter.line()
    reporter.line("relation contents byte-identical: yes")
