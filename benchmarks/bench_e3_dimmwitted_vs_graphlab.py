"""E3 -- Section 4.2: DimmWitted CSR engine vs a GraphLab-style engine.

Paper artifact: "In standard benchmarks, DimmWitted was 3.7x faster than
GraphLab's implementation without any application-specific optimization."

We build KBC-shaped factor graphs (mostly unary feature factors plus a layer
of pairwise correlation factors, the paleobiology profile) and compare
sweep throughput of the CSR column-to-row engine against the
vertex-programming engine on identical semantics.  Shape check: the CSR
engine wins by a comfortable factor; we report our measured ratio next to
the paper's 3.7x.

The learning row measures the other half of an engineering-loop iteration:
epochs/s of the learner on the vectorized factor-value kernel against the
same learner on the scalar oracle, and sweeps/s of the lean chromatic sweep
(its color blocks sampling from flip tables) against the pre-kernel
formulation of the same arithmetic, and sweeps/s of one chunked chain
(``GibbsSampler.run_chain``) against the same chain as one-sweep chains
(``sweep()``), all on the joint spouse graph and all required to stay
bit-identical.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import RESULTS_DIR, once, write_json

from repro import obs
from repro.apps import spouse
from repro.baselines import VertexProgrammingGibbs
from repro.corpus import spouse as spouse_corpus
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import (GibbsSampler, LearningOptions, learn_weights,
                             sigmoid)


def kbc_graph(num_candidates=3000, features_per_candidate=3,
              correlation_fraction=0.2, seed=0) -> FactorGraph:
    """A KBC-shaped graph: unary-heavy with sparse pairwise correlations."""
    rng = np.random.default_rng(seed)
    graph = FactorGraph()
    for i in range(num_candidates):
        v = graph.variable(("cand", i))
        for f in range(features_per_candidate):
            weight = graph.weight(("feat", int(rng.integers(0, 200))),
                                  float(rng.normal(0, 0.5)))
            graph.add_factor(FactorFunction.IS_TRUE, [v], weight)
    num_correlations = int(num_candidates * correlation_fraction)
    for _ in range(num_correlations):
        a = graph.variable(("cand", int(rng.integers(0, num_candidates))))
        b = graph.variable(("cand", int(rng.integers(0, num_candidates))))
        if a == b:
            continue
        weight = graph.weight(("corr", int(rng.integers(0, 20))), 0.5)
        graph.add_factor(FactorFunction.IMPLY, [a, b], weight)
    return graph


def test_e3_csr_sweep(benchmark):
    """Microbenchmark: one CSR-engine sweep."""
    compiled = CompiledGraph(kbc_graph())
    sampler = GibbsSampler(compiled, seed=0)
    world = sampler.initial_assignment()
    benchmark(lambda: sampler.sweep(world))


def test_e3_vertex_sweep(benchmark):
    """Microbenchmark: one vertex-programming sweep."""
    engine = VertexProgrammingGibbs(kbc_graph(), seed=0)
    engine.marginals(num_samples=0, burn_in=1)  # initialize values
    benchmark(engine.sweep)


def test_e3_chromatic_vs_reference_report(benchmark, reporter):
    """Tentpole check: the chromatic vectorized sweep vs its scalar oracle.

    ``sweep`` and ``sweep_reference`` run the exact same chain (same
    chromatic order, same RNG stream), so this isolates the cost of the
    per-variable Python loop against the per-color-block vectorized gathers.
    """
    graph = kbc_graph()
    sweeps = 5
    measurements = {}

    def experiment():
        compiled = CompiledGraph(graph)
        chromatic = GibbsSampler(compiled, seed=0)
        world = chromatic.initial_assignment()
        start = time.perf_counter()
        samples_chromatic = sum(chromatic.sweep(world) for _ in range(sweeps))
        chromatic_time = time.perf_counter() - start

        reference = GibbsSampler(compiled, seed=0)
        world_ref = reference.initial_assignment()
        start = time.perf_counter()
        samples_reference = sum(reference.sweep_reference(world_ref)
                                for _ in range(sweeps))
        reference_time = time.perf_counter() - start
        measurements.update(chromatic_time=chromatic_time,
                            reference_time=reference_time,
                            samples=samples_chromatic,
                            colors=compiled.num_colors)
        assert samples_chromatic == samples_reference

        # traced marginal pass: per-color sweep timings + flip stats
        collector = obs.Collector()
        with obs.installed(collector):
            traced = GibbsSampler(compiled, seed=0)
            traced.marginals(num_samples=5, burn_in=2)
        measurements["profile"] = obs.Profile(
            spans=collector.roots, metrics=collector.metrics.snapshot())
        return measurements

    once(benchmark, experiment)

    profile = measurements["profile"]
    RESULTS_DIR.mkdir(exist_ok=True)
    profile.write_jsonl(RESULTS_DIR / "e3_gibbs_sweeps.trace.jsonl")

    chromatic_rate = measurements["samples"] / measurements["chromatic_time"]
    reference_rate = measurements["samples"] / measurements["reference_time"]
    speedup = chromatic_rate / reference_rate

    reporter.line("E3 / Sec 4.2 -- chromatic vectorized sweep vs scalar reference")
    reporter.line(f"conflict-graph colors: {measurements['colors']}")
    reporter.line()
    reporter.table(
        ["engine", "samples/s", "relative"],
        [["chromatic vectorized", f"{chromatic_rate:,.0f}", f"{speedup:.2f}x"],
         ["scalar reference", f"{reference_rate:,.0f}", "1.00x"]])
    reporter.line()
    reporter.line(f"measured speedup: {speedup:.2f}x (acceptance floor: 3x)")
    write_json("BENCH_e3_chromatic_gain", {
        "experiment": "e3_dimmwitted_vs_graphlab",
        "chromatic_samples_per_second": chromatic_rate,
        "reference_samples_per_second": reference_rate,
        "speedup": speedup,
        "floor": 3.0,
    })

    top = profile.top_spans(10)
    reporter.line()
    reporter.line("traced marginal pass -- top spans by inclusive time:")
    reporter.table(["span", "inclusive", "calls"],
                   [[name, f"{secs:.4f}s", calls]
                    for name, secs, calls in top])
    histograms = profile.metrics.get("histograms", {})
    color_rows = [[key, h["count"], f"{h['mean'] * 1e6:.1f}us"]
                  for key, h in sorted(histograms.items())
                  if key.startswith("gibbs.color_sweep_seconds")]
    if color_rows:
        reporter.line()
        reporter.line("per-color sweep cost:")
        reporter.table(["color", "passes", "mean"], color_rows)
    assert profile.find("inference.marginals") is not None
    assert any(key.startswith("gibbs.color_sweep_seconds")
               for key in histograms)

    # Acceptance: the vectorized engine wins by at least 3x on the e3 graph.
    assert speedup > 3.0


def test_e3_speedup_report(benchmark, reporter):
    graph = kbc_graph()
    sweeps = 5
    measurements = {}

    def experiment():
        compiled = CompiledGraph(graph)
        csr = GibbsSampler(compiled, seed=0)
        world = csr.initial_assignment()
        start = time.perf_counter()
        samples_csr = sum(csr.sweep(world) for _ in range(sweeps))
        csr_time = time.perf_counter() - start

        vertex = VertexProgrammingGibbs(graph, seed=0)
        start = time.perf_counter()
        samples_vertex = sum(vertex.sweep() for _ in range(sweeps))
        vertex_time = time.perf_counter() - start
        measurements.update(csr_time=csr_time, vertex_time=vertex_time,
                            samples=samples_csr)
        assert samples_csr == samples_vertex
        return measurements

    once(benchmark, experiment)

    csr_rate = measurements["samples"] / measurements["csr_time"]
    vertex_rate = measurements["samples"] / measurements["vertex_time"]
    speedup = csr_rate / vertex_rate

    reporter.line("E3 / Sec 4.2 -- DimmWitted CSR vs GraphLab-style engine")
    reporter.line("paper: DimmWitted 3.7x faster than GraphLab")
    reporter.line()
    reporter.table(
        ["engine", "samples/s", "relative"],
        [["CSR column-to-row", f"{csr_rate:,.0f}", f"{speedup:.2f}x"],
         ["vertex programming", f"{vertex_rate:,.0f}", "1.00x"]])
    reporter.line()
    reporter.line(f"measured speedup: {speedup:.2f}x (paper: 3.7x)")

    # Shape: the flat-array engine wins by a clear factor.
    assert speedup > 1.5


# ------------------------------------------------------------ learning row
def joint_spouse_graph(couples=200, seed=0) -> FactorGraph:
    """The joint spouse program's grounded graph (mention classifiers plus
    entity-level IMPLY factors) -- the graph of bench/'s infer-joint."""
    config = spouse_corpus.SpouseConfig(
        num_couples=couples, num_distractor_pairs=couples,
        num_sibling_pairs=max(1, couples // 3))
    corpus = spouse_corpus.generate(config, seed=seed)
    return spouse.build(corpus, seed=0, joint=True).grounder.graph


class ScalarOracleGraph(CompiledGraph):
    """A compiled graph whose learner statistics go through the scalar
    oracle: one ``general_factor_value`` call per factor per epoch."""

    def general_value_sums(self, assignment):
        sums = np.zeros(self.num_weights, dtype=np.float64)
        for fi in range(self.num_general):
            sums[self.general_weight[fi]] += self.general_factor_value(
                fi, assignment)
        return sums


class PreKernelSweep:
    """The chromatic sweep as it was formulated before the lean kernels.

    Same chain, same arithmetic, but per color per sweep: a gather of every
    edge of the incident factors, an ``astype`` + ``reduceat`` true count, a
    fresh ``np.zeros`` contribution, per-category masked gathers and
    scatters over one slot per (variable, factor) edge, and the
    general-purpose ``sigmoid`` with its scalar prologue, after its own
    unary-only pass.  The per-edge arrays are built once from the compiled
    graph's CSR arrays.
    """

    def __init__(self, sampler: GibbsSampler) -> None:
        self.sampler = sampler
        compiled = sampler.compiled
        self.blocks = []
        for block in sampler._blocks:
            local = np.full(compiled.num_variables, -1, dtype=np.int64)
            local[block.variables] = np.arange(len(block.variables))
            factor_ids = np.unique(np.concatenate(
                [compiled.vf_factors[compiled.vf_indptr[v]:
                                     compiled.vf_indptr[v + 1]]
                 for v in block.variables]))
            starts = compiled.fv_indptr[factor_ids]
            arity = compiled.fv_indptr[factor_ids + 1] - starts
            edges = np.concatenate([np.arange(lo, lo + n)
                                    for lo, n in zip(starts, arity)])
            edge_vars = compiled.fv_vars[edges]
            edge_negated = compiled.fv_negated[edges]
            edge_factor = np.repeat(np.arange(len(factor_ids)), arity)
            edge_starts = np.cumsum(arity) - arity
            slot_edge = np.nonzero(local[edge_vars] >= 0)[0]
            slot_factor = edge_factor[slot_edge]
            function = compiled.general_function[factor_ids][slot_factor]
            head_edge = (edge_starts + arity - 1)[slot_factor]
            imply_body = ((function == FactorFunction.IMPLY)
                          & (slot_edge != head_edge))
            equal = function == FactorFunction.EQUAL
            disjunction = function == FactorFunction.OR
            signed_weights = (
                np.where(edge_negated[slot_edge], -1.0, 1.0)
                * compiled.weight_values[
                    compiled.general_weight[factor_ids][slot_factor]])
            self.blocks.append((
                block.variables, edge_vars, edge_negated, edge_starts,
                slot_factor, slot_edge, arity[slot_factor],
                local[edge_vars[slot_edge]], signed_weights,
                np.nonzero(~imply_body & ~equal & ~disjunction)[0],
                np.nonzero(disjunction)[0], np.nonzero(equal)[0],
                np.nonzero(imply_body)[0], head_edge[imply_body]))

    def sweep(self, assignment: np.ndarray) -> int:
        sampler = self.sampler
        independent = sampler._independent_index
        sampled = len(independent)
        probs = sigmoid(sampler._unary_deltas[independent])
        assignment[independent] = sampler.rng.random(sampled) < probs
        uniforms = sampler.rng.random(len(sampler._dependent))
        offset = 0
        for (variables, edge_vars, edge_negated, edge_starts, slot_factor,
             slot_edge, slot_arity, slot_var, signed_weights, all_others,
             none_others, equal, imply_body, imply_head) in self.blocks:
            literals = assignment[edge_vars] ^ edge_negated
            true_counts = np.add.reduceat(literals.astype(np.int64),
                                          edge_starts)
            others_true = true_counts[slot_factor] - literals[slot_edge]
            contribution = np.zeros(len(slot_edge), dtype=np.float64)
            if len(all_others):
                contribution[all_others] = (
                    others_true[all_others] == slot_arity[all_others] - 1)
            if len(none_others):
                contribution[none_others] = others_true[none_others] == 0
            if len(equal):
                contribution[equal] = 2.0 * others_true[equal] - 1.0
            if len(imply_body):
                head = literals[imply_head]
                body_others = others_true[imply_body] - head
                contribution[imply_body] = np.where(
                    (body_others == slot_arity[imply_body] - 2) & ~head,
                    -1.0, 0.0)
            deltas = np.bincount(slot_var,
                                 weights=contribution * signed_weights,
                                 minlength=len(variables))
            deltas = sampler._unary_deltas[variables] + deltas
            n = len(variables)
            assignment[variables] = (
                uniforms[offset:offset + n] < sigmoid(deltas))
            offset += n
        return sampled + len(sampler._dependent)


def test_e3_learning_kernels_report(benchmark, reporter):
    """Learner on the factor-value kernel vs on the scalar oracle, the
    lean sweep vs the pre-kernel sweep, and chunked chains vs one-sweep
    chains, on the joint spouse graph."""
    graph = joint_spouse_graph()
    options = LearningOptions(epochs=15, seed=0)
    sweeps = 1500
    measurements = {}

    def learn(compiled_class):
        compiled = compiled_class(graph)
        start = time.perf_counter()
        diagnostics = learn_weights(compiled, options)
        return compiled, diagnostics, time.perf_counter() - start

    def experiment():
        learn(CompiledGraph)                           # warm caches, untimed
        kernel, kernel_run, kernel_time = learn(CompiledGraph)
        oracle, oracle_run, oracle_time = learn(ScalarOracleGraph)
        measurements.update(
            kernel_time=kernel_time, oracle_time=oracle_time,
            learning_bit_identical=bool(
                np.array_equal(kernel.weight_values, oracle.weight_values)
                and kernel_run.gradient_norms == oracle_run.gradient_norms),
            variables=kernel.num_variables, general=kernel.num_general,
            unary=kernel.num_unary)

        tabled = GibbsSampler(kernel, seed=0)
        world = tabled.initial_assignment()
        tabled.sweep(world)
        tabled.sweep(world)
        measurements.update(
            colors=len(tabled._kernels),
            table_blocks=sum(k.from_table for k in tabled._kernels))

        lean = GibbsSampler(kernel, seed=0)
        before = PreKernelSweep(GibbsSampler(kernel, seed=0))
        world_lean = lean.initial_assignment()
        world_before = before.sampler.initial_assignment()
        for _ in range(50):                            # warm both, in step
            lean.sweep(world_lean)
            before.sweep(world_before)
        start = time.perf_counter()
        for _ in range(sweeps):
            lean.sweep(world_lean)
        lean_time = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(sweeps):
            before.sweep(world_before)
        before_time = time.perf_counter() - start
        measurements.update(
            lean_time=lean_time, before_time=before_time,
            sweep_bit_identical=bool(np.array_equal(world_lean, world_before)))

        # one chain of ``sweeps`` sweeps, a fifth of them burn-in: run in
        # chunks against the same chain as one-sweep chains (``sweep()``),
        # alternately, three times each (the fastest of each counts)
        burn_in = sweeps // 5

        def run_chain(sampler, world):
            return sampler.run_chain(world, sweeps - burn_in, burn_in)[0]

        def one_sweep_chains(sampler, world):
            totals = np.zeros(kernel.num_variables)
            for sweep in range(sweeps):
                sampler.sweep(world)
                if sweep >= burn_in:
                    totals += world
            return totals

        def chain(run):
            sampler = GibbsSampler(kernel, seed=1)
            world = sampler.initial_assignment()
            start = time.perf_counter()
            totals = run(sampler, world)
            return (time.perf_counter() - start,
                    (totals, world, sampler.rng.random(4)))

        timings = {run_chain: [], one_sweep_chains: []}
        results = {}
        for _ in range(3):
            for run in timings:
                elapsed, results[run] = chain(run)
                timings[run].append(elapsed)
        measurements.update(
            runner_time=min(timings[run_chain]),
            loop_time=min(timings[one_sweep_chains]),
            chunk_sweeps=GibbsSampler(kernel).chunk_sweeps,
            chain_bit_identical=all(
                np.array_equal(a, b) for a, b in zip(
                    results[run_chain], results[one_sweep_chains])))
        return measurements

    once(benchmark, experiment)

    kernel_rate = options.epochs / measurements["kernel_time"]
    oracle_rate = options.epochs / measurements["oracle_time"]
    learning_speedup = kernel_rate / oracle_rate
    lean_rate = sweeps / measurements["lean_time"]
    before_rate = sweeps / measurements["before_time"]
    sweep_speedup = lean_rate / before_rate
    runner_rate = sweeps / measurements["runner_time"]
    loop_rate = sweeps / measurements["loop_time"]

    reporter.line("E3 / Sec 2.5 + 4.2 -- learning and sweep kernels, "
                  "joint spouse graph")
    reporter.line(f"{measurements['variables']} variables, "
                  f"{measurements['unary']} unary + "
                  f"{measurements['general']} general factors")
    reporter.line()
    reporter.table(
        ["learner statistics", "epochs/s", "relative"],
        [["CSR factor-value kernel", f"{kernel_rate:,.1f}",
          f"{learning_speedup:.2f}x"],
         ["scalar oracle", f"{oracle_rate:,.1f}", "1.00x"]])
    reporter.line()
    reporter.table(
        ["chromatic sweep", "sweeps/s", "relative"],
        [["lean kernels + flip tables", f"{lean_rate:,.0f}",
          f"{sweep_speedup:.2f}x"],
         ["pre-kernel formulation", f"{before_rate:,.0f}", "1.00x"]])
    reporter.line()
    reporter.table(
        [f"one {sweeps}-sweep chain (best of 3)", "sweeps/s", "relative"],
        [["chunked chain (chunks of "
          f"{measurements['chunk_sweeps']} sweeps)", f"{runner_rate:,.0f}",
          f"{runner_rate / loop_rate:.2f}x"],
         ["one-sweep chains (sweep())", f"{loop_rate:,.0f}", "1.00x"]])
    reporter.line()
    reporter.line(f"color blocks sampling from a flip table after two "
                  f"sweeps: {measurements['table_blocks']} of "
                  f"{measurements['colors']}")
    reporter.line(f"learned weights + gradient norms bit-identical: "
                  f"{measurements['learning_bit_identical']}; "
                  f"chains bit-identical: "
                  f"{measurements['sweep_bit_identical']}; "
                  f"chunked == one-sweep chains (totals, world, RNG): "
                  f"{measurements['chain_bit_identical']}")
    reporter.line(f"learning speedup: {learning_speedup:.2f}x "
                  f"(acceptance floor: 5x)")
    write_json("BENCH_e3_learning_kernels", {
        "experiment": "e3_dimmwitted_vs_graphlab",
        "kernel_epochs_per_second": kernel_rate,
        "oracle_epochs_per_second": oracle_rate,
        "learning_speedup": learning_speedup,
        "learning_floor": 5.0,
        "learning_bit_identical": measurements["learning_bit_identical"],
        "lean_sweeps_per_second": lean_rate,
        "pre_kernel_sweeps_per_second": before_rate,
        "sweep_speedup": sweep_speedup,
        "sweep_bit_identical": measurements["sweep_bit_identical"],
        "chain_sweeps_per_second": runner_rate,
        "one_sweep_chain_sweeps_per_second": loop_rate,
        "chain_speedup": runner_rate / loop_rate,
        "chunk_sweeps": measurements["chunk_sweeps"],
        "chain_bit_identical": measurements["chain_bit_identical"],
        "table_blocks": measurements["table_blocks"],
        "colors": measurements["colors"],
    })

    assert measurements["learning_bit_identical"]
    assert measurements["sweep_bit_identical"]
    assert measurements["chain_bit_identical"]
    # not a timing: a block silently back on the direct path fails here
    assert measurements["table_blocks"] == measurements["colors"] > 0
    assert learning_speedup > 5.0
