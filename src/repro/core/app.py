"""The DeepDive application object: the paper's Figure 1 loop as an API.

A :class:`DeepDive` instance owns a DDlog program, a datastore, candidate
extractors, and (once grounded) a factor graph.  The three execution phases
of Section 3 map to:

1. *candidate generation & feature extraction* -- :meth:`load_documents`
   (NLP + extractor UDFs) and the feature rules run during grounding;
2. *supervision* -- the ``_Ev`` rules run during grounding;
3. *learning & inference* -- :meth:`run`.

The first grounding is a full load; afterwards every data change flows
through DRed incremental grounding, per Section 4.1.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.extractors import (CandidateExtractor, DocumentExtractor,
                                   DocumentExtractorFn, ExtractorFn,
                                   run_document_extractors, run_extractors)
from repro.core.result import RunResult, VariableKey
from repro.datastore import Database
from repro.ddlog.program import DDlogProgram
from repro.eval.error_analysis import (ErrorAnalysisReport, FeatureStat,
                                       build_report, diagnose_miss)
from repro.factorgraph import CompiledGraph, FactorFunction
from repro.grounding import (ChainState, Grounder, GroundingDelta,
                             UpdateResult, refresh)
from repro.inference import GibbsSampler, LearningOptions, learn_weights
from repro.nlp.pipeline import Document, preprocess_corpus, sentence_row
from repro.obs import EngineConfig, PhaseRecorder


class DeepDive:
    """A DeepDive application over one aspirational schema.

    ``config`` is the typed engine configuration: datastore backend,
    memory budget, segment size, and whether runs are traced.  When
    omitted it is read once from the environment via
    :meth:`EngineConfig.from_env`; it is then threaded explicitly through
    the database and grounder, so mutating the environment after
    construction has no effect.
    """

    def __init__(self, program: DDlogProgram | str, seed: int = 0,
                 config: EngineConfig | None = None) -> None:
        self.program = (DDlogProgram.parse(program)
                        if isinstance(program, str) else program)
        self.config = config if config is not None else EngineConfig.from_env()
        self.db = Database(config=self.config)
        self.seed = seed
        self._extractors: list[CandidateExtractor] = []
        self._document_extractors: list[DocumentExtractor] = []
        self._grounder: Grounder | None = None
        self._recorder = PhaseRecorder(trace=self.config.trace)
        # incremental-inference state: last run's chain + pending deltas
        self._chain_state: ChainState | None = None
        self._pending_touched: set = set()
        self._ensure_corpus_relations()

    def _ensure_corpus_relations(self) -> None:
        from repro.nlp.pipeline import DOCUMENT_SCHEMA, SENTENCE_SCHEMA
        if "documents" not in self.db:
            self.db.create("documents", DOCUMENT_SCHEMA)
        if "sentences" not in self.db:
            self.db.create("sentences", SENTENCE_SCHEMA)
        self.program.create_relations(self.db)

    # ------------------------------------------------------------ registration
    def udf(self, name: str, returns: str = "text"):
        """Register a DDlog UDF (decorator), forwarding to the program."""
        return self.program.udf(name, returns)

    def register_udf(self, name: str, fn: Callable, returns: str = "text") -> None:
        self.program.register_udf(name, fn, returns)

    def add_extractor(self, relation: str, fn: ExtractorFn, name: str = "") -> None:
        """Register a candidate-generation UDF feeding ``relation``."""
        self._extractors.append(CandidateExtractor(relation, fn, name or fn.__name__))

    def add_document_extractor(self, fn: DocumentExtractorFn,
                               name: str = "") -> None:
        """Register a whole-document extractor (tables, metadata, ...).

        The UDF receives the raw :class:`~repro.nlp.pipeline.Document` and
        returns ``{relation: [rows...]}``.
        """
        self._document_extractors.append(
            DocumentExtractor(fn, name or fn.__name__))

    # ------------------------------------------------------------------- data
    def _staged_rows(self, documents: list[Document]) -> tuple[dict[str, list], int]:
        """The exact base-relation rows ingesting ``documents`` produces.

        Shared by :meth:`load_documents` (which inserts them) and
        :meth:`remove_documents` (which recomputes and deletes them): the
        NLP pipeline and the extractor UDFs are deterministic over document
        content, so recomputation is the inverse of ingestion.
        """
        with obs.span("nlp.preprocess", documents=len(documents)):
            per_doc = preprocess_corpus(documents)
            sentences = [s for group in per_doc for s in group]
        with obs.span("extractors.run",
                      extractors=len(self._extractors)) as sp:
            candidate_rows = run_extractors(self._extractors, sentences)
            sp.set(candidates=sum(len(r) for r in candidate_rows.values()))
        rows: dict[str, list] = {
            "documents": [(d.doc_id, d.content) for d in documents],
            "sentences": [sentence_row(s) for s in sentences],
        }
        for relation, extracted in candidate_rows.items():
            rows.setdefault(relation, []).extend(extracted)
        for relation, extracted in run_document_extractors(
                self._document_extractors, documents).items():
            rows.setdefault(relation, []).extend(extracted)
        return rows, len(sentences)

    def load_documents(self, documents: Iterable[Document]) -> int:
        """Preprocess documents and run candidate generation over them.

        Before the first :meth:`run` this stages plain inserts (initial
        load); afterwards changes propagate through incremental grounding.
        Returns the number of sentences loaded.
        """
        with self._recorder.phase("candidate_generation") as phase:
            documents = list(documents)
            inserts, num_sentences = self._staged_rows(documents)
            self._apply(inserts=inserts)
            phase.set(documents=len(documents), sentences=num_sentences)
        return num_sentences

    def remove_documents(self, doc_ids: Iterable[str]) -> int:
        """Remove documents and everything ingestion derived from them.

        Recomputes the sentence rows and extractor outputs from the stored
        content (the pipeline is deterministic) and deletes them; the
        deletions then flow through DRed incremental grounding like any
        other retraction.  Returns the number of documents removed.
        """
        documents_relation = self.db["documents"]
        documents: list[Document] = []
        for doc_id in doc_ids:
            stored = next(iter(
                documents_relation.lookup(["doc_id"], [doc_id])), None)
            if stored is None:
                raise KeyError(f"no document {doc_id!r} loaded")
            documents.append(Document(doc_id, stored[1]))
        if not documents:
            return 0
        with self._recorder.phase("document_removal") as phase:
            deletes, num_sentences = self._staged_rows(documents)
            self._apply(deletes=deletes)
            phase.set(documents=len(documents), sentences=num_sentences)
        return len(documents)

    def add_rows(self, relation: str, rows: Iterable[Sequence]) -> None:
        """Add rows to a base relation (e.g. a distant-supervision KB)."""
        self._apply(inserts={relation: [tuple(r) for r in rows]})

    def remove_rows(self, relation: str, rows: Iterable[Sequence]) -> None:
        """Delete rows from a base relation (propagates incrementally)."""
        self._apply(deletes={relation: [tuple(r) for r in rows]})

    def _apply(self, inserts: dict[str, list] | None = None,
               deletes: dict[str, list] | None = None) -> GroundingDelta | None:
        inserts = {k: v for k, v in (inserts or {}).items() if v}
        deletes = {k: v for k, v in (deletes or {}).items() if v}
        if self._grounder is None:
            if deletes:
                raise ValueError("cannot delete rows before the initial grounding")
            for relation, rows in inserts.items():
                self.db.insert(relation, rows)
            return None
        delta = self._grounder.apply_changes(inserts=inserts, deletes=deletes)
        self._pending_touched |= delta.touched_keys
        return delta

    # ----------------------------------------------------- serving interface
    @property
    def chain_state(self) -> ChainState | None:
        """The materialized inference state (world, marginals and
        mean-field parameters by variable key) the last :meth:`run` or
        incremental refresh left, or ``None`` before any run.  The serving
        layer refreshes it per batch and checkpoints it, so a recovered
        service resumes from the exact chain the crashed one held."""
        return self._chain_state

    def refresh_chain(self, compiled: CompiledGraph, touched: set,
                      **options) -> tuple[str, UpdateResult | None]:
        """Advance :attr:`chain_state` to ``compiled`` (this app's graph,
        freshly compiled) through :func:`repro.grounding.refresh`, which
        takes ``options``.  Returns the refresh that ran and its
        :class:`~repro.grounding.UpdateResult`.  :meth:`run_incremental`
        and the serving apply loop are its two callers; they differ only in
        seed, strategy and sampling arguments."""
        self._chain_state, refreshed, update = refresh(
            self._chain_state, compiled, touched, **options)
        return refreshed, update

    def drain_touched(self) -> set:
        """Return and clear the variable keys touched since the last drain.

        Grounding deltas accumulate touched keys until either a run consumes
        them or an external driver (the serving apply loop) drains them to
        seed its own incremental refresh.
        """
        touched = self._pending_touched
        self._pending_touched = set()
        return touched

    def adopt(self, db: Database, grounder: Grounder | None,
              chain_state: ChainState | None) -> None:
        """Install recovered state: database, grounder, and chain.

        Used by checkpoint recovery (:mod:`repro.serve`): the database comes
        from a dump, the grounder from :meth:`Grounder.restore` over it, and
        the chain state from the checkpoint payload.  The app continues as
        if it had built that state itself.
        """
        if grounder is not None and grounder.db is not db:
            raise ValueError("grounder must be bound to the adopted database")
        self.db = db
        self._grounder = grounder
        self._chain_state = chain_state
        self._pending_touched = set()
        self._ensure_corpus_relations()

    # -------------------------------------------------------------- grounding
    @property
    def grounder(self) -> Grounder:
        """The (lazily created) incremental grounder."""
        if self._grounder is None:
            with self._recorder.phase("grounding") as phase:
                self._grounder = Grounder(self.program, self.db,
                                          config=self.config)
                graph = self._grounder.graph
                phase.set(variables=len(graph.variables),
                          factors=len(graph.factors))
        return self._grounder

    @property
    def graph(self):
        return self.grounder.graph

    # -------------------------------------------------------------------- run
    def run(self, threshold: float = 0.9,
            holdout_fraction: float = 0.25,
            learning: LearningOptions | None = None,
            num_samples: int = 300, burn_in: int = 50,
            compute_train_histogram: bool = True) -> RunResult:
        """Execute supervision + learning + inference and return the result.

        ``holdout_fraction`` of the evidence variables is hidden from the
        learner and used for the Figure-5 calibration artifacts.
        """
        graph = self.grounder.graph
        compiled = CompiledGraph(graph)
        rng = np.random.default_rng(self.seed)

        evidence_indices = np.nonzero(compiled.is_evidence)[0]
        holdout_count = int(len(evidence_indices) * holdout_fraction)
        holdout = rng.choice(evidence_indices, size=holdout_count, replace=False) \
            if holdout_count else np.array([], dtype=np.int64)
        holdout_labels = compiled.evidence_values[holdout].copy()
        compiled.is_evidence[holdout] = False
        compiled.note_mutation()

        options = learning or LearningOptions(seed=self.seed)
        with self._recorder.phase("learning", replace=True,
                                  optimizer=options.optimizer) as phase:
            diagnostics = learn_weights(compiled, options)
            phase.set(epochs=diagnostics.epochs_run)
        compiled.export_weights(graph)

        with self._recorder.phase("inference", replace=True) as phase:
            sampler = GibbsSampler(compiled, seed=self.seed,
                                   clamp_evidence=True)
            world = sampler.initial_assignment()
            result = sampler.marginals(num_samples=num_samples,
                                       burn_in=burn_in, assignment=world)
            phase.set(num_samples=num_samples, burn_in=burn_in)
        self._chain_state = ChainState.from_run(compiled, world,
                                                result.marginals)
        self._pending_touched.clear()

        holdout_pairs = [(float(result.marginals[i]), bool(label))
                         for i, label in zip(holdout, holdout_labels)]

        train_pairs: list[tuple[float, bool]] = []
        if compute_train_histogram and compiled.is_evidence.any():
            free = GibbsSampler(compiled, seed=self.seed + 1,
                                clamp_evidence=False)
            free_result = free.marginals(num_samples=max(50, num_samples // 3),
                                         burn_in=burn_in)
            for i in np.nonzero(compiled.is_evidence)[0]:
                train_pairs.append((float(free_result.marginals[i]),
                                    bool(compiled.evidence_values[i])))

        return RunResult(
            marginals=self._chain_state.marginals_by_key(),
            threshold=threshold,
            profile=self._recorder.profile(),
            holdout_pairs=holdout_pairs,
            train_pairs=train_pairs,
            graph_stats=graph.stats(),
            feature_stats=self.feature_stats(),
            learning=diagnostics,
        )

    def run_incremental(self, threshold: float = 0.9, radius: int = 1,
                        num_samples: int = 60, burn_in: int = 15) -> RunResult:
        """Refresh marginals after data changes, without re-learning.

        Implements Section 4.2's sampling-based incremental inference: the
        previous run's Gibbs chain is materialized per variable key; only
        variables within ``radius`` factor-hops of the grounding deltas
        accumulated since the last run are resampled.  Falls back to a full
        :meth:`run` when no chain state exists yet.
        """
        if self._chain_state is None:
            return self.run(threshold=threshold, num_samples=num_samples * 4,
                            burn_in=burn_in * 3)
        graph = self.grounder.graph
        with self._recorder.phase("incremental_inference", replace=True,
                                  radius=radius) as phase:
            refreshed, update = self.refresh_chain(
                CompiledGraph(graph), self._pending_touched,
                seed=self.seed + 7, strategy="sampling", radius=radius,
                num_samples=num_samples, burn_in=burn_in)
            phase.set(refresh=refreshed, work=update.work if update else 0.0)
        self._pending_touched.clear()
        return RunResult(
            marginals=self._chain_state.marginals_by_key(),
            threshold=threshold,
            profile=self._recorder.profile(),
            graph_stats=graph.stats(),
            feature_stats=self.feature_stats(),
        )

    # -------------------------------------------------------------- debugging
    def feature_stats(self) -> list[FeatureStat]:
        """Weight/observation table for the error-analysis document."""
        graph = self.grounder.graph
        stats = []
        for weight in graph.weights.values():
            provenance = self.grounder.weight_provenance.get(weight.key)
            stats.append(FeatureStat(
                key=str(weight.key),
                weight=weight.value,
                observations=weight.observations,
                description=provenance.rule_text if provenance else "",
            ))
        return stats

    def feature_count(self, key: VariableKey) -> int:
        """Number of IS_TRUE (feature) factors attached to a variable."""
        graph = self.grounder.graph
        if not graph.has_variable(key):
            return 0
        variable = graph.variables[graph.variable_id(key)]
        return sum(1 for fid in variable.factor_ids
                   if graph.factors[fid].function == FactorFunction.IS_TRUE)

    def error_analysis(self, result: RunResult, relation: str,
                       truth: Iterable[tuple],
                       bucket_failure: Callable[[Hashable], str] | None = None,
                       sample_size: int = 100) -> ErrorAnalysisReport:
        """Build the Section-5.2 error-analysis document for one relation.

        ``truth`` is the gold tuple set (an oracle in benchmarks, a human
        sample in production).  The default failure bucketer applies the
        paper's three-way root-cause procedure.
        """
        truth_set = {tuple(t) for t in truth}
        extractions = result.output_tuples(relation)
        candidate_keys = {values for (name, values) in result.marginals
                          if name == relation}

        def default_bucketer(item: Hashable) -> str:
            return diagnose_miss(
                item, candidate_keys,
                lambda values: self.feature_count((relation, values)))

        return build_report(
            extractions=extractions,
            truth=truth_set,
            mark_extraction=lambda item: item in truth_set,
            bucket_failure=bucket_failure or default_bucketer,
            feature_stats=result.feature_stats,
            db_stats=self.db.stats(),
            graph_stats=result.graph_stats,
            sample_size=sample_size,
            seed=self.seed,
        )
