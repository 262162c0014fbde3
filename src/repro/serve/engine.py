"""The deterministic core of the serving layer.

:class:`ServeEngine` turns a batch of ingest operations into the next
knowledge-base version: data deltas flow through the app's DRed incremental
grounding, rule deltas trigger the full re-extraction regime, and marginals
are refreshed with the Section-4.2 materialization strategy the rule-based
optimizer picks (sampling in a neighbourhood of the change, or warm-started
variational passes over the whole graph) — falling back to a full
learn+inference run when a delta touches too much of the graph.

Everything here is single-threaded and *deterministic*: given the same
bootstrap and the same sequence of ``(lsn, batch)`` applications, the engine
produces bit-identical marginals.  That determinism is the recovery
contract — :class:`~repro.serve.service.KBService` replays WAL batches
through this exact code path after restoring a checkpoint, and must land on
the same numbers the crashed service would have published.  Concurrency
(queue, threads, backpressure) lives entirely in the service layer.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
# np.unique imports numpy.ma on its first call, which would otherwise be a
# served KB's first refresh: pay that one-time import (~10 ms) on load
import numpy.ma  # noqa: F401

from repro import obs
from repro.compliance.anonymizer import Anonymizer
from repro.compliance.apply import scrub_marginals
from repro.compliance.manifest import ComplianceManifest
from repro.compliance.policy import CompliancePolicy
from repro.compliance.scanner import Scanner
from repro.core.app import DeepDive
from repro.datastore.io import database_from_dict
from repro.ddlog.validate import evidence_base
from repro.factorgraph import CompiledGraph, FactorGraph, GraphImage
from repro.grounding import ChainState, Grounder
from repro.nlp.pipeline import Document
from repro.serve.checkpoint import ArrayTable
from repro.serve.config import ServeConfig
from repro.serve.ops import (AddDocuments, AddRows, AddRules, IngestOp,
                             OpError, RemoveDocuments, RemoveRows)
from repro.serve.snapshot import Snapshot

#: ``app_factory(extra_rules)`` must build a fresh, empty application with
#: every UDF and extractor registered; ``extra_rules`` is accumulated DDlog
#: source from AddRules operations ("" for the original program).
AppFactory = Callable[[str], DeepDive]

#: Serving-friendly defaults for full runs: no holdout carving and no
#: training-histogram free-run — the service publishes marginals, not
#: calibration artifacts.  Callers override any of these via ``run_kwargs``.
DEFAULT_RUN_KWARGS = {"holdout_fraction": 0.0,
                      "compute_train_histogram": False}


def base_relation_names(program, relation_names) -> list[str]:
    """The relations in ``relation_names`` that hold *ingested* data.

    Filters out everything the grounder fills (variable tuples, evidence
    rows, derived views) under ``program``.  Shared by the rule-delta
    rebuild (carry base data into the extended program) and shard rebalance
    (carry base data into a new shard layout).
    """
    grounder_owned = {d.name for d in program.variable_relations()}
    grounder_owned |= {f"{name}_Ev" for name in set(grounder_owned)}
    grounder_owned |= {rule.head.relation
                       for rule in program.supervision_rules}
    grounder_owned |= {evidence_base(rule.head.relation)
                       for rule in program.supervision_rules}
    grounder_owned |= {rule.head.relation
                       for rule in program.derivation_rules}
    return [name for name in relation_names if name not in grounder_owned]


class ServeEngine:
    """Single-writer state machine from ingest batches to KB versions."""

    def __init__(self, app_factory: AppFactory,
                 config: ServeConfig | None = None,
                 run_kwargs: dict | None = None) -> None:
        self.app_factory = app_factory
        self.config = config if config is not None else ServeConfig()
        self.run_kwargs = dict(DEFAULT_RUN_KWARGS)
        self.run_kwargs.update(run_kwargs or {})
        self.threshold = float(self.run_kwargs.get("threshold", 0.9))
        self.app: DeepDive | None = None
        self.version = -1                       # bootstrap publishes 0
        self.rule_deltas: list[str] = []
        # publish-time compliance: one anonymizer for the engine's lifetime
        # so the surrogate-collision backstop spans every version published
        # by this writer (surrogates themselves are pure HMAC functions)
        self._anonymizer = Anonymizer(self.config.compliance.key)

    # -------------------------------------------------------------- bootstrap
    def bootstrap(self, ops: list[IngestOp]) -> Snapshot:
        """Build the initial knowledge base and publish version 0.

        ``ops`` are the initial corpus and KB loads; they stage plain
        inserts (no grounding exists yet), then one full learn+inference run
        produces the first marginals.
        """
        if self.app is not None:
            raise RuntimeError("engine already bootstrapped")
        with obs.span("serve.bootstrap", ops=len(ops)):
            self.app = self.app_factory("")
            for op in ops:
                self._dispatch(op)
            marginals = self._full_run()
        return self._publish(marginals, lsn=0, refresh="full_run")

    # ------------------------------------------------------------ apply path
    def apply_batch(self, ops: list[IngestOp], lsn: int) -> Snapshot:
        """Apply one committed batch and publish the next version."""
        if self.app is None:
            raise RuntimeError("bootstrap the engine before applying batches")
        with obs.span("serve.apply_batch", lsn=lsn, ops=len(ops)) as sp:
            rebuild_needed = False
            for op in ops:
                if isinstance(op, AddRules):
                    self.rule_deltas.append(op.source)
                    rebuild_needed = True
                else:
                    self._dispatch(op)
            if rebuild_needed:
                marginals = self._rebuild_with_rules()
                refresh = "full_run"
            else:
                touched = self.app.drain_touched()
                num_variables = max(1, self.app.graph.num_variables)
                if len(touched) / num_variables > self.config.full_rerun_fraction:
                    marginals = self._full_run()
                    refresh = "full_run"
                else:
                    marginals, refresh = self._refresh(touched)
            sp.set(refresh=refresh)
        return self._publish(marginals, lsn=lsn, refresh=refresh)

    def _dispatch(self, op: IngestOp) -> None:
        app = self.app
        if isinstance(op, AddDocuments):
            app.load_documents([Document(doc_id, content)
                                for doc_id, content in op.documents])
        elif isinstance(op, RemoveDocuments):
            app.remove_documents(op.doc_ids)
        elif isinstance(op, AddRows):
            app.add_rows(op.relation, op.rows)
        elif isinstance(op, RemoveRows):
            app.remove_rows(op.relation, op.rows)
        elif isinstance(op, AddRules):
            raise OpError("AddRules cannot be dispatched as a data delta")
        else:
            raise OpError(f"unknown ingest op {type(op).__name__}")

    # --------------------------------------------------------------- refresh
    def _refresh_seed(self) -> int:
        """Per-version seed: replay of version N resamples exactly as the
        original version-N refresh did."""
        return self.app.seed + 7 + 101 * (self.version + 1)

    def _refresh(self, touched: set) -> tuple[dict, str]:
        """Incremental marginal refresh over the touched neighbourhood."""
        compiled = CompiledGraph(self.app.graph)
        config = self.config
        with obs.span("serve.refresh", touched=len(touched)) as sp:
            refreshed, update = self.app.refresh_chain(
                compiled, touched, seed=self._refresh_seed(),
                strategy=config.strategy, radius=config.radius,
                num_samples=config.refresh_samples,
                burn_in=config.refresh_burn_in,
                expected_updates=config.expected_updates)
            sp.set(strategy=refreshed, work=update.work if update else 0.0)
        if update is not None and obs.enabled():
            obs.observe("serve.refresh.work", update.work, strategy=refreshed)
        return self.app.chain_state.marginals_by_key(), refreshed

    def _full_run(self) -> dict:
        """Full learn+inference; the app re-seeds its chain state from it."""
        with obs.span("serve.full_run"):
            return self.app.run(**self.run_kwargs).marginals

    # ------------------------------------------------------------ rule delta
    def _base_relation_names(self, app: DeepDive) -> list[str]:
        """Relations holding *ingested* data (as opposed to relations the
        grounder fills: variable tuples, evidence rows, derived views)."""
        return base_relation_names(app.program, self.app.db.names())

    def _rebuild_with_rules(self) -> dict:
        """The full re-extraction regime for rule deltas.

        Build a fresh app over the extended program, carry over every base
        relation (documents, sentences, candidates, KB facts), and run the
        whole pipeline.  Grounder-owned relations are deliberately *not*
        copied — re-grounding regenerates them, and copying would double
        supervision votes.
        """
        old_app = self.app
        with obs.span("serve.rule_rebuild", rules=len(self.rule_deltas)):
            new_app = self.app_factory("\n".join(self.rule_deltas))
            for name in self._base_relation_names(new_app):
                relation = old_app.db[name]
                if name not in new_app.db:
                    new_app.db.create(name, relation.schema)
                # row-iterator protocol: stream instead of list(relation),
                # so a segmented relation never materializes in full here
                new_app.db[name].insert_many(relation.iter_rows())
            self.app = new_app
            return self._full_run()

    # ------------------------------------------------------------ publishing
    def _variable_schemas(self) -> dict[str, tuple[str, ...]]:
        """Column names per variable relation, for per-column policies."""
        return {d.name: tuple(name for name, _type in d.columns)
                for d in self.app.program.variable_relations()}

    def _publish(self, marginals: dict, lsn: int, refresh: str) -> Snapshot:
        """Publish ``marginals`` (a fresh dict the snapshot takes over)."""
        self.version += 1
        manifest = None
        policy = self.config.compliance
        if policy.enabled:
            # the one choke point every reader-visible view passes through:
            # scrub the published relabeling, keep the raw store (WAL,
            # checkpoints, incremental state) untouched.  The transform is
            # a pure function of (marginals, schemas, policy), so recovery
            # replays republish bit-identical scrubbed views.
            with obs.span("compliance.publish", version=self.version) as sp:
                marginals, manifest = scrub_marginals(
                    marginals, self._variable_schemas(), policy,
                    anonymizer=self._anonymizer)
                sp.set(findings=len(manifest))
        return Snapshot(
            version=self.version,
            lsn=lsn,
            marginals=marginals,
            threshold=self.threshold,
            refresh=refresh,
            graph_stats=self.app.graph.stats(),
            relation_counts=self.app.db.stats(),
            manifest=manifest,
        )

    # ------------------------------------------------------------- auditing
    def scan(self, policy: CompliancePolicy | None = None,
             relations: Sequence[str] | None = None) -> ComplianceManifest:
        """Offline PII sweep over the engine's *raw* datastore.

        Scans every relation (documents, candidate tables, KB facts —
        not just the published variables) column-by-column and returns the
        manifest.  Runs with the service's policy by default; pass one for
        ad-hoc audits.  The service routes this through its apply loop so
        the sweep sees a consistent store.
        """
        policy = policy if policy is not None else self.config.compliance
        return Scanner(policy).scan_database(self.app.db,
                                             relations=relations)

    # ---------------------------------------------------------- checkpointing
    def checkpoint_payload(self) -> dict:
        """Everything needed to resume this engine, bar the datastore.

        The caller passes the live database to
        ``CheckpointManager.save(database=...)``, which seals it into
        content-addressed segment files.  The factor graph and the chain
        state are :class:`~repro.serve.checkpoint.ArrayTable` values the
        manager writes as segments too; the rest is JSON-compatible.
        """
        graph = self.app.graph
        return {
            "engine_version": self.version,
            "threshold": self.threshold,
            "rule_deltas": list(self.rule_deltas),
            "graph": _graph_tables(graph.image()),
            "grounder": self.app.grounder.state_dict(),
            "state": _state_table(self.app.chain_state, graph),
        }

    @classmethod
    def restore(cls, payload: dict, app_factory: AppFactory,
                config: ServeConfig | None = None,
                run_kwargs: dict | None = None) -> "ServeEngine":
        """Rebuild an engine from a loaded checkpoint: the
        :meth:`checkpoint_payload` entries plus the inline ``"database"``
        dict ``CheckpointManager.load`` rehydrates.

        The database, the id-exact graph, and the grounder bookkeeping are
        adopted as-is (no re-grounding), so subsequent batches behave
        bit-identically to the engine that was checkpointed.
        """
        engine = cls(app_factory, config=config, run_kwargs=run_kwargs)
        engine.threshold = float(payload["threshold"])
        engine.rule_deltas = list(payload["rule_deltas"])
        engine.version = int(payload["engine_version"])
        with obs.span("serve.restore"):
            app = app_factory("\n".join(engine.rule_deltas))
            db = database_from_dict(payload["database"])
            db.config = app.config
            graph = FactorGraph.from_image(_graph_image(payload["graph"]))
            grounder = Grounder.restore(app.program, db, graph,
                                        payload["grounder"],
                                        config=app.config)
            app.adopt(db, grounder,
                      chain_state=_chain_state(payload["state"], graph))
        engine.app = app
        return engine

    def current_snapshot(self, lsn: int, refresh: str = "restored") -> Snapshot:
        """Re-publish the engine's current marginals (post-restore)."""
        self.version -= 1                        # _publish re-increments
        return self._publish(self.app.chain_state.marginals_by_key(),
                             lsn=lsn, refresh=refresh)


# ------------------------------------------------- checkpoint array tables
def _graph_tables(image: GraphImage) -> dict:
    """A graph image as checkpoint tables: floats by bit pattern, keys in
    the segment pools, edges chunked with the factors they belong to."""
    return {
        "next_ids": image.next_ids,
        "variables": ArrayTable(
            ("id", "evidence", "initial"),
            np.stack([image.var_id, image.var_evidence, image.var_initial]),
            image.var_key),
        "weights": ArrayTable(
            ("id", "value", "fixed", "observations"),
            np.stack([image.weight_id, image.weight_value.view(np.int64),
                      image.weight_fixed, image.weight_observations]),
            image.weight_key),
        "factors": ArrayTable(
            ("id", "function", "weight", "arity"),
            np.stack([image.factor_id, image.factor_function,
                      image.factor_weight, image.factor_arity])),
        "edges": ArrayTable(
            ("factor", "var", "negated"),
            np.stack([np.repeat(image.factor_id, image.factor_arity),
                      image.edge_var, image.edge_negated])),
    }


def _graph_image(tables: dict) -> GraphImage:
    """Inverse of :func:`_graph_tables`."""
    variables, weights = tables["variables"], tables["weights"]
    factors, edges = tables["factors"], tables["edges"]
    return GraphImage(
        next_ids=tables["next_ids"],
        var_id=variables.column("id"),
        var_key=variables.keys,
        var_evidence=variables.column("evidence"),
        var_initial=variables.column("initial"),
        weight_id=weights.column("id"),
        weight_key=weights.keys,
        weight_value=weights.column("value").view(np.float64),
        weight_fixed=weights.column("fixed"),
        weight_observations=weights.column("observations"),
        factor_id=factors.column("id"),
        factor_function=factors.column("function"),
        factor_weight=factors.column("weight"),
        factor_arity=factors.column("arity"),
        edge_var=edges.column("var"),
        edge_negated=edges.column("negated"))


def _state_table(state: ChainState, graph: FactorGraph) -> ArrayTable:
    """The chain state as one row per variable: its graph id (the key
    order), world bit, and marginal and mean-field bit patterns."""
    return ArrayTable(
        ("var", "world", "marginal", "mu"),
        np.stack([graph.variable_ids(state.keys), state.world,
                  state.marginals.view(np.int64), state.mu.view(np.int64)]))


def _chain_state(table: ArrayTable, graph: FactorGraph) -> ChainState:
    """Inverse of :func:`_state_table` over the restored graph."""
    world = table.column("world")
    if ((world != 0) & (world != 1)).any():
        raise ValueError("chain state world bits must be 0 or 1")
    return ChainState(tuple(graph.variable_keys(table.column("var"))),
                      world.astype(bool),
                      table.column("marginal").view(np.float64).copy(),
                      table.column("mu").view(np.float64).copy())
