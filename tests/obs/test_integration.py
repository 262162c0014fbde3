"""EngineConfig threading and the RunResult.profile API across the stack."""

import warnings

import pytest

from repro import DeepDive, Document, EngineConfig, obs
from repro.datastore import Database
from repro.datastore import query as Q
from repro.datastore.relation import Relation
from repro.datastore.schema import Schema
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler

PROGRAM = """
Item(k text).
Label(k text).
Good?(k text).

Good(k) :- Item(k) weight = 1.0.
Good_Ev(k, true) :- Item(k), Label(k).
"""


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def make_app(config=None):
    app = DeepDive(PROGRAM, seed=0, config=config)
    app.add_rows("Item", [("a",), ("b",), ("c",)])
    app.add_rows("Label", [("a",)])
    return app


class TestConfigThreading:
    def test_default_config_comes_from_env_once(self):
        app = make_app()
        assert app.config == EngineConfig.from_env()
        assert app.db.config is app.config

    def test_explicit_config_reaches_every_layer(self):
        config = EngineConfig(datastore_backend="row")
        app = make_app(config=config)
        assert app.db.config is config
        assert app.grounder.config is config
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        assert result.marginals

    def test_snapshot_propagates_config(self):
        config = EngineConfig(datastore_backend="row")
        db = Database(config=config)
        db.create("t", a="int")
        assert db.snapshot().config is config

    def test_sampler_takes_no_configuration(self):
        graph = FactorGraph()
        v = graph.variable(("x", 1))
        graph.add_factor(FactorFunction.IS_TRUE, [v], graph.weight("w", 1.0))
        compiled = CompiledGraph(graph)
        with pytest.raises(TypeError):
            GibbsSampler(compiled, config=EngineConfig())

    def test_operator_config_beats_process_default(self):
        relation = Relation("t", Schema.of(a="int"))
        for i in range(60):                     # above COLUMNAR_MIN_ROWS
            relation.insert((i,))
        row_cfg = EngineConfig(datastore_backend="row")
        assert Q._pick(row_cfg, relation) == "row"
        col_cfg = EngineConfig(datastore_backend="columnar")
        assert Q._pick(col_cfg, relation) == "columnar"
        assert Q._pick(EngineConfig(), relation) == "columnar"

    def test_datastore_metrics_recorded(self):
        relation = Relation("t", Schema.of(a="int"))
        for i in range(5):
            relation.insert((i,))
        collector = obs.Collector()
        with obs.installed(collector):
            Q.select(relation, lambda r: r["a"] > 1)
        metrics = collector.metrics
        assert metrics.counter_total("datastore.select") == 1
        assert metrics.histogram("datastore.rows_in", op="select").count == 1


class TestRunResultProfile:
    def test_phase_timings_derived_from_profile(self):
        app = make_app()
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        assert set(result.phase_timings) >= {"grounding", "learning",
                                             "inference"}
        assert result.phase_timings == result.profile.phase_seconds()
        for seconds in result.phase_timings.values():
            assert seconds > 0.0

    def test_untraced_profile_has_flat_phases(self):
        app = make_app()
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        for span in result.profile.spans:
            assert span.children == []

    def test_traced_profile_has_subtrees_and_metrics(self):
        app = make_app(config=EngineConfig(trace=True))
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        assert result.profile.find("grounding.define_views") is not None
        assert result.profile.find("learning.learn_weights") is not None
        assert result.profile.metrics["counters"]

    def test_second_run_replaces_learning_and_inference(self):
        app = make_app()
        app.run(num_samples=10, burn_in=2, compute_train_histogram=False)
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        names = [s.name for s in result.profile.spans]
        assert names.count("learning") == 1
        assert names.count("inference") == 1

    def test_candidate_generation_accumulates(self):
        app = make_app()
        app.load_documents([Document("d1", "alpha beta.")])
        app.load_documents([Document("d2", "gamma delta.")])
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        names = [s.name for s in result.profile.spans]
        assert names.count("candidate_generation") == 2
        assert result.phase_timings["candidate_generation"] > 0.0

    def test_timings_shim_is_gone(self):
        app = make_app()
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        assert not hasattr(app, "_timings")
        assert "learning" in result.profile.phase_seconds()

    def test_summary_still_reports_phases(self):
        app = make_app()
        result = app.run(num_samples=10, burn_in=2,
                         compute_train_histogram=False)
        summary = result.summary()
        assert "learning=" in summary and "inference=" in summary

    def test_no_collector_leaks_from_run(self):
        app = make_app(config=EngineConfig(trace=True))
        app.run(num_samples=10, burn_in=2, compute_train_histogram=False)
        assert obs.active() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no stray DeprecationWarnings
            app.run(num_samples=10, burn_in=2,
                    compute_train_histogram=False)
