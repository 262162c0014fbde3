"""Segment-cache invalidation through the serving layer.

The warm pool caches each compiled graph's shared-memory packing.  A rule
delta (or any graph mutation) through ``repro.serve`` must therefore
*repack* -- sync the mutable arrays and bump the segment generation -- and
never serve marginals computed against stale weights.  These tests drive
rule and data deltas through a pooled :class:`KBService` and assert the
published marginals are bit-identical to a pool-free service applying the
same batches, plus unit-level coverage that an in-place graph mutation
repacks the segment rather than re-serving the old weights.
"""

import numpy as np
import pytest

from repro import DeepDive
from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import NumaConfig, NumaGibbs
from repro.obs.config import EngineConfig
from repro.parallel import WorkerPool, shutdown_pools
from repro.serve import AddRules, KBService, add_rows
from tests.serve.conftest import (PROGRAM, RUN_KWARGS, bootstrap_ops,
                                  extractor, GOOD)

EXTRA_RULE = """
GoodName(m) :-
    NameMention(s, m, t, p), Content(s, content)
    weight = position_feature(p).
"""


def pooled_app_factory(seed=0, workers=2):
    """The conftest application, with a parallel EngineConfig."""
    config = EngineConfig(workers=workers, pool_min_work=0)

    def app_factory(extra_rules=""):
        source = PROGRAM + ("\n" + extra_rules if extra_rules else "")
        app = DeepDive(source, seed=seed, config=config)
        app.register_udf("name_features",
                         lambda t, content: [f"word:{t}",
                                             "fresh" if t in GOOD
                                             else "spoiled"])
        app.register_udf("position_feature", lambda p: [f"pos:{p}"])
        app.add_extractor("NameMention", extractor)
        app.add_extractor("Content", lambda s: [(s.key, s.text)])
        return app
    return app_factory


def sequential_app_factory(seed=0):
    return pooled_app_factory(seed=seed, workers=0)


class TestServeRepacksOnRuleDelta:
    def test_rule_delta_marginals_match_pool_free_service(self, tmp_path):
        """Satellite: a rule delta through a pooled service must publish
        exactly what a pool-free service publishes -- stale shared-memory
        weights would show up as diverging marginals here."""
        pooled = KBService.create(tmp_path / "pooled", pooled_app_factory(),
                                  bootstrap_ops(), run_kwargs=RUN_KWARGS)
        plain = KBService.create(tmp_path / "plain", sequential_app_factory(),
                                 bootstrap_ops(), run_kwargs=RUN_KWARGS)
        try:
            assert pooled._pool is not None      # config opted into pooling
            assert pooled.engine.pool is pooled._pool
            assert plain._pool is None
            batches = [
                [AddRules(EXTRA_RULE)],
                [add_rows("GoodList", [(GOOD[4],)])],
            ]
            for batch in batches:
                snap_pooled = pooled.ingest(batch, wait=True)
                snap_plain = plain.ingest(batch, wait=True)
                assert snap_pooled.version == snap_plain.version
                assert set(snap_pooled.marginals) == set(snap_plain.marginals)
                for key, value in snap_plain.marginals.items():
                    assert snap_pooled.marginals[key] == value, key
        finally:
            pooled.stop()
            plain.stop()
        assert pooled._pool is None              # stop released the pin

    def test_incremental_refresh_prestages_fresh_graphs(self, tmp_path):
        """Every incremental refresh compiles a fresh graph; prestaging it
        must land in the pool's segment cache (packs grow, never stale)."""
        service = KBService.create(tmp_path / "svc", pooled_app_factory(),
                                   bootstrap_ops(), run_kwargs=RUN_KWARGS)
        try:
            pool = service._pool
            assert pool is not None
            before = pool.stats["packs"] + pool.stats["repacks"]
            service.ingest([add_rows("GoodList", [(GOOD[5],)])], wait=True)
            after = pool.stats["packs"] + pool.stats["repacks"]
            assert after > before
        finally:
            service.stop()


class TestSegmentCacheInvalidation:
    """Unit-level: the invalidation machinery the serve guarantee rests on."""

    def chain(self, n=16):
        graph = FactorGraph()
        prev = graph.variable("v0")
        graph.add_factor(FactorFunction.IS_TRUE, [prev],
                         graph.weight("u", 0.5))
        for i in range(1, n):
            cur = graph.variable(f"v{i}")
            graph.add_factor(FactorFunction.EQUAL, [prev, cur],
                             graph.weight("c", 0.8))
            prev = cur
        return CompiledGraph(graph)

    def outcome(self, pool, compiled):
        return pool.run_replicas(compiled, sockets=3, seed=7,
                                 total_sweeps=15, burn_in=5, sync_every=5)

    def reference(self, compiled):
        sampler = NumaGibbs(compiled, NumaConfig(sockets=3, sync_every=5),
                            seed=7)
        return sampler._run_replicas_sequential(15, 5)

    def test_weight_mutation_repacks_and_changes_results(self):
        compiled = self.chain()
        with WorkerPool(2) as pool:
            first = self.outcome(pool, compiled)
            assert np.array_equal(first.totals,
                                  self.reference(compiled).totals)
            # learner-style in-place mutation
            compiled.weight_values[:] = compiled.weight_values * 3.0
            compiled.note_mutation()
            second = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(second.totals,
                                  self.reference(compiled).totals)
            # serving the stale weights would have reproduced `first`
            assert not np.array_equal(second.totals, first.totals)

    def test_evidence_mutation_repacks(self):
        compiled = self.chain()
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.is_evidence[3] = True
            compiled.evidence_values[3] = True
            compiled.note_mutation()
            outcome = self.outcome(pool, compiled)
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(outcome.totals,
                                  self.reference(compiled).totals)

    def test_unnoted_mutation_still_detected(self):
        """Belt and braces: even without note_mutation, the staging path
        compares mutable arrays against the segment and repacks."""
        compiled = self.chain()
        with WorkerPool(2) as pool:
            self.outcome(pool, compiled)
            compiled.weight_values[:] = compiled.weight_values * 2.0
            outcome = self.outcome(pool, compiled)   # no note_mutation()
            assert pool.stats["repacks"] >= 1
            assert np.array_equal(outcome.totals,
                                  self.reference(compiled).totals)

    def test_prestage_syncs_before_dispatch(self):
        compiled = self.chain()
        with WorkerPool(2) as pool:
            pool.prestage(compiled)
            assert pool.stats["packs"] == 1
            compiled.weight_values[:] = compiled.weight_values * 1.5
            compiled.note_mutation()
            pool.prestage(compiled)
            assert pool.stats["repacks"] == 1
            outcome = self.outcome(pool, compiled)
            assert np.array_equal(outcome.totals,
                                  self.reference(compiled).totals)


@pytest.fixture(autouse=True, scope="module")
def _shutdown_registry_pools():
    yield
    shutdown_pools()
