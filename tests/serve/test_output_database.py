"""The output database a published view builds once and every read shares.

The oracle is the comprehension every read used to run: a scan of all
marginals for one relation at one threshold.  ``output_tuples`` must equal
it at any threshold, on single and merged views, and must hand each caller
its own set.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import RunResult, output_database
from repro.serve import KBClient, ServeConfig, add_rows
from repro.serve.shard import MergedSnapshot
from repro.serve.snapshot import Snapshot

from .conftest import GOOD, RUN_KWARGS, bootstrap_ops, make_app_factory

RELATIONS = ("R", "S", "T")
THRESHOLDS = (0.0, 0.5, 0.7, 0.95, 1.0)


def oracle(marginals, relation, threshold):
    return {values for (name, values), probability in marginals.items()
            if name == relation and probability >= threshold}


def oracle_output(marginals, threshold):
    accepted = {}
    for (relation, values), probability in marginals.items():
        if probability >= threshold:
            accepted.setdefault(relation, {})[values] = probability
    return accepted


def snapshot(marginals, threshold=0.7):
    return Snapshot(version=1, lsn=1, marginals=marginals, threshold=threshold)


class CountingDict(dict):
    """A marginal dict that counts full scans."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()


# a small key space so merged parts share keys; probabilities include every
# threshold exactly so ``>=`` is tested at the boundary
keys = st.tuples(st.sampled_from(RELATIONS),
                 st.tuples(st.integers(0, 5)))
probabilities = st.one_of(st.sampled_from(THRESHOLDS),
                          st.floats(0.0, 1.0, allow_nan=False))
marginal_maps = st.dictionaries(keys, probabilities, max_size=24)


@st.composite
def query_thresholds(draw, own):
    """``None``, the view's own threshold, one above it or one below it."""
    return draw(st.one_of(st.none(), st.just(own),
                          st.floats(own, 1.5).filter(lambda t: t > own),
                          st.floats(-0.5, own).filter(lambda t: t < own),
                          st.sampled_from(THRESHOLDS)))


def effective(threshold, own):
    return own if threshold is None else threshold


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), marginals=marginal_maps,
           own=st.sampled_from(THRESHOLDS))
    def test_snapshot_matches_scan(self, data, marginals, own):
        view = snapshot(marginals, own)
        for _ in range(3):
            relation = data.draw(st.sampled_from(RELATIONS + ("Unknown",)))
            threshold = data.draw(query_thresholds(own))
            assert view.output_tuples(relation, threshold) == oracle(
                marginals, relation, effective(threshold, own))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           parts=st.lists(marginal_maps, min_size=1, max_size=3),
           own=st.sampled_from(THRESHOLDS))
    def test_merged_view_matches_scan_of_merge(self, data, parts, own):
        merged = {}
        for marginals in parts:                  # highest index wins
            merged.update(marginals)
        view = MergedSnapshot(snapshot(m, own) for m in parts)
        for _ in range(3):
            relation = data.draw(st.sampled_from(RELATIONS + ("Unknown",)))
            threshold = data.draw(query_thresholds(own))
            assert view.output_tuples(relation, threshold) == oracle(
                merged, relation, effective(threshold, own))

    @settings(max_examples=100, deadline=None)
    @given(marginals=marginal_maps, threshold=st.sampled_from(THRESHOLDS))
    def test_run_result_output_keeps_value_and_order(self, marginals,
                                                     threshold):
        output = RunResult(marginals=marginals, threshold=threshold).output
        expected = oracle_output(marginals, threshold)
        assert output == expected
        assert list(output) == list(expected)
        assert [list(tuples) for tuples in output.values()] == \
            [list(tuples) for tuples in expected.values()]

    def test_empty_snapshot(self):
        view = snapshot({})
        assert view.output_tuples("R") == set()
        assert view.output_tuples("R", 0.0) == set()
        assert MergedSnapshot([view, snapshot({})]).output_tuples("R") == set()


class TestTop:
    MARGINALS = {("R", (i,)): i / 10 for i in range(1, 6)}

    @pytest.mark.parametrize("merged", [False, True])
    def test_negative_k_raises_and_zero_is_empty(self, merged):
        view = snapshot(self.MARGINALS)
        if merged:
            items = list(self.MARGINALS.items())
            view = MergedSnapshot([snapshot(dict(items[:2])),
                                   snapshot(dict(items[2:]))])
        with pytest.raises(ValueError):
            view.top("R", -1)
        assert view.top("R", 0) == []
        assert view.top("R", 2) == [((5,), 0.5), ((4,), 0.4)]


class TestMergedWinner:
    @pytest.mark.parametrize("first, last, accepted", [
        (0.9, 0.1, False),        # an earlier part accepts, the later rejects
        (0.1, 0.9, True),         # an earlier part rejects, the later accepts
        (0.7, 0.7, True),         # both exactly at the threshold
    ])
    def test_highest_indexed_part_wins(self, first, last, accepted):
        key = ("R", (1,))
        parts = [snapshot({key: first, ("R", (2,)): 0.9}),
                 snapshot({}),
                 snapshot({key: last})]
        view = MergedSnapshot(parts)
        assert ((1,) in view.output_tuples("R")) is accepted
        assert (2,) in view.output_tuples("R")
        assert view.marginal(key) == last


class TestCache:
    def test_built_once_at_the_own_threshold(self):
        marginals = CountingDict({("R", (1,)): 0.9, ("S", (1,)): 0.2})
        view = snapshot(marginals)
        for relation in ("R", "S", "R", "Unknown"):
            view.output_tuples(relation)
            view.output_tuples(relation, 0.7)
        assert marginals.scans == 1

    def test_other_thresholds_scan_and_do_not_touch_the_cache(self):
        marginals = CountingDict({("R", (1,)): 0.9, ("R", (2,)): 0.3})
        view = snapshot(marginals)
        assert view.output_tuples("R", 0.2) == {(1,), (2,)}
        assert view.output_tuples("R", 0.95) == set()
        assert marginals.scans == 2
        assert view.output_tuples("R") == {(1,)}
        assert view.output_tuples("R", 0.2) == {(1,), (2,)}
        assert marginals.scans == 4

    def test_merged_view_builds_once_from_the_merged_dict(self,
                                                          monkeypatch):
        import repro.serve.snapshot as module
        built = []

        def counted(marginals, threshold):
            built.append(marginals)
            return output_database(marginals, threshold)

        monkeypatch.setattr(module, "output_database", counted)
        view = MergedSnapshot([snapshot({("R", (1,)): 0.9}),
                               snapshot({("R", (2,)): 0.8})])
        for _ in range(3):
            assert view.output_tuples("R") == {(1,), (2,)}
        assert len(built) == 1 and built[0] is view.marginals

    @pytest.mark.parametrize("merged", [False, True])
    def test_each_read_is_a_new_mutable_set(self, merged):
        marginals = {("R", (i,)): i / 10 for i in range(11)}
        view = snapshot(marginals)
        if merged:
            view = MergedSnapshot([view])
        first = view.output_tuples("R")
        first.add((99,))
        first.discard((10,))
        second = view.output_tuples("R")
        assert second is not first
        assert second == oracle(marginals, "R", 0.7)
        second.clear()
        assert view.output_tuples("R") == oracle(marginals, "R", 0.7)
        assert view.output_tuples("Unknown") is not \
            view.output_tuples("Unknown")

    def test_cache_is_not_part_of_equality_or_repr(self):
        marginals = {("R", (1,)): 0.9}
        read, unread = snapshot(marginals), snapshot(marginals)
        read.output_tuples("R")
        assert read == unread
        assert repr(read) == repr(unread)

    @pytest.mark.parametrize("merged", [False, True])
    def test_racing_first_reads_agree(self, merged):
        marginals = {(RELATIONS[i % 3], (i,)): (i % 100) / 100
                     for i in range(30_000)}
        expected = oracle(marginals, "R", 0.7)
        for _ in range(3):
            view = snapshot(marginals)
            if merged:
                view = MergedSnapshot([view, snapshot({})])
            start = threading.Barrier(2)
            results = [None, None]

            def read(slot):
                start.wait()
                results[slot] = view.output_tuples("R")

            threads = [threading.Thread(target=read, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results[0] == results[1] == expected
            assert view.output_tuples("R") == expected

    def test_output_database_is_the_one_rule(self):
        marginals = {("R", (1,)): 0.7, ("S", (1,)): 0.69, ("R", (2,)): 1.0}
        assert output_database(marginals, 0.7) == {
            "R": {(1,): 0.7, (2,): 1.0}}
        view = snapshot(marginals)
        view.output_tuples("R")
        assert view._output == output_database(marginals, 0.7)


@pytest.mark.parametrize("shards", [1, 2])
def test_query_on_live_and_retained_views(tmp_path, shards):
    config = ServeConfig(checkpoint_every=0, refresh_samples=40,
                         refresh_burn_in=10, shards=shards)
    with KBClient.create(tmp_path / "kb", make_app_factory(),
                         bootstrap_ops(), config=config,
                         run_kwargs=RUN_KWARGS) as client:
        before = client.lsn_vector()
        old = client.snapshot()
        assert client.query("GoodName") == oracle(
            old.marginals, "GoodName", old.threshold)
        client.ingest([add_rows("GoodList", [(GOOD[4],), (GOOD[5],)])])
        retained = client.snapshot_at(before)
        assert client.lsn_vector() != before
        for threshold in (None, retained.threshold, 0.0, 0.99):
            assert retained.output_tuples("GoodName", threshold) == oracle(
                retained.marginals, "GoodName",
                effective(threshold, retained.threshold))
        current = client.snapshot()
        assert client.query("GoodName") == oracle(
            current.marginals, "GoodName", current.threshold)
        assert client.query("GoodName", 0.0) == oracle(
            current.marginals, "GoodName", 0.0)
        assert client.query("Unknown") == set()
