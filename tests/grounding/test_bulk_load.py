"""One grounding path, and what it must agree with.

``Grounder._ground_rule`` is the only way a feature or inference rule row
becomes factors: it grounds the rows one event brings to a rule's view at
once (intern the head keys, one ``add_factors`` call), for the initial load
(the event "every visible row appeared") and for every DRed delta alike.
Two contracts hold it in place, for every shipped program shape: feature
rules (spouse), feature plus IMPLY inference rules (joint spouse), and
several candidate relations with per-value weights (ads).

* Batching never changes the result.  ``RowByRowGrounder`` calls
  ``_ground_rule`` and ``_apply_supervision`` once per row -- the one-row
  oracle, which labels each new variable and folds each vote on its own,
  where the bulk path labels a rule's new variables per head relation and
  folds a supervision event in one pass.  Over the same database, and
  through a delta that retracts some rows and grounds others, both leave
  the same graph (ids included), the same grounder bookkeeping, the same
  relations (``mutation_version`` included) and the same
  ``GroundingDelta``.
* Deltas ground what one batch load grounds.  Re-adding an app's base rows
  in interleaved chunks to a grounder that started on empty relations (and
  removing and re-adding one chunk) leaves the same factors, evidence and
  weight observations, keyed by variable and weight keys, as grounding all
  the rows in one initial load.
"""

import json
from collections import Counter

import pytest

from repro.apps import ads, spouse
from repro.corpus import ads as ads_corpus
from repro.corpus import spouse as spouse_corpus
from repro.datastore.io import database_to_dict
from repro.factorgraph import to_dict
from repro.grounding import Grounder
from repro.serve.engine import base_relation_names

CHUNKS = 5


class RowByRowGrounder(Grounder):
    """A grounder that grounds every rule row in its own ``_ground_rule``
    call and folds every supervision row in its own ``_apply_supervision``
    call."""

    def _ground_rule(self, index, rows, delta):
        for row in rows:
            super()._ground_rule(index, [row], delta)

    def _apply_supervision(self, index, appeared, disappeared, delta):
        for row in appeared:
            super()._apply_supervision(index, [row], [], delta)
        for row in disappeared:
            super()._apply_supervision(index, [], [row], delta)


def spouse_app(joint):
    corpus = spouse_corpus.generate(
        spouse_corpus.SpouseConfig(num_couples=10, num_distractor_pairs=10,
                                   num_sibling_pairs=4), seed=4)
    return spouse.build(corpus, seed=0, joint=joint)


def ads_app():
    return ads.build(ads_corpus.generate(ads_corpus.AdsConfig(num_ads=25),
                                         seed=3), seed=0)


BUILDERS = {
    "spouse": lambda: spouse_app(joint=False),
    "joint-spouse": lambda: spouse_app(joint=True),
    "ads": ads_app,
}


def base_rows(app):
    """The rows of every relation that holds ingested data, by relation."""
    names = base_relation_names(app.program, app.db.names())
    return {name: list(app.db[name].iter_rows()) for name in names
            if len(app.db[name])}


def chunk(rows, k):
    """The ``k``-th of ``CHUNKS`` interleaved slices of every relation."""
    return {name: part for name, rel_rows in rows.items()
            if (part := rel_rows[k::CHUNKS])}


def assert_same_grounding(one, other):
    assert json.dumps(to_dict(one.graph)) == json.dumps(to_dict(other.graph))
    assert json.dumps(one.state_dict()) == json.dumps(other.state_dict())
    assert json.dumps(database_to_dict(one.db)) == \
        json.dumps(database_to_dict(other.db))


@pytest.mark.parametrize("program", sorted(BUILDERS))
def test_bulk_load_equals_row_by_row(program):
    bulk_app, row_app = BUILDERS[program](), BUILDERS[program]()
    bulk = Grounder(bulk_app.program, bulk_app.db)
    by_row = RowByRowGrounder(row_app.program, row_app.db)

    assert bulk.graph.num_factors > 0
    assert_same_grounding(bulk, by_row)


@pytest.mark.parametrize("program", sorted(BUILDERS))
def test_delta_equals_row_by_row(program):
    """One delta that retracts chunk 0 and grounds the held-back chunk 1."""
    results = []
    for grounder_class in (Grounder, RowByRowGrounder):
        app = BUILDERS[program]()
        rows = base_rows(app)
        held_back = chunk(rows, 1)
        for name, part in held_back.items():
            for row in part:
                app.db[name].delete(row)
        grounder = grounder_class(app.program, app.db)
        delta = grounder.apply_changes(inserts=held_back,
                                       deletes=chunk(rows, 0))
        results.append((grounder, delta))
    (bulk, bulk_delta), (by_row, by_row_delta) = results

    assert bulk_delta.factors_added > 0 and bulk_delta.factors_removed > 0
    assert bulk_delta == by_row_delta
    assert_same_grounding(bulk, by_row)


def grounded_content(graph):
    """The graph keyed by variable and weight keys instead of ids: live
    factors as a multiset of (function, member keys, negation, weight key),
    evidence by variable key and nonzero weight observations by weight
    key."""
    keys = {v.var_id: v.key for v in graph.variables.values()}
    weight_keys = {w.weight_id: w.key for w in graph.weights.values()}
    factors = Counter(
        (f.function, tuple(keys[i] for i in f.var_ids), f.negated,
         weight_keys[f.weight_id])
        for f in graph.factors.values())
    evidence = {v.key: v.evidence for v in graph.variables.values()
                if v.evidence is not None}
    observations = {w.key: w.observations for w in graph.weights.values()
                    if w.observations}
    return factors, evidence, observations


@pytest.mark.parametrize("program", sorted(BUILDERS))
def test_deltas_ground_what_one_batch_load_grounds(program):
    batch_app = BUILDERS[program]()
    batch = grounded_content(batch_app.graph)

    app = BUILDERS[program]()
    rows = base_rows(app)
    for name in rows:
        app.db[name].clear()
    assert app.graph.num_factors == 0          # grounds the empty relations
    for k in range(CHUNKS):
        for name, part in chunk(rows, k).items():
            app.add_rows(name, part)
    for name, part in chunk(rows, 2).items():
        app.remove_rows(name, part)
    for name, part in chunk(rows, 2).items():
        app.add_rows(name, part)

    assert batch[0]
    assert grounded_content(app.graph) == batch
