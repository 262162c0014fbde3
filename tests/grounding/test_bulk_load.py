"""The bulk initial load builds what the per-row delta path builds.

``Grounder._ground_rule`` grounds a whole rule view at once (intern the head
keys, one ``add_factors`` call); ``Grounder._ground_row`` is the DRed path
that grounds one appeared row.  Over the same database both must leave the
same graph (ids included), the same grounder bookkeeping and the same
relations, for every shipped program shape: feature rules (spouse),
feature plus IMPLY inference rules (joint spouse), and several candidate
relations with per-value weights (ads).
"""

import json

import pytest

from repro.apps import ads, spouse
from repro.corpus import ads as ads_corpus
from repro.corpus import spouse as spouse_corpus
from repro.datastore.io import database_to_dict
from repro.factorgraph import to_dict
from repro.grounding import Grounder, GroundingDelta


class RowByRowGrounder(Grounder):
    """A grounder whose initial load goes through ``_ground_row``."""

    def _ground_rule(self, index, rows):
        delta = GroundingDelta()
        for row in rows:
            self._ground_row(index, row, delta)


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


@pytest.mark.parametrize("program", sorted(BUILDERS))
def test_bulk_load_equals_row_by_row(program):
    bulk_app, row_app = BUILDERS[program](), BUILDERS[program]()
    bulk = Grounder(bulk_app.program, bulk_app.db)
    by_row = RowByRowGrounder(row_app.program, row_app.db)

    assert bulk.graph.num_factors > 0
    assert json.dumps(to_dict(bulk.graph)) == json.dumps(to_dict(by_row.graph))
    assert json.dumps(bulk.state_dict()) == json.dumps(by_row.state_dict())
    assert json.dumps(database_to_dict(bulk_app.db)) == \
        json.dumps(database_to_dict(row_app.db))
