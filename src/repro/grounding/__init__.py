"""Grounding: DDlog rules + data -> factor graph, incrementally via DRed,
plus the incremental-inference materialization strategies of Section 4.2."""

from repro.grounding.expansion import (ExpansionError, derived_relation_plans,
                                       expanded_rule_body)
from repro.grounding.grounder import (Grounder, GroundingDelta, GroundingError,
                                      WeightProvenance)
from repro.grounding.materialization import (ChainState,
                                             MaterializationChoice,
                                             SamplingMaterialization,
                                             UpdateResult,
                                             VariationalMaterialization,
                                             choose_strategy, refresh)

__all__ = [
    "ChainState",
    "ExpansionError",
    "Grounder",
    "GroundingDelta",
    "GroundingError",
    "MaterializationChoice",
    "SamplingMaterialization",
    "UpdateResult",
    "VariationalMaterialization",
    "WeightProvenance",
    "choose_strategy",
    "derived_relation_plans",
    "expanded_rule_body",
    "refresh",
]
