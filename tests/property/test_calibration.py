"""Statistical contract: long-run Gibbs marginals stay calibrated against
exact enumeration on generated graphs.

The bit-identity suites pin the sweep to its scalar oracle; this suite pins
both to the distribution they are meant to sample.  Graphs are small enough
to enumerate (at most 8 free variables) and cover every general function,
negated literals, evidence and variables that occur more than once in one
factor.  Examples and chain seeds are fixed, so a run is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler, exact_marginals

GENERAL = [FactorFunction.IMPLY, FactorFunction.AND, FactorFunction.OR,
           FactorFunction.EQUAL]

#: Chain length of every example.
NUM_SAMPLES, BURN_IN = 4000, 200

#: Largest |Gibbs - exact| allowed on any variable.  At this chain length
#: the sampler's worst error on the distinct-member graphs among the first
#: 200 generated examples is 0.022, about three standard errors of 4000
#: independent draws; scoring each occurrence of a repeated member
#: separately (the bug this suite first caught) erred by up to 0.15 on 9 of
#: the 27 repeated-member graphs among the 40 examples below.
TOLERANCE = 0.05


@st.composite
def calibration_graph(draw):
    """Up to 8 variables with unary priors, up to 6 general factors whose
    members may repeat, weights in [-2, 2], and up to 2 evidence labels."""
    num_variables = draw(st.integers(1, 8))
    graph = FactorGraph()
    for i in range(num_variables):
        graph.variable(i)
        if draw(st.booleans()):
            graph.add_factor(FactorFunction.IS_TRUE, [i],
                             graph.weight(("u", i), draw(st.floats(-2, 2))))
    for f in range(draw(st.integers(1, 6))):
        function = draw(st.sampled_from(GENERAL))
        arity = 2 if function == FactorFunction.EQUAL else draw(
            st.integers(2, 3))
        members = draw(st.lists(st.integers(0, num_variables - 1),
                                min_size=arity, max_size=arity))
        negated = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
        graph.add_factor(function, members,
                         graph.weight(("g", f), draw(st.floats(-2, 2))),
                         negated=negated)
    for var in draw(st.lists(st.integers(0, num_variables - 1), max_size=2)):
        graph.set_evidence(var, draw(st.booleans()))
    return graph


def calibration_error(graph: FactorGraph, clamp: bool) -> float:
    compiled = CompiledGraph(graph)
    sampled = GibbsSampler(compiled, seed=11, clamp_evidence=clamp).marginals(
        num_samples=NUM_SAMPLES, burn_in=BURN_IN).marginals
    exact = exact_marginals(compiled, clamp_evidence=clamp).marginals
    return float(np.max(np.abs(sampled - exact)))


@given(calibration_graph(), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_gibbs_marginals_match_exact(graph, clamp):
    assert calibration_error(graph, clamp) < TOLERANCE
