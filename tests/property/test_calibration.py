"""Statistical contract: long-run Gibbs marginals stay calibrated against
exact enumeration on generated graphs.

The bit-identity suites pin the sweep to its scalar oracle; this suite pins
both to the distribution they are meant to sample, for the batch chain and
for the served refresh (a sampler restricted to a region of a stored
world), and pins the mean-field kernel to the expectation it computes.
Graphs are small enough to enumerate (at most 8 free variables) and cover
every general function, negated literals, evidence and variables that occur
more than once in one factor.  Examples and chain seeds are fixed, so a run
is reproducible.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.grounding import ChainState, refresh
from repro.inference import GibbsSampler
from tests.inference.exact import exact_marginals

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


@given(calibration_graph())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_served_refresh_matches_exact(graph):
    """The served half of the contract: a sampling refresh of every variable
    (radius past the graph's diameter) from an arbitrary stored world lands
    on the exact evidence-clamped marginals.  Worst error over these
    examples: 0.023, against 0.022 for an index-order scan of the region."""
    compiled = CompiledGraph(graph)
    n = compiled.num_variables
    keys = tuple(compiled.var_keys)
    stored = ChainState(keys, np.zeros(n, dtype=bool), np.full(n, 0.5),
                        np.full(n, 0.5))
    state, name, update = refresh(stored, compiled, set(keys), seed=11,
                                  radius=n, num_samples=NUM_SAMPLES,
                                  burn_in=BURN_IN)
    assert name == "sampling"
    assert update.work == (n - compiled.is_evidence.sum()) * (
        NUM_SAMPLES + BURN_IN)
    exact = exact_marginals(compiled).marginals
    assert float(np.max(np.abs(state.marginals - exact))) < TOLERANCE


@given(calibration_graph(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_restricted_sweep_matches_reference(graph, seed, clamp):
    """A sampler restricted to a region is the refresh's sweep: the kernel
    and the scalar oracle stay bit-identical on it, and nothing outside the
    region (or clamped) is ever written."""
    compiled = CompiledGraph(graph)
    n = compiled.num_variables
    region = np.random.default_rng(seed).random(n) < 0.6
    fast = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp,
                        region=region)
    slow = GibbsSampler(compiled, seed=seed, clamp_evidence=clamp,
                        region=region)
    world = fast.initial_assignment()
    np.testing.assert_array_equal(world, slow.initial_assignment())
    frozen = ~region | (compiled.is_evidence if clamp else False)
    np.testing.assert_array_equal(fast.clamped, frozen)
    before = world.copy()
    reference = world.copy()
    for _ in range(5):
        assert fast.sweep(world) == slow.sweep_reference(reference) \
            == int((~frozen).sum())
        np.testing.assert_array_equal(world, reference)
        np.testing.assert_array_equal(world[frozen], before[frozen])


def brute_force_expected_delta(compiled: CompiledGraph, var: int,
                               mu: np.ndarray) -> float:
    """E[unary + general_delta(var)] with every variable an independent
    Bernoulli(mu), by enumerating all worlds."""
    unary = compiled.unary_deltas()[var]
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(mu)):
        world = np.array(bits)
        weight = float(np.prod(np.where(world, mu, 1.0 - mu)))
        total += weight * (unary + compiled.general_delta(var, world))
    return total


@given(calibration_graph(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_expected_deltas_match_brute_force(graph, seed):
    """The mean-field kernel is the exact expectation of the scalar flip
    delta: repeated members count once, contradictory ones never hit."""
    compiled = CompiledGraph(graph)
    mu = np.random.default_rng(seed).random(compiled.num_variables)
    sampler = GibbsSampler(compiled, clamp_evidence=False)
    for kernel in sampler._kernels:
        expected = [brute_force_expected_delta(compiled, int(var), mu)
                    for var in kernel.block.variables]
        np.testing.assert_allclose(kernel.expected_deltas(mu), expected,
                                   rtol=0, atol=1e-12)
