"""ChainState / refresh against the dict-based loop they replaced.

``reference_refresh`` below is the parent commit's ``ServeEngine._refresh``
body (three ``{key: value}`` dicts re-aligned with a per-key Python loop),
kept verbatim as the oracle.  For random old/new key sets -- added, removed,
reordered, disjoint, empty -- random touched sets and every strategy, the
array-based :func:`repro.grounding.refresh` must land on the same bits, hand
the strategies the same changed set in the call shape ``bench/trace.py``
wraps, and clamp evidence.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.grounding import (ChainState, SamplingMaterialization,
                             VariationalMaterialization, choose_strategy,
                             refresh)

KEYS = st.one_of(
    st.integers(0, 30),
    st.sampled_from(["a", "b", "hub", ""]),
    st.tuples(st.sampled_from(["R", "S"]),
              st.tuples(st.integers(0, 5), st.sampled_from(["x", "y"]))),
    st.tuples(st.sampled_from(["T"]), st.tuples(st.tuples(st.integers(0, 3)))),
)
KEY_LISTS = st.lists(KEYS, max_size=12, unique=True)


@st.composite
def scenarios(draw):
    old_keys = draw(KEY_LISTS)
    kept = draw(st.lists(st.sampled_from(old_keys), unique=True)) \
        if old_keys else []
    added = [k for k in draw(KEY_LISTS) if k not in old_keys]
    new_keys = draw(st.permutations(kept + added))
    universe = list(dict.fromkeys(old_keys + list(new_keys)))
    touched = set(draw(st.lists(st.sampled_from(universe), unique=True))) \
        if universe else set()
    evidence = {key: draw(st.booleans())
                for key in new_keys if draw(st.integers(0, 3)) == 0}
    biases = [draw(st.floats(-2, 2)) for _ in new_keys]
    couple = draw(st.booleans())
    old = {
        "world": {k: draw(st.booleans()) for k in old_keys},
        "marginals": {k: draw(st.floats(0, 1)) for k in old_keys},
        "mu": {k: draw(st.floats(0, 1)) for k in old_keys},
    }
    return {
        "old": old, "new_keys": list(new_keys), "touched": touched,
        "evidence": evidence, "biases": biases, "couple": couple,
        "seed": draw(st.integers(0, 2**31)),
        "strategy": draw(st.sampled_from(["sampling", "variational",
                                          "auto"])),
        "radius": draw(st.integers(0, 2)),
    }


def build_graph(scenario) -> CompiledGraph:
    graph = FactorGraph()
    ids = []
    for key, bias in zip(scenario["new_keys"], scenario["biases"]):
        var = graph.variable(key)
        ids.append(var)
        graph.add_factor(FactorFunction.IS_TRUE, [var],
                         graph.weight(("w", len(ids)), bias))
        if key in scenario["evidence"]:
            graph.set_evidence(key, scenario["evidence"][key])
    if scenario["couple"]:
        for left, right in zip(ids, ids[1:]):
            graph.add_factor(FactorFunction.EQUAL, [left, right],
                             graph.weight("couple", 0.7))
    return CompiledGraph(graph)


def reference_refresh(old, compiled, touched, seed, strategy, radius,
                      num_samples, burn_in, expected_updates):
    """The parent's per-key loop over three dicts.  Returns the three new
    dicts, the refresh name and the changed set."""
    n = compiled.num_variables
    rng = np.random.default_rng(seed)
    world = rng.random(n) < 0.5
    marginals = np.full(n, 0.5)
    mu = np.full(n, 0.5)
    changed = set()
    for index, key in enumerate(compiled.var_keys):
        if key in old["world"]:
            world[index] = old["world"][key]
            marginals[index] = old["marginals"][key]
        else:
            changed.add(index)              # brand-new variable
        stored_mu = old["mu"].get(key)
        if stored_mu is not None:
            mu[index] = stored_mu
        if key in touched:
            changed.add(index)
    if not changed:
        clamped = compiled.is_evidence
        marginals[clamped] = compiled.evidence_values[clamped]
        name = "none"
    else:
        name = strategy
        if name == "auto":
            name = choose_strategy(
                compiled, expected_updates=expected_updates,
                expected_change_size=len(changed)).strategy
        if name == "sampling":
            chain = SamplingMaterialization.from_state(
                compiled, world, marginals, seed=seed)
            update = chain.update(changed, radius=radius,
                                  num_samples=num_samples, burn_in=burn_in)
            world = chain.world
        else:
            field = VariationalMaterialization.from_state(compiled, mu)
            update = field.update(changed)
            mu = field.mu
        marginals = update.marginals
    keys = compiled.var_keys
    return ({key: bool(world[i]) for i, key in enumerate(keys)},
            {key: float(marginals[i]) for i, key in enumerate(keys)},
            {key: float(mu[i]) for i, key in enumerate(keys)},
            name, changed)


def state_of(old) -> ChainState:
    keys = tuple(old["world"])
    return ChainState(
        keys,
        np.array([old["world"][k] for k in keys], dtype=bool),
        np.array([old["marginals"][k] for k in keys], dtype=np.float64),
        np.array([old["mu"][k] for k in keys], dtype=np.float64))


class Recorder:
    """Wraps the two ``update`` methods the way ``bench/trace.py`` does and
    records what the tracer's counters would read."""

    def __init__(self, monkeypatch):
        self.calls = []
        for cls in (SamplingMaterialization, VariationalMaterialization):
            original = cls.update

            def wrapper(*args, _original=original, **kwargs):
                self.calls.append({
                    "changed": set(args[1]), "len": len(args[1]),
                    "compiled": args[0].compiled, "kwargs": dict(kwargs)})
                return _original(*args, **kwargs)
            monkeypatch.setattr(cls, "update", wrapper)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_refresh_equals_the_dict_reference(scenario):
    from _pytest.monkeypatch import MonkeyPatch

    compiled = build_graph(scenario)
    options = dict(seed=scenario["seed"], strategy=scenario["strategy"],
                   radius=scenario["radius"], num_samples=7, burn_in=3,
                   expected_updates=20)
    world, marginals, mu, name, changed = reference_refresh(
        scenario["old"], compiled, scenario["touched"], **options)

    with MonkeyPatch.context() as patch:
        recorder = Recorder(patch)
        state, refreshed, update = refresh(
            state_of(scenario["old"]), compiled, scenario["touched"],
            **options)

    # same bits, same order, same refresh
    event(f"refresh={name}")
    assert refreshed == name
    assert state.keys == tuple(compiled.var_keys)
    assert dict(zip(state.keys, state.world.tolist())) == world
    assert state.marginals_by_key() == marginals
    assert list(state.marginals_by_key()) == list(marginals)
    assert dict(zip(state.keys, state.mu.tolist())) == mu

    # the strategies saw the reference's changed set, in the traced shape
    new_indices = {i for i, key in enumerate(compiled.var_keys)
                   if key not in scenario["old"]["world"]}
    assert new_indices <= changed
    if name == "none":
        assert update is None and not recorder.calls and not changed
    else:
        (call,) = recorder.calls
        assert call["changed"] == changed and call["len"] == len(changed)
        assert call["compiled"] is compiled
        assert update.marginals is not None and update.work >= 0
        if name == "sampling":
            assert call["kwargs"] == {"radius": scenario["radius"],
                                      "num_samples": 7, "burn_in": 3}
        else:
            assert call["kwargs"] == {}

    # evidence is clamped whichever path ran
    clamped = compiled.is_evidence
    assert (state.marginals[clamped]
            == compiled.evidence_values[clamped]).all()


def test_empty_graph_empties_the_state():
    old = state_of({"world": {"a": True}, "marginals": {"a": 0.25},
                    "mu": {"a": 0.75}})
    state, refreshed, update = refresh(old, CompiledGraph(FactorGraph()),
                                       {"a"}, seed=3, strategy="auto")
    assert (state.keys, refreshed, update) == ((), "none", None)
    assert state.world.size == state.marginals.size == state.mu.size == 0
    assert state.marginals_by_key() == {}


def test_from_run_warm_starts_mu_and_owns_its_arrays():
    graph = FactorGraph()
    graph.variable(("R", ("x",)))
    graph.variable("b")
    compiled = CompiledGraph(graph)
    world = np.array([True, False])
    marginals = np.array([0.9, 0.1])
    state = ChainState.from_run(compiled, world, marginals)
    world[0] = False
    marginals[0] = 0.0
    assert state.world.tolist() == [True, False]
    assert state.marginals.tolist() == state.mu.tolist() == [0.9, 0.1]
    assert state.mu is not state.marginals
    assert state.marginals_by_key() == {("R", ("x",)): 0.9, "b": 0.1}
