"""Round-trip tests for factor-graph serialization."""

import pytest

from repro.factorgraph import (FactorFunction, FactorGraph, GraphError, dumps,
                               from_dict, loads, to_dict)


def sample_graph():
    graph = FactorGraph()
    a = graph.variable(("MarriedMentions", ("m1", "m2")), initial=True)
    b = graph.variable("plain_key")
    w1 = graph.weight(("rule0", "between:and his wife"), 1.5)
    w2 = graph.weight("fixed_rule", 4.0, fixed=True)
    graph.add_factor(FactorFunction.IS_TRUE, [a], w1)
    graph.add_factor(FactorFunction.IMPLY, [a, b], w2, negated=[True, False])
    graph.set_evidence("plain_key", False)
    return graph


def signature(graph):
    variables = sorted((repr(v.key), v.evidence, v.initial)
                       for v in graph.variables.values())
    weights = sorted((repr(w.key), w.value, w.fixed, w.observations)
                     for w in graph.weights.values())
    factors = sorted(
        (int(f.function),
         tuple(repr(graph.variables[v].key) for v in f.var_ids),
         f.negated, repr(graph.weights[f.weight_id].key))
        for f in graph.factors.values())
    return variables, weights, factors


class TestRoundTrip:
    def test_dict_roundtrip(self):
        graph = sample_graph()
        restored = from_dict(to_dict(graph))
        assert signature(restored) == signature(graph)

    def test_json_roundtrip(self):
        graph = sample_graph()
        restored = loads(dumps(graph))
        assert signature(restored) == signature(graph)

    def test_tuple_keys_survive(self):
        graph = sample_graph()
        restored = loads(dumps(graph))
        assert restored.has_variable(("MarriedMentions", ("m1", "m2")))

    def test_evidence_survives(self):
        restored = loads(dumps(sample_graph()))
        var = restored.variables[restored.variable_id("plain_key")]
        assert var.evidence is False

    def test_fixed_weight_survives(self):
        restored = loads(dumps(sample_graph()))
        weight = restored.weight_by_key("fixed_rule")
        assert weight.fixed and weight.value == 4.0

    def test_negation_survives(self):
        restored = loads(dumps(sample_graph()))
        imply = next(f for f in restored.factors.values()
                     if f.function == FactorFunction.IMPLY)
        assert imply.negated == (True, False)

    def test_empty_graph(self):
        assert signature(loads(dumps(FactorGraph()))) == signature(FactorGraph())

    def test_version_checked(self):
        data = to_dict(sample_graph())
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            from_dict(data)


class TestFormatVersions:
    """Forward/backward compatibility of the versioned payload."""

    def test_current_version_is_2(self):
        from repro.factorgraph import serialize
        assert serialize.FORMAT_VERSION == 2
        assert to_dict(sample_graph())["version"] == 2

    @pytest.mark.parametrize("version", [0, 1, 3, 999, "2", None])
    def test_unknown_version_rejected_with_clear_error(self, version):
        from repro.factorgraph.serialize import SerializationError
        data = to_dict(sample_graph())
        data["version"] = version
        with pytest.raises(SerializationError) as excinfo:
            from_dict(data)
        message = str(excinfo.value)
        assert repr(version) in message
        assert "reads version 2 only" in message   # the one version is named

    def test_missing_version_rejected(self):
        data = to_dict(sample_graph())
        del data["version"]
        with pytest.raises(ValueError, match="unsupported factor-graph"):
            from_dict(data)

    def test_forward_compat_never_misparses(self):
        """A plausible future payload (extra fields, new version) is refused
        outright rather than half-parsed."""
        data = to_dict(sample_graph())
        data["version"] = 3
        data["variables"][0]["domain"] = ["a", "b", "c"]   # hypothetical v3 field
        with pytest.raises(ValueError, match="newer"):
            from_dict(data)

    def test_unserializable_key_rejected(self):
        graph = FactorGraph()
        graph.variable(object())
        with pytest.raises(TypeError):
            to_dict(graph)

    def test_ids_survive_removal_gaps(self):
        """v2 payloads restore the exact id space, including gaps."""
        graph = sample_graph()
        extra = graph.variable("doomed")
        w = graph.weight("doomed_w", 0.5)
        fid = graph.add_factor(FactorFunction.IS_TRUE, [extra], w)
        graph.remove_factor(fid)
        graph.remove_variable("doomed")
        restored = from_dict(to_dict(graph))
        assert sorted(restored.variables) == sorted(graph.variables)
        assert sorted(restored.factors) == sorted(graph.factors)
        assert sorted(restored.weights) == sorted(graph.weights)
        # fresh insertions continue from the original counters, not the gaps
        assert restored.variable("fresh") == graph.variable("fresh")

    def test_compiled_equivalence(self):
        """The restored graph samples identically to the original."""
        import numpy as np
        from repro.factorgraph import CompiledGraph
        from repro.inference import GibbsSampler

        graph = sample_graph()
        restored = loads(dumps(graph))
        m1 = GibbsSampler(CompiledGraph(graph), seed=3).marginals(
            num_samples=200, burn_in=20).by_key(CompiledGraph(graph))
        m2 = GibbsSampler(CompiledGraph(restored), seed=3).marginals(
            num_samples=200, burn_in=20).by_key(CompiledGraph(restored))
        for key, value in m1.items():
            assert abs(m2[key] - value) < 1e-12


class TestRestoreValidation:
    """A payload is restored only if ``add_factor`` would have built it."""

    @pytest.mark.parametrize("function, members", [
        (FactorFunction.IS_TRUE, [0, 1]),   # read as unary: drops a variable
        (FactorFunction.EQUAL, [0]),        # read as binary: reads past it
        (FactorFunction.IMPLY, [1]),        # a head without a body
    ])
    def test_bad_arity_rejected(self, function, members):
        data = to_dict(sample_graph())
        data["factors"][0].update(function=int(function), vars=members,
                                  negated=[False] * len(members))
        with pytest.raises(GraphError, match="arity"):
            from_dict(data)

    def test_unknown_variable_rejected(self):
        data = to_dict(sample_graph())
        data["factors"][0]["vars"] = [7]
        with pytest.raises(GraphError, match="unknown variable"):
            from_dict(data)

    def test_ids_out_of_order_rejected(self):
        data = to_dict(sample_graph())
        data["variables"].reverse()
        with pytest.raises(GraphError, match="id order"):
            from_dict(data)
