"""A factor graph persists as its ``GraphImage`` arrays: round trips through
``FactorGraph.from_image(graph.image())``, and the checks restore makes."""

import numpy as np
import pytest

from repro.factorgraph import (FactorFunction, FactorGraph, GraphError,
                               encode_key)
from tests.factorgraph.object_graph import assert_same_graph


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


def restored(graph):
    return FactorGraph.from_image(graph.image())


class TestRoundTrip:
    def test_image_roundtrip(self):
        graph = sample_graph()
        assert_same_graph(restored(graph), graph)

    def test_tuple_keys_survive(self):
        assert restored(sample_graph()).has_variable(
            ("MarriedMentions", ("m1", "m2")))

    def test_evidence_survives(self):
        graph = restored(sample_graph())
        var = graph.variables[graph.variable_id("plain_key")]
        assert var.evidence is False

    def test_fixed_weight_survives(self):
        copy = restored(sample_graph())
        weight = copy.weights[copy.weight("fixed_rule")]
        assert weight.fixed and weight.value == 4.0

    def test_negation_survives(self):
        imply = next(f for f in restored(sample_graph()).factors.values()
                     if f.function == FactorFunction.IMPLY)
        assert imply.negated == (True, False)

    def test_empty_graph(self):
        assert_same_graph(restored(FactorGraph()), FactorGraph())


class TestFormatVersions:
    """What the one persisted form must keep for a restored graph to carry
    on where the live one stood: the exact id space and the same chain."""

    def test_unserializable_key_rejected(self):
        """Keys persisted beside the image (grounder state, WAL rows) go
        through the key codec, which refuses what it cannot restore."""
        with pytest.raises(TypeError):
            encode_key(object())

    def test_ids_survive_removal_gaps(self):
        graph = sample_graph()
        extra = graph.variable("doomed")
        w = graph.weight("doomed_w", 0.5)
        fid = graph.add_factor(FactorFunction.IS_TRUE, [extra], w)
        graph.remove_factor(fid)
        graph.remove_variable("doomed")
        copy = restored(graph)
        assert_same_graph(copy, graph)
        # fresh insertions continue from the original counters, not the gaps
        assert copy.variable("fresh") == graph.variable("fresh")

    def test_compiled_equivalence(self):
        """The restored graph samples identically to the original."""
        from repro.factorgraph import CompiledGraph
        from repro.inference import GibbsSampler

        graph = sample_graph()
        copy = restored(graph)
        m1 = GibbsSampler(CompiledGraph(graph), seed=3).marginals(
            num_samples=200, burn_in=20).marginals
        m2 = GibbsSampler(CompiledGraph(copy), seed=3).marginals(
            num_samples=200, burn_in=20).marginals
        assert CompiledGraph(graph).var_keys == CompiledGraph(copy).var_keys
        np.testing.assert_array_equal(m1, m2)


def with_first_factor(image, function, members):
    """``image`` with its first factor (an IS_TRUE over one variable)
    replaced by ``function`` over ``members``."""
    arity = int(image.factor_arity[0])
    return image._replace(
        factor_function=np.concatenate(
            [[int(function)], image.factor_function[1:]]),
        factor_arity=np.concatenate([[len(members)], image.factor_arity[1:]]),
        edge_var=np.concatenate([members, image.edge_var[arity:]]),
        edge_negated=np.concatenate(
            [[False] * len(members), image.edge_negated[arity:]]))


class TestRestoreValidation:
    """An image is restored only if ``add_factor`` would have built it."""

    @pytest.mark.parametrize("function, members", [
        (FactorFunction.IS_TRUE, [0, 1]),   # read as unary: drops a variable
        (FactorFunction.EQUAL, [0]),        # read as binary: reads past it
        (FactorFunction.IMPLY, [1]),        # a head without a body
    ])
    def test_bad_arity_rejected(self, function, members):
        image = with_first_factor(sample_graph().image(), function, members)
        with pytest.raises(GraphError, match="arity"):
            FactorGraph.from_image(image)

    def test_unknown_variable_rejected(self):
        image = with_first_factor(sample_graph().image(),
                                  FactorFunction.IS_TRUE, [7])
        with pytest.raises(GraphError, match="unknown variable"):
            FactorGraph.from_image(image)

    def test_ids_out_of_order_rejected(self):
        image = sample_graph().image()
        image = image._replace(var_id=image.var_id[::-1],
                               var_key=image.var_key[::-1],
                               var_evidence=image.var_evidence[::-1],
                               var_initial=image.var_initial[::-1])
        with pytest.raises(GraphError, match="id order"):
            FactorGraph.from_image(image)
