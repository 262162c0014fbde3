"""Shared-memory array packs: layout, roundtrips, compiled-graph views."""

import numpy as np
import pytest

from repro.factorgraph import CompiledGraph, FactorFunction, FactorGraph
from repro.inference import GibbsSampler
from repro.parallel import SharedArrayPack, attach_compiled, share_compiled
from repro.parallel.shm import _ALIGNMENT


def small_graph(n=12):
    graph = FactorGraph()
    prev = graph.variable("v0")
    graph.add_factor(FactorFunction.IS_TRUE, [prev], graph.weight("u", 0.5))
    for i in range(1, n):
        cur = graph.variable(f"v{i}")
        graph.add_factor(FactorFunction.EQUAL, [prev, cur],
                         graph.weight("c", 0.8))
        prev = cur
    return CompiledGraph(graph)


class TestSharedArrayPack:
    def test_roundtrip_views(self):
        arrays = {"a": np.arange(7, dtype=np.int64),
                  "b": np.linspace(0, 1, 5, dtype=np.float64),
                  "c": np.array([[1, 2], [3, 4]], dtype=np.int32)}
        with SharedArrayPack(arrays, scalars={"n": 7}) as pack:
            for name, original in arrays.items():
                assert np.array_equal(pack.views[name], original)
                assert pack.views[name].dtype == original.dtype
            assert pack.handle.scalars == {"n": 7}

    def test_alignment(self):
        arrays = {"a": np.ones(3, dtype=np.int8),
                  "b": np.ones(3, dtype=np.float64)}
        with SharedArrayPack(arrays) as pack:
            for spec in pack.handle.specs.values():
                assert spec.offset % _ALIGNMENT == 0

    def test_attach_sees_parent_writes(self):
        with SharedArrayPack({"x": np.zeros(4)}) as pack:
            from repro.parallel import AttachedPack
            attached = AttachedPack(pack.handle)
            pack.views["x"][2] = 9.5
            assert attached.views["x"][2] == 9.5
            attached.views["x"][0] = -1.0       # and writes flow back
            assert pack.views["x"][0] == -1.0
            attached.close()

    def test_close_idempotent(self):
        pack = SharedArrayPack({"x": np.zeros(2)})
        pack.close()
        pack.close()

    def test_empty_pack(self):
        with SharedArrayPack({}) as pack:
            assert pack.views == {}

    def test_unlinked_segment_gone(self):
        pack = SharedArrayPack({"x": np.zeros(2)})
        name = pack.handle.shm_name
        pack.close()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestShareCompiled:
    def test_view_matches_compiled(self):
        compiled = small_graph()
        pack = share_compiled(compiled)
        try:
            attached, view = attach_compiled(pack.handle)
            assert view.num_variables == compiled.num_variables
            assert view.num_weights == compiled.num_weights
            assert np.array_equal(view.fv_indptr, compiled.fv_indptr)
            assert np.array_equal(view.weight_values, compiled.weight_values)
            assert np.array_equal(view.var_colors, compiled.var_colors)
            attached.close()
        finally:
            pack.close()

    def test_sampler_on_view_is_bit_identical(self):
        """A GibbsSampler over the shared view runs the exact same chain."""
        compiled = small_graph()
        pack = share_compiled(compiled)
        try:
            attached, view = attach_compiled(pack.handle)
            direct = GibbsSampler(compiled, seed=11)
            shared = GibbsSampler(view, seed=11)
            world_a = direct.initial_assignment()
            world_b = shared.initial_assignment()
            assert np.array_equal(world_a, world_b)
            for _ in range(4):
                drawn_a = direct.sweep(world_a)
                drawn_b = shared.sweep(world_b)
                assert drawn_a == drawn_b
                assert np.array_equal(world_a, world_b)
            attached.close()
        finally:
            pack.close()

    def test_value_kernel_rederived_on_view(self):
        """The learner's kernel index sets are not packed: a view derives
        them from the CSR arrays it already maps."""
        compiled = small_graph()
        world = np.random.default_rng(3).random(compiled.num_variables) < 0.5
        pack = share_compiled(compiled)
        try:
            attached, view = attach_compiled(pack.handle)
            assert view._value_kernel is None
            assert np.array_equal(view.general_value_sums(world),
                                  compiled.general_value_sums(world))
            assert view._value_kernel is not None
            del view
            attached.close()
        finally:
            pack.close()
