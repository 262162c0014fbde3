"""Named numpy arrays in one ``multiprocessing.shared_memory`` segment.

The parallel execution layer ships the :class:`~repro.factorgraph.compiled.
CompiledGraph`'s flat arrays (CSR slot arrays, weights, evidence masks) to
worker processes without copying them per worker: the parent packs them into
a single shared-memory segment once, and each worker maps views onto the
same physical pages.

Ownership protocol: the parent creates a :class:`SharedArrayPack` and is the
only process that ever calls :meth:`~SharedArrayPack.unlink`; workers attach
through the picklable :class:`PackHandle` and simply exit (the segment
outlives any one mapping until the parent unlinks it).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np

_ALIGNMENT = 64          # cache-line align every array inside the segment


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside the segment (picklable metadata)."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class PackHandle:
    """Everything a worker needs to map the arrays: segment name + layout.

    Small and picklable -- this is what crosses the process boundary; the
    array payload itself never does.
    """

    shm_name: str
    specs: dict[str, ArraySpec]
    scalars: dict[str, Any]


def _layout(arrays: Mapping[str, np.ndarray]) -> tuple[dict[str, ArraySpec], int]:
    specs: dict[str, ArraySpec] = {}
    offset = 0
    for name, array in arrays.items():
        offset = (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        specs[name] = ArraySpec(dtype=str(array.dtype), shape=tuple(array.shape),
                                offset=offset)
        offset += array.nbytes
    return specs, max(offset, 1)


def _map_views(buf, specs: Mapping[str, ArraySpec]) -> dict[str, np.ndarray]:
    return {name: np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                             buffer=buf, offset=spec.offset)
            for name, spec in specs.items()}


class SharedArrayPack:
    """Parent-side owner of one shared segment holding named arrays.

    ``arrays`` are copied into the segment at construction; :attr:`views`
    are live ndarrays over the shared pages (so the parent reads worker
    writes directly).  ``scalars`` ride along in the handle as plain pickled
    values for small non-array metadata.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray],
                 scalars: Mapping[str, Any] | None = None) -> None:
        arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
        specs, nbytes = _layout(arrays)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.views = _map_views(self._shm.buf, specs)
        for name, array in arrays.items():
            self.views[name][...] = array
        self.handle = PackHandle(shm_name=self._shm.name, specs=specs,
                                 scalars=dict(scalars or {}))
        self._unlinked = False

    def close(self) -> None:
        """Drop the parent's mapping and unlink the segment (idempotent)."""
        self.views = {}
        if not self._unlinked:
            self._unlinked = True
            try:
                self._shm.close()
            except BufferError:
                pass         # a live view still exports the buffer; the
                             # unlink below removes the name regardless
            self._shm.unlink()

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AttachedPack:
    """Worker-side mapping of a :class:`PackHandle`.

    Workers never unlink; they only map.  CPython's ``resource_tracker``
    registers attachments too, not just creations (bpo-39959).  Children
    started through :mod:`multiprocessing` -- fork *or* spawn -- share the
    parent's tracker process (spawn ships the tracker fd in its
    preparation data), where registration is an idempotent set-add, so
    the attach-time re-registration is harmless and ``unregister`` must
    stay False: unregistering there would erase the parent's own entry
    and make its eventual ``unlink`` die with a tracker ``KeyError``.
    Pass ``unregister=True`` only from a *foreign* process (one not
    started by this interpreter's multiprocessing) whose fresh tracker
    would otherwise warn about a "leak" and unlink the parent's live
    segment at exit.
    """

    def __init__(self, handle: PackHandle, unregister: bool = False) -> None:
        self._shm = shared_memory.SharedMemory(name=handle.shm_name)
        if unregister:
            try:
                from multiprocessing import resource_tracker
                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:
                pass
        self.views = _map_views(self._shm.buf, handle.specs)
        self.scalars = dict(handle.scalars)

    def close(self) -> None:
        self.views = {}
        try:
            self._shm.close()
        except BufferError:
            pass             # views still referenced; the mapping dies with
                             # the worker process


# --------------------------------------------------------- compiled graphs
#: CompiledGraph ndarray attributes the sampler-side workers need.
COMPILED_ARRAY_FIELDS = (
    "is_evidence", "evidence_values", "initial_values",
    "weight_values", "weight_fixed", "weight_observations",
    "unary_var", "unary_weight", "unary_sign",
    "general_function", "general_weight",
    "fv_indptr", "fv_vars", "fv_negated",
    "vf_indptr", "vf_factors", "var_colors",
)

#: CompiledGraph scalar attributes shipped in the handle.
COMPILED_SCALAR_FIELDS = (
    "num_variables", "num_weights", "num_unary", "num_general", "num_colors",
)


def share_compiled(compiled) -> SharedArrayPack:
    """Pack a :class:`CompiledGraph`'s arrays into one shared segment."""
    arrays = {name: np.asarray(getattr(compiled, name))
              for name in COMPILED_ARRAY_FIELDS}
    scalars = {name: int(getattr(compiled, name))
               for name in COMPILED_SCALAR_FIELDS}
    return SharedArrayPack(arrays, scalars=scalars)


def attach_compiled(handle: PackHandle, unregister: bool = False):
    """Rebuild a sampler-ready compiled-graph view over shared arrays.

    Returns ``(attached, view)``: the view is a :class:`CompiledGraph`
    whose array attributes are zero-copy maps of the parent's segment --
    everything :class:`~repro.inference.gibbs.GibbsSampler` touches
    (CSR arrays, chromatic schedule, evidence masks, weights) resolves to
    the same physical memory in every worker.  Keep ``attached`` alive as
    long as the view is in use.  ``unregister`` follows the
    :class:`AttachedPack` rule (True only in foreign processes).
    """
    from repro.factorgraph.compiled import CompiledGraph

    attached = AttachedPack(handle, unregister=unregister)
    view = CompiledGraph.__new__(CompiledGraph)
    for name, array in attached.views.items():
        setattr(view, name, array)
    for name, value in attached.scalars.items():
        setattr(view, name, value)
    return attached, view
