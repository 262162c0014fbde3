"""Immutable published views: what readers see.

The serving layer's consistency model is snapshot isolation with a single
writer: the apply loop builds the next version off to the side and publishes
it with one reference assignment, so readers always query a complete,
internally consistent knowledge base and never block on (or observe) an
ingest in flight.  A :class:`Snapshot` therefore owns *copies* of everything
it exposes — marginals, graph statistics, relation cardinalities — and
nothing that aliases the writer's mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.core.result import output_database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compliance.manifest import ComplianceManifest

VariableKey = tuple[str, tuple]


class SnapshotReads:
    """The query API every published view shares: reads of
    ``self.marginals`` (variable key -> probability) and
    ``self.threshold``, inherited by :class:`Snapshot` and the cross-shard
    :class:`~repro.serve.shard.MergedSnapshot`.

    The view's output database (:func:`~repro.core.result.output_database`
    at its own threshold) is built once, on the first read that needs it,
    and kept in ``self._output``.  That is safe because a published view
    is immutable: its marginals never change after publish, so the cache
    never goes stale.  Two readers racing the first build each build an
    equal dict and one assignment wins, so no lock is needed.
    """

    __slots__ = ()

    marginals: Mapping[VariableKey, float]
    threshold: float
    _output: dict[str, dict[tuple, float]] | None

    def marginal(self, key: Hashable, default: float | None = None) -> float:
        """The marginal probability of one variable key."""
        value = self.marginals.get(key)
        if value is None:
            if default is not None:
                return default
            raise KeyError(f"no variable {key!r} in this snapshot")
        return value

    def output_tuples(self, relation: str,
                      threshold: float | None = None) -> set[tuple]:
        """Accepted tuples of ``relation`` at ``threshold`` (default: the
        snapshot's own), as a new set the caller may mutate.

        At the snapshot's own threshold this copies one relation of the
        cached output database, O(result); any other threshold scans every
        marginal, O(KB)."""
        if threshold is None or threshold == self.threshold:
            accepted = self._output
            if accepted is None:                 # benign race: idempotent
                accepted = output_database(self.marginals, self.threshold)
                object.__setattr__(self, "_output", accepted)
        else:
            accepted = output_database(self.marginals, threshold)
        return set(accepted.get(relation, ()))

    def top(self, relation: str, k: int = 10) -> list[tuple[tuple, float]]:
        """The ``k`` highest-probability tuples of ``relation``; raises
        :class:`ValueError` for a negative ``k``."""
        if k < 0:
            raise ValueError(f"top needs k >= 0, got {k}")
        entries = [(values, probability)
                   for (name, values), probability in self.marginals.items()
                   if name == relation]
        entries.sort(key=lambda item: (-item[1], item[0]))
        return entries[:k]

    def __len__(self) -> int:
        return len(self.marginals)


@dataclass(frozen=True)
class Snapshot(SnapshotReads):
    """One published version of the extracted knowledge base.

    ``version``
        Monotonic publish counter (bootstrap = 0).
    ``lsn``
        The WAL sequence number whose effects this snapshot includes; a
        recovered service republishes the same (version, lsn) pairs.
    ``marginals``
        Variable key -> marginal probability, for every query variable.
    ``threshold``
        The acceptance threshold :meth:`output_tuples` applies by default;
        the output database at it is built on the first such read and
        cached, which is safe because a published snapshot is immutable.
    ``refresh``
        How this version's marginals were produced: ``"full_run"``,
        ``"sampling"``, ``"variational"``, or ``"none"`` (no touched
        variables — previous marginals carried over).
    ``manifest``
        The :class:`~repro.compliance.manifest.ComplianceManifest` of the
        publish-time scrub that produced this view, or ``None`` when no
        compliance policy was active.  A manifest means the marginal keys
        readers see are the *scrubbed* relabeling; the WAL and checkpoints
        keep the raw ground truth.
    """

    version: int
    lsn: int
    marginals: Mapping[VariableKey, float]
    threshold: float
    refresh: str = "full_run"
    graph_stats: Mapping[str, int] = field(default_factory=dict)
    relation_counts: Mapping[str, int] = field(default_factory=dict)
    manifest: "ComplianceManifest | None" = None
    _output: dict[str, dict[tuple, float]] | None = field(
        default=None, init=False, repr=False, compare=False)
