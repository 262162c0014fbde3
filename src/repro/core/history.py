"""Statistical execution history (paper Section 2.5).

"It retains a statistical 'execution history' and can present it to the
user in an easy-to-consume form."  Plus the Section 5.2 requirement that the
error-analysis document carry "checksums of all data products and code" and
references to the versions that produced them.

:class:`RunHistory` records a snapshot per run -- graph shape, weight table,
marginal summary, a content checksum -- and diffs consecutive runs so the
engineer can see exactly what an iteration changed: which features appeared,
which weights moved, and how the output probabilities shifted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.result import RunResult


@dataclass(frozen=True)
class RunSnapshot:
    """One recorded run.

    ``top_spans`` is the profile's per-operator breakdown --
    ``(name, inclusive_seconds, calls)`` tuples -- so history diffs can
    show where time moved between iterations, not just that it moved.
    """

    run_index: int
    label: str
    checksum: str
    graph_stats: dict
    phase_timings: dict
    weights: dict[str, float]
    observations: dict[str, int]
    marginal_mean: float
    accepted: int
    candidates: int
    top_spans: tuple = ()


@dataclass
class RunDiff:
    """What changed between two runs."""

    added_features: list[str] = field(default_factory=list)
    removed_features: list[str] = field(default_factory=list)
    weight_shifts: list[tuple[str, float, float]] = field(default_factory=list)
    phase_shifts: list[tuple[str, float, float]] = field(default_factory=list)
    accepted_before: int = 0
    accepted_after: int = 0

    def render(self, top: int = 10) -> str:
        lines = [f"accepted: {self.accepted_before} -> {self.accepted_after}"]
        for name, before, after in self.phase_shifts[:top]:
            lines.append(f"  phase {name}: {before:.3f}s -> {after:.3f}s")
        if self.added_features:
            lines.append(f"new features ({len(self.added_features)}): "
                         + ", ".join(sorted(self.added_features)[:top]))
        if self.removed_features:
            lines.append(f"removed features ({len(self.removed_features)}): "
                         + ", ".join(sorted(self.removed_features)[:top]))
        shifts = sorted(self.weight_shifts,
                        key=lambda s: -abs(s[2] - s[1]))[:top]
        for key, before, after in shifts:
            lines.append(f"  {key}: {before:+.3f} -> {after:+.3f}")
        return "\n".join(lines)


class RunHistory:
    """Append-only log of run snapshots with diffing."""

    def __init__(self) -> None:
        self._snapshots: list[RunSnapshot] = []

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, index: int) -> RunSnapshot:
        return self._snapshots[index]

    def record(self, result: RunResult, label: str = "") -> RunSnapshot:
        """Snapshot ``result`` and append it to the history."""
        weights = {s.key: s.weight for s in result.feature_stats}
        observations = {s.key: s.observations for s in result.feature_stats}
        marginals = list(result.marginals.values())
        snapshot = RunSnapshot(
            run_index=len(self._snapshots),
            label=label or f"run {len(self._snapshots)}",
            checksum=self._checksum(result, weights),
            graph_stats=dict(result.graph_stats),
            phase_timings=result.profile.phase_seconds(),
            weights=weights,
            observations=observations,
            marginal_mean=(sum(marginals) / len(marginals)) if marginals else 0.0,
            accepted=sum(len(v) for v in result.output.values()),
            candidates=len(result.marginals),
            top_spans=tuple(result.profile.top_spans(10)),
        )
        self._snapshots.append(snapshot)
        return snapshot

    def diff(self, before_index: int = -2, after_index: int = -1) -> RunDiff:
        """Diff two recorded runs (defaults: last two)."""
        before = self._snapshots[before_index]
        after = self._snapshots[after_index]
        before_keys = set(before.weights)
        after_keys = set(after.weights)
        shifts = [(key, before.weights[key], after.weights[key])
                  for key in before_keys & after_keys
                  if abs(before.weights[key] - after.weights[key]) > 1e-9]
        phases = [
            (name, before.phase_timings.get(name, 0.0),
             after.phase_timings.get(name, 0.0))
            for name in dict.fromkeys(
                list(before.phase_timings) + list(after.phase_timings))]
        return RunDiff(
            added_features=sorted(after_keys - before_keys),
            removed_features=sorted(before_keys - after_keys),
            weight_shifts=shifts,
            phase_shifts=phases,
            accepted_before=before.accepted,
            accepted_after=after.accepted,
        )

    def render(self) -> str:
        """One line per recorded run."""
        lines = []
        for snap in self._snapshots:
            lines.append(
                f"[{snap.run_index}] {snap.label}: checksum={snap.checksum} "
                f"candidates={snap.candidates} accepted={snap.accepted} "
                f"weights={len(snap.weights)}")
        return "\n".join(lines)

    @staticmethod
    def _checksum(result: RunResult, weights: dict[str, float]) -> str:
        digest = hashlib.sha256()
        digest.update(repr(sorted(
            (str(k), round(p, 6)) for k, p in result.marginals.items())).encode())
        digest.update(repr(sorted(
            (k, round(w, 6)) for k, w in weights.items())).encode())
        return digest.hexdigest()[:12]
