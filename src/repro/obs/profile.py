"""Run profiles: a span forest plus a metrics snapshot, as data.

:class:`Profile` is what :class:`~repro.core.result.RunResult` carries in
place of the old ad-hoc timing dict: the top-level spans are the pipeline
phases, their subtrees (when tracing is enabled) attribute the time below
them, and the metrics snapshot holds the per-operator counters the engines
recorded.  :class:`PhaseRecorder` is the producer side used by
:class:`~repro.core.app.DeepDive`: cheap two-clock phase spans by default,
full subtree capture when the :class:`~repro.obs.config.EngineConfig`
``trace`` flag is set.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Collector, Span, active, installed


@dataclass
class Profile:
    """Everything observability captured for one run."""

    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def walk(self) -> Iterator[Span]:
        for root in self.spans:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def span_total(self, name: str) -> float:
        """Total inclusive seconds of every span named ``name`` in the
        forest -- e.g. ``span_total("numa.replica")`` sums the time the
        replica chains spent sampling, in process or in pool workers."""
        return sum(span.duration for span in self.walk() if span.name == name)

    def phase_seconds(self) -> dict[str, float]:
        """Top-level span durations summed by name, in first-seen order:
        the seconds per pipeline phase (run history snapshots store them)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def top_spans(self, n: int = 10) -> list[tuple[str, float, int]]:
        """``(name, inclusive_seconds, calls)`` aggregated over the forest,
        largest inclusive time first -- the per-operator breakdown the
        benchmark reports print."""
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.walk():
            seconds[span.name] = seconds.get(span.name, 0.0) + span.duration
            calls[span.name] = calls.get(span.name, 0) + 1
        ranked = sorted(seconds.items(), key=lambda kv: -kv[1])[:n]
        return [(name, secs, calls[name]) for name, secs in ranked]

    def render(self, max_depth: int | None = None,
               metrics_top: int = 12) -> str:
        """Human-readable span tree plus the busiest metric series."""
        lines = [span.render(max_depth=max_depth) for span in self.spans]
        counters = self.metrics.get("counters", {})
        histograms = self.metrics.get("histograms", {})
        if counters or histograms:
            lines.append("metrics:")
            ranked = sorted(counters.items(), key=lambda kv: -kv[1])
            for key, value in ranked[:metrics_top]:
                lines.append(f"  {key} = {value:g}")
            ranked_h = sorted(histograms.items(),
                              key=lambda kv: -kv[1]["count"])
            for key, h in ranked_h[:metrics_top]:
                lines.append(f"  {key}: n={h['count']} mean={h['mean']:.4g} "
                             f"max={h['max']:.4g}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.spans],
                "metrics": self.metrics}

    def write_jsonl(self, path) -> None:
        """Archive the profile: one JSON line per top-level span, then one
        ``{"metrics": ...}`` line -- the CI trace-artifact format."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                json.dump(span.to_dict(), handle, default=str)
                handle.write("\n")
            json.dump({"metrics": self.metrics}, handle, default=str)
            handle.write("\n")


class PhaseRecorder:
    """Accumulates one application's top-level phase spans.

    Untraced (``trace=False``), a phase costs two clock reads -- the same
    price the old ``DeepDive._timings`` dict paid.  Traced, each phase
    installs a :class:`Collector` for its duration so every ``obs.span``
    and metric recorded by the layers below lands under the phase span.

    ``replace=True`` phases (learning, inference) drop prior spans of the
    same name before appending, mirroring the old dict's overwrite
    semantics; accumulating phases (candidate generation) keep every span
    and sum in :meth:`Profile.phase_seconds`.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()

    @contextmanager
    def phase(self, name: str, replace: bool = False, **attributes):
        if self.trace and active() is None:
            collector = Collector(metrics=self.metrics)
            phase_span = Span(name, dict(attributes), start=perf_counter())
            with installed(collector):
                try:
                    yield phase_span
                finally:
                    phase_span.duration = perf_counter() - phase_span.start
                    phase_span.children = collector.roots
                    self._append(phase_span, replace)
        else:
            phase_span = Span(name, dict(attributes), start=perf_counter())
            try:
                yield phase_span
            finally:
                phase_span.duration = perf_counter() - phase_span.start
                self._append(phase_span, replace)

    def _append(self, span: Span, replace: bool) -> None:
        if replace:
            self.spans = [s for s in self.spans if s.name != span.name]
        self.spans.append(span)

    def profile(self) -> Profile:
        """Snapshot the recorded spans and metrics as a :class:`Profile`."""
        return Profile(spans=list(self.spans), metrics=self.metrics.snapshot())
