"""Hierarchical timed spans and the process-local collector.

The tracing contract is built for hot paths: every instrumentation site
(``span(...)``, ``count(...)``, ``observe(...)``, ``gauge(...)``) first
checks whether an *enabled* collector is installed, and when none is, does
nothing beyond that check.  The overhead guard in ``tests/obs`` holds a
traced-but-disabled full pipeline run to within 5% of one with no collector
installed at all.

Span names follow a dotted ``layer.operation`` scheme (``grounding.
initial_load``, ``gibbs.marginals``, ``dred.materialize``); attributes carry
the operational facts a developer needs to attribute cost -- rows in/out,
backend chosen, colors swept, NUMA replica.  See the developer guide's
observability section for the naming table.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry


@dataclass
class Span:
    """One timed operation: a node in the trace tree."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def set(self, **attributes) -> None:
        """Attach attributes to the span (rows in/out, backend, ...)."""
        self.attributes.update(attributes)

    @property
    def exclusive(self) -> float:
        """Self time: inclusive duration minus the children's durations."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-serializable form (what the JSONL sink writes)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0, max_depth: int | None = None) -> str:
        """Human tree rendering: ``name  12.3ms  {attrs}`` per line."""
        attrs = ""
        if self.attributes:
            inner = ", ".join(f"{k}={v}" for k, v in self.attributes.items())
            attrs = f"  {{{inner}}}"
        lines = [f"{'  ' * indent}{self.name}  "
                 f"{self.duration * 1000:.1f}ms{attrs}"]
        if max_depth is None or indent < max_depth:
            for child in self.children:
                lines.append(child.render(indent + 1, max_depth))
        return "\n".join(lines)


class _NullSpan:
    """Shared do-nothing span yielded when no collector is active."""

    __slots__ = ()

    def set(self, **attributes) -> None:
        pass


NULL_SPAN = _NullSpan()


class Collector:
    """Accumulates a span forest and a metrics registry for one trace.

    ``sinks`` receive every completed *root* span (so a sink sees whole
    trees, not fragments) -- see :mod:`repro.obs.sinks`.
    """

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None,
                 sinks: tuple = ()) -> None:
        self.roots: list[Span] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks = list(sinks)
        self._local = threading.local()

    @property
    def _stack(self) -> list["Span"]:
        # per-thread nesting stacks: the serving layer opens reader spans on
        # arbitrary threads while the apply loop holds its own open spans;
        # sharing one stack would splice those trees together.  Each
        # thread's roots still land in the shared ``roots`` list (list
        # append is atomic under the GIL).
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(self, name: str, attributes: dict) -> Span:
        span = Span(name, attributes, start=perf_counter())
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.duration = perf_counter() - span.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
            for sink in self.sinks:
                sink.on_span(span)

    def adopt(self, spans: list[Span],
              metrics: MetricsRegistry | None = None) -> None:
        """Graft completed span trees from another process into this trace.

        The worker-process trees attach under the currently open span (or
        become roots when none is open) and ``metrics`` -- a worker's
        registry shipped back over the result queue -- folds into this
        collector's registry, so per-process instrumentation lands in the
        same profile the parent run produces.
        """
        parent = self._stack[-1] if self._stack else None
        for span in spans:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
                for sink in self.sinks:
                    sink.on_span(span)
        if metrics is not None:
            self.metrics.merge(metrics)


class NoopCollector:
    """A collector-shaped object that records nothing.

    Installing it keeps every instrumentation site on its fast path
    (``enabled`` is false), which is exactly what the overhead guard
    measures: the cost of having the probes in the code at all.
    """

    enabled = False
    roots: list[Span] = []

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()


# ------------------------------------------------------- process-local state
_active: Collector | None = None


def active() -> Collector | None:
    """The currently installed collector (or None)."""
    return _active


def enabled() -> bool:
    """True when spans and metrics are actually being recorded."""
    collector = _active
    return collector is not None and collector.enabled


def install(collector) -> None:
    """Install ``collector`` as the process-local trace destination."""
    global _active
    _active = collector


def uninstall() -> None:
    global _active
    _active = None


@contextmanager
def installed(collector) -> Iterator:
    """Scope a collector installation (restores the previous one)."""
    global _active
    previous = _active
    _active = collector
    try:
        yield collector
    finally:
        _active = previous


@contextmanager
def span(name: str, **attributes) -> Iterator:
    """Open a timed span named ``name``; nests under any open span.

    With no enabled collector installed this yields a shared null span and
    records nothing -- the hot-path contract.
    """
    collector = _active
    if collector is None or not collector.enabled:
        yield NULL_SPAN
        return
    opened = collector.start_span(name, attributes)
    try:
        yield opened
    finally:
        collector.end_span(opened)


def adopt(spans: list[Span], metrics: MetricsRegistry | None = None) -> bool:
    """Merge worker-process spans/metrics into the active collector.

    Returns True when a collector was enabled and absorbed them; False (and
    records nothing) otherwise -- the same hot-path contract as ``span``.
    """
    collector = _active
    if collector is None or not collector.enabled:
        return False
    collector.adopt(spans, metrics)
    return True


# ------------------------------------------------------------ metric helpers
def count(name: str, value: float = 1, **labels) -> None:
    """Increment a counter on the active collector's registry (if enabled)."""
    collector = _active
    if collector is not None and collector.enabled:
        collector.metrics.count(name, value, **labels)


def gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the active collector's registry (if enabled)."""
    collector = _active
    if collector is not None and collector.enabled:
        collector.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation on the active registry (if enabled)."""
    collector = _active
    if collector is not None and collector.enabled:
        collector.metrics.observe(name, value, **labels)
