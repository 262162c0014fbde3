"""repro.obs: zero-dependency tracing, metrics, and engine configuration.

The observability subsystem the engineering loop runs on (paper Sections
2.5 and 5: iteration speed is bounded by introspection).  Three pieces:

* **spans** -- hierarchical timed ``span("layer.op")`` context managers
  collected into trees by a process-local :class:`Collector`, with a
  ``@instrumented`` decorator and near-zero overhead when no collector is
  installed;
* **metrics** -- a :class:`MetricsRegistry` of counters/gauges/histograms
  recorded through the same collector, mergeable across NUMA replicas;
* **config** -- the frozen :class:`EngineConfig` that replaced the old
  ``REPRO_*`` env-var knobs (env vars survive only as fallbacks read once
  by :meth:`EngineConfig.from_env`, in :mod:`repro.obs.config` and nowhere
  else).

Typical use::

    from repro import obs

    collector = obs.Collector(sinks=[obs.JsonlSink("trace.jsonl")])
    with obs.installed(collector):
        with obs.span("grounding.initial_load", backend="columnar") as sp:
            ...
            sp.set(factors=graph.num_factors)
        obs.observe("dred.delta_rows", 17, view="rule::3")
    print(collector.roots[0].render())
"""

from repro.obs.config import (ENV_VARS, VALID_BACKENDS, VALID_PARALLEL_MODES,
                              EngineConfig)
from repro.obs.metrics import HistogramSummary, MetricsRegistry, metric_key
from repro.obs.profile import PhaseRecorder, Profile
from repro.obs.sinks import InMemorySink, JsonlSink, TreePrinterSink
from repro.obs.span import (NULL_SPAN, Collector, NoopCollector, Span,
                            active, adopt, count, enabled, gauge, install,
                            installed, instrumented, observe, span, uninstall)

__all__ = [
    "Collector",
    "ENV_VARS",
    "EngineConfig",
    "HistogramSummary",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NoopCollector",
    "PhaseRecorder",
    "Profile",
    "Span",
    "TreePrinterSink",
    "VALID_BACKENDS",
    "VALID_PARALLEL_MODES",
    "active",
    "adopt",
    "count",
    "enabled",
    "gauge",
    "install",
    "installed",
    "instrumented",
    "metric_key",
    "observe",
    "span",
    "uninstall",
]
