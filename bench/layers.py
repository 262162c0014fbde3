"""Per-layer metrics: what the traced run reports, and how each is derived
from the spans.

Every metric is reported by every workload (0 where the layer did no work),
over the *timed* section unless its row says otherwise.  ``*_s`` metrics
are self seconds: the layer's spans minus what their child spans cover.
README.md lists the end-to-end metric each of these should move.
"""

from __future__ import annotations

import statistics

from bench.trace import (END, NAME, PARENT, PHASE, SID, START,
                         attributed_share, layer_table, self_times)

#: (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("nlp.preprocess_s", "s", "lower"),
    ("nlp.sentences", "count", "higher"),
    ("extract.run_s", "s", "lower"),
    ("extract.rows", "count", "higher"),
    ("datastore.insert_s", "s", "lower"),
    ("datastore.seal_s", "s", "lower"),
    ("datastore.segments_written", "count", "lower"),
    ("datastore.bytes_written_per_user_byte", "B/B", "lower"),
    ("datastore.segment_cache_hit_rate", "%", "higher"),
    ("grounding.initial_s", "s", "lower"),
    ("grounding.factors", "count", "lower"),
    ("grounding.delta_s", "s", "lower"),
    ("grounding.delta_factors", "count", "lower"),
    ("factorgraph.compile_s", "s", "lower"),
    ("factorgraph.compiles", "count", "lower"),
    ("inference.learn_s", "s", "lower"),
    ("inference.epochs", "count", "higher"),
    ("inference.sample_s", "s", "lower"),
    ("inference.var_samples_per_s", "1/s", "higher"),
    ("inference.refresh_s", "s", "lower"),
    ("inference.resampled_share", "%", "lower"),
    ("parallel.dispatch_s", "s", "lower"),
    ("compliance.scrub_s", "s", "lower"),
    ("compliance.cells_scrubbed", "count", "lower"),
    ("serve.wal_append_s", "s", "lower"),
    ("serve.wal_fsyncs", "count", "lower"),
    ("serve.wal_bytes_per_user_byte", "B/B", "lower"),
    ("serve.apply_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.checkpoint_s", "s", "lower"),
    ("serve.checkpoint_bytes", "B", "lower"),
    ("serve.checkpoint_stall_ms", "ms", "lower"),
    ("serve.recover_load_s", "s", "lower"),
    ("serve.recover_replay_s", "s", "lower"),
    ("serve.replayed_records", "count", "lower"),
    ("serve.read_query_us", "us", "lower"),
    ("serve.read_top_us", "us", "lower"),
    ("serve.read_marginal_us", "us", "lower"),
    ("serve.read_snapshot_at_us", "us", "lower"),
    ("serve.rows_examined_per_returned", "1/1", "lower"),
    ("serve.route_s", "s", "lower"),
    ("serve.merge_s", "s", "lower"),
    ("serve.reaper_wait_s", "s", "lower"),
    ("serve.shard_skew", "x", "lower"),
    ("trace.attributed_pct", "%", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, selfs, measured, workload,
                  span_cost: float) -> dict:
    """Metric name -> value for one traced run; ``selfs`` is
    :func:`bench.trace.self_times` of the tracer's spans."""
    spans = tracer.spans
    table = layer_table(spans, selfs)

    def row(name: str, *phases: str) -> dict:
        merged = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        for phase in phases or ("timed",):
            found = table.get((phase, name))
            if found is None:
                continue
            for key in ("calls", "total_s", "self_s"):
                merged[key] += found[key]
            for key, value in found["counts"].items():
                merged["counts"][key] = merged["counts"].get(key, 0) + value
        return merged

    def self_s(name: str, *phases: str) -> float:
        return row(name, *phases)["self_s"]

    def count(name: str, key: str, *phases: str) -> float:
        return row(name, *phases)["counts"].get(key, 0)

    def mean_us(name: str) -> float:
        found = row(name)
        return _ratio(found["self_s"], found["calls"]) * 1e6

    facts = measured.facts
    user_bytes = facts.get("user_bytes", 0)
    both = ("timed", "post")
    gets = row("datastore.segment_get", *both)["calls"]
    by_id = {span[SID]: span for span in spans}
    misses = sum(1 for span in spans
                 if span[NAME] == "datastore.segment_open"
                 and span[PHASE] in both and span[PARENT] in by_id
                 and by_id[span[PARENT]][NAME] == "datastore.segment_get")
    sample = row("inference.sample")
    refresh = row("inference.refresh")
    replay = [span for span in spans
              if span[NAME] == "serve.apply" and span[PHASE] == "post"]
    timed_spans = sum(1 for span in spans if span[PHASE] == "timed")
    values = {
        "nlp.preprocess_s": self_s("nlp.preprocess"),
        "nlp.sentences": count("nlp.preprocess", "sentences"),
        "extract.run_s": self_s("extract.run"),
        "extract.rows": count("extract.run", "rows"),
        "datastore.insert_s": self_s("datastore.insert"),
        "datastore.seal_s": self_s("datastore.seal"),
        "datastore.segments_written": count("datastore.seal", "segments"),
        "datastore.bytes_written_per_user_byte": _ratio(
            count("datastore.seal", "bytes"), user_bytes),
        "datastore.segment_cache_hit_rate": 100.0 * _ratio(gets - misses,
                                                           gets),
        "grounding.initial_s": self_s("grounding.initial"),
        "grounding.factors": count("grounding.initial", "factors"),
        "grounding.delta_s": self_s("grounding.delta"),
        "grounding.delta_factors": count("grounding.delta", "factors"),
        "factorgraph.compile_s": self_s("factorgraph.compile"),
        "factorgraph.compiles": row("factorgraph.compile")["calls"],
        "inference.learn_s": self_s("inference.learn"),
        "inference.epochs": count("inference.learn", "epochs"),
        "inference.sample_s": sample["self_s"],
        "inference.var_samples_per_s": _ratio(
            sample["counts"].get("var_samples", 0), sample["self_s"]),
        "inference.refresh_s": refresh["self_s"],
        "inference.resampled_share": 100.0 * _ratio(
            refresh["counts"].get("resampled_vars", 0),
            refresh["counts"].get("total_vars", 0)),
        "parallel.dispatch_s": self_s("parallel.dispatch"),
        "compliance.scrub_s": self_s("compliance.scrub"),
        "compliance.cells_scrubbed": count("compliance.scrub", "cells"),
        "serve.wal_append_s": self_s("serve.wal_append"),
        "serve.wal_fsyncs": count("serve.wal_append", "fsyncs"),
        "serve.wal_bytes_per_user_byte": _ratio(
            count("serve.wal_append", "bytes"), user_bytes),
        "serve.apply_s": self_s("serve.apply"),
        "serve.queue_wait_s": _queue_wait_s(spans),
        "serve.checkpoint_s": self_s("serve.checkpoint", *both),
        "serve.checkpoint_bytes": count("serve.checkpoint", "bytes", *both),
        "serve.checkpoint_stall_ms": _checkpoint_stall_ms(spans),
        "serve.recover_load_s": row("serve.recover_load", "post")["total_s"],
        "serve.recover_replay_s": sum(s[END] - s[START] for s in replay),
        "serve.replayed_records": len(replay),
        "serve.read_query_us": mean_us("serve.read_query"),
        "serve.read_top_us": mean_us("serve.read_top"),
        "serve.read_marginal_us": mean_us("serve.read_marginal"),
        "serve.read_snapshot_at_us": mean_us("serve.read_snapshot_at"),
        "serve.rows_examined_per_returned": _ratio(
            facts.get("rows_examined", 0), facts.get("rows_returned", 0)),
        "serve.route_s": self_s("serve.route"),
        "serve.merge_s": self_s("serve.merge"),
        "serve.reaper_wait_s": self_s("serve.reaper_wait"),
        "serve.shard_skew": getattr(workload, "shard_skew", 0.0),
        "trace.attributed_pct": 100.0 * attributed_share(
            spans, selfs, tracer.main_thread),
        "trace.overhead_pct": 100.0 * _ratio(timed_spans * span_cost,
                                             measured.busy),
    }
    assert list(values) == [name for name, _, _ in PER_LAYER]
    return values


def _queue_wait_s(spans) -> float:
    """What is left of the commits once WAL append, apply and the router are
    taken out: queueing and thread hand-off.  The reaper's wait spans the
    whole commit on a sharded service, so it does not count as coverage."""
    selfs = self_times(spans, exclude=("serve.reaper_wait",))
    return sum(selfs[span[SID]] for span in spans
               if span[NAME] == "serve.commit" and span[PHASE] == "timed")


def _checkpoint_stall_ms(spans) -> float:
    """Median latency of commits that overlapped a checkpoint minus the
    median of those that did not: the foreground stall a checkpoint costs."""
    checkpoints = [(s[START], s[END]) for s in spans
                   if s[NAME] == "serve.checkpoint" and s[PHASE] == "timed"]
    stalled, clear = [], []
    for span in spans:
        if span[NAME] != "serve.commit":
            continue
        overlaps = any(start < span[END] and end > span[START]
                       for start, end in checkpoints)
        (stalled if overlaps else clear).append(span[END] - span[START])
    if not stalled or not clear:
        return 0.0
    return (statistics.median(stalled) - statistics.median(clear)) * 1e3


def phase_report(spans, selfs) -> list[str]:
    """Human-readable self-time table by phase, largest first."""
    lines = []
    table = layer_table(spans, selfs)
    for phase in ("setup", "timed", "post"):
        rows = [(name, found) for (p, name), found in table.items()
                if p == phase]
        if not rows:
            continue
        lines.append(f"  [{phase}]")
        for name, found in sorted(rows, key=lambda item: -item[1]["self_s"]):
            counts = " ".join(f"{key}={value:g}" for key, value
                              in sorted(found["counts"].items()))
            lines.append(f"    {name:<26} calls={found['calls']:<7} "
                         f"self={found['self_s']:.4f}s "
                         f"total={found['total_s']:.4f}s {counts}")
    return lines
