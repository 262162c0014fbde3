"""Span tracer for the KBC benchmark.

The program under test is not edited: :class:`Tracer` wraps its public
callables *from outside*.  Module-level functions are re-bound in every
``repro.*`` module whose attribute ``is`` the original (most are imported
by name, so patching the defining module alone would miss them); methods,
classmethods and properties are re-bound on their class.  ``uninstall``
restores every binding.

A span records name (``<layer>.<what>``), start, end, the span that caused
it, the thread and the benchmark phase (``setup`` / ``timed`` / ``post``).
Each thread keeps its own stack, so the apply-loop thread nests correctly;
a span that starts on a thread with an empty stack (the apply loop, a shard,
the reaper) is parented to the *ambient* span -- the commit the single
closed-loop writer has in flight.  A span's request id is its root
ancestor, so every span of one batch or read shares an id.

Spans and their counts stay in memory until :meth:`Tracer.write`.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover (children on parallel threads are unioned first).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

#: span tuple layout
SID, NAME, START, END, PARENT, THREAD, PHASE, COUNTS = range(8)


# --------------------------------------------------------------------- counts
# Each counter sees (args, kwargs, result) of one finished call and returns
# the work counts recorded on its span.  For methods ``args[0]`` is ``self``.

def _corpus_counts(args, kwargs, result):
    return {"documents": len(args[0]),
            "sentences": sum(len(group) for group in result)}


def _document_counts(args, kwargs, result):
    return {"documents": 1, "sentences": len(result)}


def _extract_counts(args, kwargs, result):
    return {"rows": sum(len(rows) for rows in result.values())}


def _initial_grounding_counts(args, kwargs, result):
    graph = args[0].graph
    return {"factors": len(graph.factors), "variables": len(graph.variables)}


def _delta_grounding_counts(args, kwargs, result):
    return {"factors": result.factors_added + result.factors_removed,
            "variables": result.variables_added + result.variables_removed}


def _learn_counts(args, kwargs, result):
    return {"epochs": result.epochs_run}


def _sample_counts(args, kwargs, result):
    sweeps = (kwargs.get("num_samples", args[1] if len(args) > 1 else 100)
              + kwargs.get("burn_in", args[2] if len(args) > 2 else 20))
    return {"var_samples": args[0].compiled.num_variables * sweeps}


def _refresh_counts(args, kwargs, result):
    # the sampling refresh reports work = region size x sweeps; the
    # variational one has no sweeps, so its changed set stands in
    sweeps = kwargs.get("num_samples", 0) + kwargs.get("burn_in", 0)
    resampled = result.work / sweeps if sweeps else len(args[1])
    return {"resampled_vars": resampled,
            "total_vars": args[0].compiled.num_variables}


def _wal_counts(args, kwargs, result):
    # the record re-encoded exactly as WriteAheadLog.append wrote it (the
    # service passes the batch as a tuple, so it can be walked again)
    record = {"lsn": result, "batch": [op.to_record() for op in args[1]]}
    return {"bytes": len(json.dumps(record)) + 1,
            "fsyncs": int(args[0].fsync)}


def _checkpoint_counts(args, kwargs, result):
    return {"bytes": args[0].last_save_bytes, "checkpoints": 1}


def _scrub_counts(args, kwargs, result):
    return {"cells": sum(report.hits for report in result[1].reports
                         if report.action != "allow")}


def _seal_counts(args, kwargs, result):
    return {"segments": 1, "bytes": result.nbytes}


#: (span name, "module:attribute[.attribute]", counter) -- the layer
#: boundaries.  The first dotted component of the name is the layer.
TARGETS = [
    ("nlp.preprocess", "repro.nlp.pipeline:preprocess_corpus",
     _corpus_counts),
    ("nlp.preprocess", "repro.nlp.pipeline:preprocess_document_rows",
     _document_counts),
    ("extract.run", "repro.core.extractors:run_extractors", _extract_counts),
    ("el.link", "repro.el.linker:link_mentions", None),
    ("ddlog.parse", "repro.ddlog.program:DDlogProgram.parse", None),
    ("datastore.insert", "repro.datastore.database:Database.insert", None),
    ("datastore.insert",
     "repro.datastore.segments:SegmentedRelation.insert_many", None),
    ("datastore.seal", "repro.datastore.segments:write_segment",
     _seal_counts),
    ("datastore.segment_get", "repro.datastore.segments:SegmentCache.get",
     None),
    ("datastore.segment_open", "repro.datastore.segments:open_segment", None),
    ("grounding.initial", "repro.grounding.grounder:Grounder.__init__",
     _initial_grounding_counts),
    ("grounding.delta", "repro.grounding.grounder:Grounder.apply_changes",
     _delta_grounding_counts),
    ("factorgraph.compile",
     "repro.factorgraph.compiled:CompiledGraph.__init__", None),
    ("inference.learn", "repro.inference.learning:learn_weights",
     _learn_counts),
    ("inference.sample", "repro.inference.gibbs:GibbsSampler.marginals",
     _sample_counts),
    ("inference.refresh",
     "repro.grounding.materialization:SamplingMaterialization.update",
     _refresh_counts),
    ("inference.refresh",
     "repro.grounding.materialization:VariationalMaterialization.update",
     _refresh_counts),
    ("parallel.dispatch", "repro.parallel.warm:WorkerPool.map", None),
    ("compliance.scrub", "repro.compliance.apply:scrub_marginals",
     _scrub_counts),
    ("serve.wal_append", "repro.serve.wal:WriteAheadLog.append", _wal_counts),
    ("serve.apply", "repro.serve.engine:ServeEngine.apply_batch", None),
    ("serve.checkpoint", "repro.serve.checkpoint:CheckpointManager.save",
     _checkpoint_counts),
    ("serve.recover_load", "repro.serve.checkpoint:CheckpointManager.load",
     None),
    ("serve.recover_load", "repro.serve.engine:ServeEngine.restore", None),
    ("serve.read_query", "repro.serve.client:KBClient.query", None),
    ("serve.read_top", "repro.serve.client:KBClient.top", None),
    ("serve.read_marginal", "repro.serve.client:KBClient.marginal", None),
    ("serve.read_snapshot_at", "repro.serve.client:KBClient.snapshot_at",
     None),
    ("serve.route", "repro.serve.shard:route_ops", None),
    ("serve.merge", "repro.serve.shard:MergedSnapshot.marginals", None),
    ("serve.reaper_wait", "repro.serve.service:PendingCommit.wait", None),
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.ambient: int | None = None
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, ambient: bool = False):
        """A span opened by the benchmark itself.  ``ambient=True`` makes it
        the parent of spans that start on threads with an empty stack."""
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        sid = next(self._ids)
        phase = self.phase
        stack.append(sid)
        if ambient:
            self.ambient = sid
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            if ambient:
                self.ambient = None
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), phase, None))

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span around every call."""
        spans = self.spans
        ids = self._ids
        get_stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else self.ambient
            sid = next(ids)
            phase = self.phase
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(), phase, {"failed": 1}))
                raise
            end = perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans.append((sid, name, start, end, parent,
                          threading.get_ident(), phase, counts))
            return result

        return traced

    # -------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every :data:`TARGETS` callable; idempotent per tracer."""
        if self._patches:
            return
        for name, target, counter in TARGETS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if not owner_path:
                self._patch_function(module, attr, name, counter)
            else:
                owner = module
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                self._patch_class_attribute(owner, attr, name, counter)

    def _patch_function(self, module, attr, name, counter) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, counter)
        for module_name, candidate in list(sys.modules.items()):
            if candidate is None or not (module_name == "repro"
                                         or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._patches.append((candidate, key, original))
                    setattr(candidate, key, traced)

    def _patch_class_attribute(self, owner, attr, name, counter) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, counter))
        elif isinstance(raw, staticmethod):
            traced = staticmethod(self.wrap(name, raw.__func__, counter))
        elif isinstance(raw, property):
            traced = property(self.wrap(name, raw.fget, counter),
                              raw.fset, raw.fdel, raw.__doc__)
        else:
            traced = self.wrap(name, raw, counter)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._patches]

    # --------------------------------------------------------------- reports
    def write(self, path, selfs: dict[int, float]) -> None:
        """One JSON object per span, in end order; ``selfs`` is
        :func:`self_times` of the spans."""
        parents = {span[SID]: span[PARENT] for span in self.spans}
        origin = min((span[START] for span in self.spans), default=0.0)

        def request_of(sid: int) -> int:
            while parents.get(sid) is not None:
                sid = parents[sid]
            return sid

        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                record = {
                    "id": span[SID], "name": span[NAME],
                    "layer": span[NAME].split(".")[0],
                    "phase": span[PHASE], "thread": span[THREAD],
                    "start": span[START] - origin, "end": span[END] - origin,
                    "self": selfs[span[SID]],
                    "parent": span[PARENT], "request": request_of(span[SID]),
                }
                if span[COUNTS]:
                    record["counts"] = span[COUNTS]
                stream.write(json.dumps(record) + "\n")


class NullTracer:
    """Tracing off: ``span`` costs one ``nullcontext`` and nothing is kept."""

    enabled = False

    def span(self, name: str, ambient: bool = False):
        return nullcontext()

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs beyond the bare call, measured on a
    no-op with a throwaway tracer."""
    def noop():
        return None

    traced = Tracer().wrap("trace.calibrate", noop)
    started = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - started
    started = perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (perf_counter() - started - bare) / calls)


def self_times(spans: list[tuple],
               exclude: tuple[str, ...] = ()) -> dict[int, float]:
    """Span id -> self seconds (duration minus child coverage).  Children
    named in ``exclude`` do not count as coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None and span[NAME] not in exclude:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span[SID], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span[SID]] = (end - start) - covered
    return result


def layer_table(spans: list[tuple],
                selfs: dict[int, float]) -> dict[tuple[str, str], dict]:
    """(phase, span name) -> calls, total and self seconds, summed counts."""
    table: dict[tuple[str, str], dict] = {}
    for span in spans:
        row = table.setdefault((span[PHASE], span[NAME]),
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "counts": defaultdict(float)})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += selfs[span[SID]]
        for key, value in (span[COUNTS] or {}).items():
            row["counts"][key] += value
    return table


def attributed_share(spans: list[tuple], selfs: dict[int, float],
                     thread: int, phase: str = "timed") -> float:
    """Share of the root spans' time on ``thread`` in ``phase`` that named
    layer spans account for (``bench.*`` self time is unattributed)."""
    wall = sum(span[END] - span[START] for span in spans
               if span[PARENT] is None and span[THREAD] == thread
               and span[PHASE] == phase)
    if wall <= 0.0:
        return 0.0
    parents = {span[SID]: span for span in spans}

    def on_thread_tree(span) -> bool:
        while span[PARENT] is not None:
            span = parents[span[PARENT]]
        return span[THREAD] == thread and span[PHASE] == phase

    unattributed = sum(selfs[span[SID]] for span in spans
                       if span[NAME].startswith("bench.")
                       and on_thread_tree(span))
    return 1.0 - unattributed / wall
