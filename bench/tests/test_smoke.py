"""Smoke test of the benchmark itself: every workload, traced and untraced,
at a fraction of its size, in-process.

Run with ``python -m pytest bench/tests -q``; tier-1 ``testpaths`` does not
include this directory.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from bench import run as bench_run  # noqa: E402
from bench.layers import PER_LAYER  # noqa: E402
from bench.trace import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: half size: below it the spouse corpora are too small for the F1 floor
#: (the issue's --scale 0.02 was relative to sizes several times these)
SCALE = 0.5


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_workload_meets_the_contract(name, trace):
    report = bench_run.run_once(name, seed=1, seconds=0.5, trace=trace,
                                scale=SCALE, setups=1)
    result = json.loads(json.dumps(report["result"]))   # JSON-serializable
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0            # never-zero metrics
    if trace:
        path = ROOT / "bench" / "out" / f"{name}.trace.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert {"id", "name", "layer", "phase", "start", "end", "parent",
                "request", "self"} <= set(spans[0])
        assert any(span["phase"] == "timed" for span in spans)


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == PER_LAYER
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == bench_run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["bench"]


def test_same_seed_same_inputs_other_seed_other_inputs():
    from bench.workloads import GENERATORS
    for name, generate in GENERATORS.items():
        first, again, other = (generate(0, SCALE), generate(0, SCALE),
                               generate(1, SCALE))
        if name == "stream-ingest":
            first, again, other = (list(found.documents(2))
                                   for found in (first, again, other))
        assert repr(first) == repr(again), name
        assert repr(first) != repr(other), name


def test_tracer_restores_every_patched_binding():
    def bindings():
        found = {}
        for module_name, module in list(sys.modules.items()):
            if module is not None and module_name.split(".")[0] == "repro":
                for key, value in vars(module).items():
                    if callable(value) or isinstance(value, property):
                        found[module_name, key] = value
                    if isinstance(value, type):
                        for attr, raw in vars(value).items():
                            found[module_name, key, attr] = raw
        return found

    tracer = Tracer()
    tracer.install()             # imports every target module
    assert len(tracer.patched) >= len(TARGETS)
    tracer.uninstall()
    assert tracer.patched == []
    clean = bindings()
    tracer.install()
    try:
        during = bindings()
    finally:
        tracer.uninstall()
    assert any(during[key] is not value for key, value in clean.items()), \
        "install() re-bound nothing"
    # a first uninstall() that restored nothing would have left wrappers in
    # ``clean``, which the second install() wraps again: caught here too
    after = bindings()
    assert [key for key, value in after.items()
            if clean.get(key) is not value] == []
