#!/usr/bin/env python3
"""The KBC benchmark of record: one command for every metric.

Single run (the form ``BENCHMARK.json`` names; the driver's contract)::

    python3 bench/run.py --workload serve-mixed --seed 0 --seconds 6 --trace 0

runs the workload in this process, checks its outputs, prints each metric
with its unit and sample count, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite (any call with ``--repeats`` or without ``--workload``)::

    python3 bench/run.py [--workload NAME] [--seed N] [--repeats R] [--trace]

runs every repeat of every workload in a *fresh subprocess*, adds one traced
run per workload with ``--trace``, and prints median/min/max per metric.
``--selfcheck`` makes two sets of ten runs per workload (seeds 0-9, or
``--repeats`` of them) and fails unless every spread and every shift of a
median stays within the bound ``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: (name, unit, better): what a user of the system sees.  ``op`` and
#: ``work`` are defined per workload (README.md, "End-to-end metrics").
END_TO_END = [
    ("op_p50_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


# ------------------------------------------------------------------ one run
def run_once(name: str, seed: int, seconds: float, trace: bool,
             scale: float = 1.0, setups: int = SETUPS) -> dict:
    """Run one workload in this process.  Returns ``result`` (the contract's
    JSON object), ``info`` (digest, reported-only values) and ``lines``."""
    from bench.harness import WORKLOADS
    from bench.layers import PER_LAYER, layer_metrics, phase_report
    from bench.trace import NullTracer, Tracer, self_times, span_cost
    from bench.workloads import GENERATORS

    # the program reads REPRO_* once per object; a stray variable must not
    # turn its own instrumentation on or change an engine default
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if trace else NullTracer()
    tracer.install()
    workload = None
    setup_times: list[float] = []
    try:
        for attempt in range(setups):
            if workload is not None:
                workload.close()
            started = perf_counter()
            inputs = GENERATORS[name](seed, scale)
            workload = WORKLOADS[name](inputs, workdir / str(attempt), tracer)
            with tracer.span("bench.setup"):
                workload.setup()
            setup_times.append(perf_counter() - started)
        gc.collect()
        tracer.phase = "timed"
        measured = workload.run(seconds)
        # before finish(): its whole-output comparisons are the benchmark's
        # memory, not the program's
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        tracer.phase = "post"
        failed_checks = workload.finish()
    finally:
        if workload is not None:
            workload.close()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if not measured.latencies:
        raise RuntimeError(f"{name}: no operation finished in {seconds}s")

    end_to_end = {
        "op_p50_ms": statistics.median(measured.latencies) * 1e3,
        "work_per_s": measured.work / measured.busy,
        "peak_rss_mb": usage / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    extras = dict(measured.extras)
    extras.update(workload.post_extras)
    failed = measured.failed + len(failed_checks)
    attempted = measured.attempted + workload.checks

    lines = [f"# {name} seed={seed} seconds={seconds:g} scale={scale:g} "
             f"trace={int(trace)}: {len(measured.latencies)} operations, "
             f"work unit = {workload.work_unit}"]
    units = {metric: unit for metric, unit, _ in END_TO_END}
    samples = {"op_p50_ms": len(measured.latencies), "setup_s": setups}
    for metric, value in end_to_end.items():
        lines.append(f"  {metric:<34} {value:>14.4f} {units[metric]:<6} "
                     f"n={samples.get(metric, 1)}"
                     + ("  (traced run)" if trace else ""))
    for metric, (value, unit, n) in sorted(extras.items()):
        lines.append(f"  {metric:<34} {value:>14.4f} {unit:<6} n={n}  "
                     f"(reported only)")
    lines.append(f"  failed_ops {failed} of {attempted}"
                 + (f"; failed checks: {', '.join(failed_checks)}"
                    if failed_checks else ""))

    if trace:
        selfs = self_times(tracer.spans)
        values = layer_metrics(tracer, selfs, measured, workload,
                               span_cost())
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit, _ in PER_LAYER}
        path = OUT_DIR / f"{name}.trace.jsonl"
        tracer.write(path, selfs)
        lines.append(f"  trace: {len(tracer.spans)} spans -> "
                     f"{path.relative_to(ROOT)}")
        lines.extend(phase_report(tracer.spans, selfs))
        for metric, unit, _ in PER_LAYER:
            lines.append(f"  {metric:<38} {values[metric]:>16.6g} {unit}")
    else:
        metrics = {metric: {"value": end_to_end[metric], "unit": unit}
                   for metric, unit, _ in END_TO_END}
    return {
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
        "info": {"workload": name, "seed": seed, "digest": measured.digest,
                 "end_to_end": end_to_end,
                 "extras": {key: value for key, (value, _, _)
                            in extras.items()}},
        "lines": lines,
    }


# -------------------------------------------------------------------- suite
def run_subprocess(name: str, seed: int, seconds: float, trace: bool,
                   scale: float) -> dict:
    """One single run in a fresh interpreter; its info and result lines."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--scale", str(scale)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]),
            "info": json.loads(lines[-2])["info"], "lines": lines[:-2]}


def summary_line(metric: str, found: list[float], note: str) -> str:
    return (f"  {metric:<34} median {statistics.median(found):>12.4f} "
            f"min {min(found):>12.4f} max {max(found):>12.4f} {note} "
            f"n={len(found)}")


def run_suite(names: list[str], seed: int, seconds: float, repeats: int,
              trace: bool, scale: float) -> dict:
    """``{workload: {metric: [values]}}`` plus failures, printed as it goes."""
    units = {metric: unit for metric, unit, _ in END_TO_END}
    summary: dict = {}
    for name in names:
        runs = [run_subprocess(name, seed, seconds, False, scale)
                for _ in range(repeats)]
        failed = sum(run["result"]["failed"] for run in runs)
        digests = {run["info"]["digest"] for run in runs}
        print(f"== {name}: {repeats} untraced run(s), seed {seed}")
        values = {metric: [run["info"]["end_to_end"][metric] for run in runs]
                  for metric, _, _ in END_TO_END}
        for metric, found in values.items():
            print(summary_line(metric, found, units[metric]))
        for metric in sorted(runs[0]["info"]["extras"]):
            found = [run["info"]["extras"][metric] for run in runs
                     if metric in run["info"]["extras"]]
            print(summary_line(metric, found, "(reported only)"))
        if trace:
            traced = run_subprocess(name, seed, seconds, True, scale)
            failed += traced["result"]["failed"]
            digests.add(traced["info"]["digest"])
            print("\n".join(traced["lines"]))
            untraced = statistics.median(values["work_per_s"])
            slower = untraced / traced["info"]["end_to_end"]["work_per_s"] - 1
            print(f"  trace_overhead_pct (work_per_s, untraced median vs "
                  f"traced run) {100 * slower:.2f} %")
        if len(digests) > 1:
            failed += 1
            print(f"  marginals digest differs between runs: {digests}")
        print(f"  failed_ops {failed}")
        summary[name] = {"values": values, "failed": failed}
    return summary


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def selfcheck(names: list[str], seconds: float, runs: int,
              scale: float) -> int:
    """Two sets of ``runs`` runs per workload, one seed each, judged as the
    driver judges the benchmark: every spread but that of ``setup_s`` within
    the metric's bound, no second median worse than the first by more than
    the bound, and no failed operation."""
    spec = {metric["name"]: metric for metric in load_spec()["end_to_end"]}
    sets, offenders = [], []
    for _ in range(2):
        found: dict = {}
        for name in names:
            failed = 0
            for seed in range(runs):
                run = run_subprocess(name, seed, seconds, False, scale)
                failed += run["result"]["failed"]
                for metric, value in run["info"]["end_to_end"].items():
                    found.setdefault((metric, name), []).append(value)
            if failed:
                offenders.append(f"failed_ops@{name}: {failed}")
        sets.append(found)
    for name in names:
        for metric, row in spec.items():
            first, second = (found[metric, name] for found in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if row["better"] == "lower" else (a - b) / a
            spreads = [spread(first), spread(second)]
            steady = metric == "setup_s" or max(spreads) <= row["bound"]
            verdict = "ok" if steady and worse <= row["bound"] else "OUT"
            print(f"selfcheck {metric}@{name}: medians {a:.4f} {b:.4f} "
                  f"({100 * worse:+.1f}% worse), spreads "
                  f"{100 * spreads[0]:.1f}% {100 * spreads[1]:.1f}%, "
                  f"bound {100 * row['bound']:.0f}%: {verdict}")
            if verdict != "ok":
                offenders.append(f"{metric}@{name}")
    print("selfcheck " + (f"FAILED: {', '.join(offenders)}" if offenders
                          else "passed"))
    return 1 if offenders else 0


# ---------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    chosen = [args.workload] if args.workload else names
    if args.selfcheck:
        return selfcheck(chosen, args.seconds, args.repeats or 10, args.scale)
    if args.workload is None or args.repeats is not None:
        summary = run_suite(chosen, args.seed, args.seconds,
                            args.repeats or 3, bool(args.trace), args.scale)
        return 1 if any(row["failed"] for row in summary.values()) else 0
    report = run_once(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale)
    print("\n".join(report["lines"]))
    print(json.dumps({"info": report["info"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    # run as a script, sys.path[0] is bench/: swap it for the repository
    # root, so the benchmark's modules import as ``bench.*`` (bench/trace.py
    # must not shadow the standard library's ``trace``), and add the program
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    if not (ROOT / "src" / "repro").is_dir():
        # never fall back to a ``repro`` installed somewhere else
        sys.exit(f"{__file__}: nothing to measure, {ROOT / 'src' / 'repro'} "
                 f"is not in this checkout")
    sys.exit(main())
