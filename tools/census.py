#!/usr/bin/env python3
"""Call census: which functions under ``src/repro`` no program ever runs.

    python tools/census.py [--all]

runs every program that exercises the system -- the six ``bench/run.py``
workloads (3 s each, seed 0), the seven ``examples/`` and ``pytest
benchmarks`` (E1-E19, timed as CI times them) -- each in a fresh
interpreter under ``sys.setprofile`` and ``threading.setprofile``, inside a
temporary copy of the tree (``pytest benchmarks`` rewrites
``benchmarks/results/`` and ``bench/run.py`` writes ``bench/out/``; the
copy keeps both out of the checkout).  Each profiled call is keyed by its
code object's (file, first line), which is the line of a function's first
decorator or else its ``def``, so it maps onto the ``ast`` definitions
without ``co_qualname``, which Python 3.10 lacks.

A function *never ran* if no call reached it; one nested in a function
that never ran is counted with its parent.  Every never-run function must
match an entry of ``tools/census_keep.txt``: a ``module:qualname`` glob
(``module`` is the path under ``src/repro`` without ``.py``) and one reason
from :data:`REASONS` or an open roadmap item (``item-N``, not in
:data:`CLOSED_ITEMS`).  The tool prints the never-run functions no entry
matches and the entries that match none, and exits 1 if there are any; its
closing line adds the functions/lines each reason keeps.  It needs only the
standard library, and takes about five minutes on a 2-vCPU machine.

``--all`` lists every never-run function with the reason that keeps it.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
KEEP_LIST = ROOT / "tools" / "census_keep.txt"

#: Why a never-run function stays (the keep-list's header says what each
#: means), besides ``item-N``: roadmap item N owns the code.
REASONS = ("oracle", "error-path", "api", "child-process")
ITEM_REASON = re.compile(r"item-\d+")
#: Roadmap items whose candidates are all decided: they keep nothing, so a
#: new never-run function needs a reason above or an open item.
CLOSED_ITEMS = ("item-19",)

WORKLOADS = ("batch-spouse", "infer-joint", "serve-mixed", "serve-read",
             "serve-sharded", "stream-ingest")


def programs(root: pathlib.Path) -> list[tuple[str, list[str]]]:
    """``(name, argv after the interpreter)`` of every census program."""
    runs = [(f"bench {name}", ["bench/run.py", "--workload", name, "--seed",
                               "0", "--seconds", "3", "--trace", "0"])
            for name in WORKLOADS]
    runs += [(f"example {path.stem}", [f"examples/{path.name}"])
             for path in sorted((root / "examples").glob("*.py"))]
    runs.append(("pytest benchmarks",
                 ["-m", "pytest", "benchmarks", "-q", "-p",
                  "no:cacheprovider"]))
    return runs


# ---------------------------------------------------------------- profiling
def trace(out: str, argv: list[str]) -> None:
    """Run ``argv`` (a script path, or ``-m module ...``) in this process
    under the profile hooks; write the ``[file, first line]`` pairs of
    every code object under ``src/repro`` that was called to ``out``."""
    import runpy
    import threading

    prefix = str(pathlib.Path("src", "repro").resolve()) + os.sep
    seen: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_firstlineno))

    # sys.path[0] as the interpreter would have set it for ``argv``
    if argv[0] == "-m":
        sys.argv = argv[1:]
        sys.path[0] = os.getcwd()
    else:
        sys.argv = argv
        sys.path[0] = str(pathlib.Path(argv[0]).resolve().parent)
    # pytest-benchmark pauses profilers around every timed call: whatever
    # the program asks for, the hook stays installed
    setprofile = sys.setprofile
    sys.setprofile = lambda function: setprofile(hook)
    threading.setprofile(hook)
    setprofile(hook)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        setprofile(None)
        threading.setprofile(None)
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(sorted(seen), stream)


def run_all(root: pathlib.Path) -> set[tuple[str, int]]:
    """``(module, first line)`` of every function any program called, each
    program run in a fresh interpreter inside a temporary copy of ``root``."""
    called: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        tree = pathlib.Path(scratch).resolve() / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".benchmarks", ".bench_build"))
        shutil.rmtree(tree / "bench" / "out", ignore_errors=True)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tree / "src"), str(tree / "benchmarks")])
        source = tree / "src" / "repro"
        for index, (name, argv) in enumerate(programs(tree)):
            out = pathlib.Path(scratch) / f"calls-{index}.json"
            print(f"census: running {name}", file=sys.stderr, flush=True)
            done = subprocess.run(
                [sys.executable, str(tree / "tools" / "census.py"),
                 "--trace", str(out), "--", *argv],
                cwd=tree, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, timeout=3600)
            if not out.exists():
                raise RuntimeError(f"{name} left no census (exit "
                                   f"{done.returncode}):\n{done.stdout}")
            if done.returncode:
                print(f"census: {name} exited {done.returncode}; its calls "
                      f"still count.  Its output ends:\n"
                      f"{done.stdout[-1500:]}", file=sys.stderr)
            for filename, line in json.loads(out.read_text("utf-8")):
                called.add((module_name(pathlib.Path(filename), source),
                            line))
    return called


# -------------------------------------------------------------- definitions
def module_name(path: pathlib.Path, source: pathlib.Path) -> str:
    """``serve/shard`` for ``<source>/serve/shard.py``."""
    return path.relative_to(source).with_suffix("").as_posix()


def definitions(source: pathlib.Path = ROOT / "src" / "repro") -> list[dict]:
    """Every function under ``source``: ``module``, ``qualname`` (Python's,
    ``<locals>`` included), ``start`` (first decorator or ``def`` line),
    ``lines`` and ``parent`` (the enclosing function's index, or None)."""
    found: list[dict] = []

    def visit(node, module, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found.append({"module": module,
                              "qualname": prefix + child.name,
                              "start": start,
                              "lines": child.end_lineno - start + 1,
                              "parent": parent})
                visit(child, module, f"{prefix}{child.name}.<locals>.",
                      len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", parent)
            else:
                visit(child, module, prefix, parent)

    for path in sorted(source.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              module_name(path, source), "", None)
    return found


# ---------------------------------------------------------------- keep-list
def read_keep_list(path: pathlib.Path = KEEP_LIST) -> list[tuple[str, str]]:
    """``(pattern, reason)`` per entry; ``#`` starts a comment."""
    entries = []
    for number, raw in enumerate(path.read_text("utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path.name}:{number}: want "
                             f"'module:qualname reason', got {raw!r}")
        entries.append((fields[0], fields[1]))
    return entries


def valid_reason(reason: str) -> bool:
    return reason in REASONS or (ITEM_REASON.fullmatch(reason) is not None
                                 and reason not in CLOSED_ITEMS)


def never_run(functions: list[dict],
              called: set[tuple[str, int]]) -> list[dict]:
    """Functions no call reached, except those nested in one that never
    ran (counted in their parent's lines)."""
    missed = [(f["module"], f["start"]) not in called for f in functions]
    return [f for i, f in enumerate(functions) if missed[i]
            and (f["parent"] is None or not missed[f["parent"]])]


def judge(functions: list[dict], called: set[tuple[str, int]],
          entries: list[tuple[str, str]], show_all: bool) -> int:
    """Print the verdict; 1 if a never-run function has no entry or an
    entry matches no never-run function (the first match gives the
    reason), else 0."""
    missed = never_run(functions, called)
    names = [f"{f['module']}:{f['qualname']}" for f in missed]
    matches = {entry: [name for name in names
                       if fnmatch.fnmatchcase(name, entry[0])]
               for entry in entries}
    keeper = {}
    for entry in entries:
        for name in matches[entry]:
            keeper.setdefault(name, entry)
    unlisted = [f for f, name in zip(missed, names) if name not in keeper]
    stale = [entry for entry in entries if not matches[entry]]
    bad = [entry for entry in entries if not valid_reason(entry[1])]
    for f, name in zip(missed, names):
        if show_all or name not in keeper:
            kept = keeper.get(name)
            print(f"{name:<72} {f['lines']:>4} lines  "
                  f"{kept[1] if kept else 'UNLISTED'}")
    for pattern, reason in stale:
        print(f"stale keep-list entry (matches no never-run function): "
              f"{pattern} {reason}")
    for pattern, reason in bad:
        print(f"unknown reason {reason!r} for {pattern}")
    by_reason: dict[str, list[int]] = {}
    for f, name in zip(missed, names):
        if name in keeper:
            tally = by_reason.setdefault(keeper[name][1], [0, 0])
            tally[0] += 1
            tally[1] += f["lines"]
    print(f"census: {len(functions)} functions under src/repro, "
          f"{len(missed)} never ran ({sum(f['lines'] for f in missed)} "
          f"lines); {len(missed) - len(unlisted)} kept, {len(unlisted)} "
          f"unlisted, {len(stale)} stale entries; by reason (functions/"
          f"lines): " + ", ".join(
              f"{reason} {count}/{lines}" for reason, (count, lines)
              in sorted(by_reason.items(), key=lambda item: -item[1][1])))
    return 1 if unlisted or stale or bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true",
                        help="list every never-run function")
    parser.add_argument("--trace", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace:
        trace(args.trace, args.argv[1:] if args.argv[:1] == ["--"]
              else args.argv)
        return 0
    return judge(definitions(), run_all(ROOT), read_keep_list(), args.all)


if __name__ == "__main__":
    sys.exit(main())
