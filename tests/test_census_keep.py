"""The call census's keep-list stays honest between census runs.

``tools/census.py`` runs every workload, example and figure under a
profiler, which takes minutes, so it is re-run by hand rather than here.
This check is static and fast: every entry of ``tools/census_keep.txt``
names functions that exist under ``src/repro`` and gives one of the fixed
reasons, so deleting a kept function cannot leave its entry behind.
"""

import fnmatch
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "tools" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_every_entry_names_existing_functions_and_a_known_reason():
    census = load_census()
    names = [f"{f['module']}:{f['qualname']}" for f in census.definitions()]
    entries = census.read_keep_list()
    assert entries
    patterns = [pattern for pattern, _ in entries]
    assert len(set(patterns)) == len(patterns), "duplicate entries"
    missing = [pattern for pattern in patterns
               if not any(fnmatch.fnmatchcase(name, pattern)
                          for name in names)]
    assert not missing, f"entries naming no function under src/repro: " \
        f"{missing}"
    unknown = [(pattern, reason) for pattern, reason in entries
               if not census.valid_reason(reason)]
    assert not unknown, f"entries with an unknown reason: {unknown}"


def test_closed_item_keeps_nothing():
    """Item 19's candidates are all deleted or kept for a stated reason,
    so ``item-19`` is no reason any more; other items still are."""
    census = load_census()
    assert not census.valid_reason("item-19")
    assert census.valid_reason("item-15") and census.valid_reason("api")
    assert "item-19" not in {reason for _, reason in census.read_keep_list()}


def test_paper_is_no_reason():
    """Each paper feature got a caller that checks its output or left
    ``src/``, so ``paper`` keeps nothing; test oracles live under
    ``tests/`` and ``oracle`` stays a reason for the ones to come."""
    census = load_census()
    assert not census.valid_reason("paper")
    assert census.valid_reason("oracle")
    assert "paper" not in {reason for _, reason in census.read_keep_list()}


def test_closing_line_totals_each_reason(capsys):
    census = load_census()
    functions = [{"module": "m", "qualname": name, "start": start,
                  "lines": lines, "parent": None}
                 for name, start, lines in (("a", 1, 3), ("b", 5, 4),
                                            ("c", 10, 2), ("d", 20, 7))]
    entries = [("m:a", "api"), ("m:b", "oracle"), ("m:c", "api")]
    assert census.judge(functions, {("m", 20)}, entries, False) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "3 kept, 0 unlisted, 0 stale entries; by reason (functions/lines): "
        "api 2/5, oracle 1/4")
