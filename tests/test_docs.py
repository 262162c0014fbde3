"""The names the docs cite still exist.

Every backticked dotted ``repro.…`` name in README.md, DESIGN.md,
EXPERIMENTS.md and ``docs/*.md`` (a bare name, or a call such as
``repro.datastore.segment_cache()``) must resolve: import its longest
module prefix, then ``getattr`` the rest.  Deleting or moving a function
then fails here until the docs stop naming it.
"""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
CITED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def cited_names() -> dict[str, list[str]]:
    """Each cited name with the docs that cite it."""
    names: dict[str, list[str]] = {}
    for path in DOCS:
        for name in CITED.findall(path.read_text()):
            names.setdefault(name, []).append(path.name)
    return names


def resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_the_docs_cite_names():
    assert len(cited_names()) >= 30


def test_every_cited_name_resolves():
    missing = {name: docs for name, docs in cited_names().items()
               if not resolves(name)}
    assert not missing, f"names the docs cite that do not exist: {missing}"
