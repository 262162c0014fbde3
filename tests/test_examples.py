"""Every script under ``examples/`` runs to completion.

Each example ends in assertions on what it printed (F1 across the
developer loop's iterations, recovery bit-identical in the serving loop,
...), so a clean exit is a checked run, not just one that did not crash.
Each runs in a fresh interpreter, as a user runs it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 7, [path.name for path in EXAMPLES]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_its_assertions_hold(path):
    path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None,
                                                            path_entries)))
    done = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    assert done.stdout.strip(), "the example printed nothing"
