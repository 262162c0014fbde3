"""Hygiene: only ``repro/obs/config.py`` may read the environment.

The EngineConfig redesign moved every ``REPRO_*`` env-var read into
``EngineConfig.from_env``; this test (mirrored by a CI grep step) keeps the
rest of the source tree environment-free so configuration stays explicit.
"""

import pathlib
import re

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent
ALLOWED = {SRC_ROOT / "obs" / "config.py"}
FORBIDDEN = ("os.environ", "os.getenv", "getenv(")


def test_only_obs_config_reads_environment():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path in ALLOWED:
            continue
        text = path.read_text(encoding="utf-8")
        for needle in FORBIDDEN:
            if needle in text:
                offenders.append(f"{path.relative_to(SRC_ROOT)}: {needle}")
    assert not offenders, (
        "environment reads outside repro/obs/config.py:\n  "
        + "\n  ".join(offenders))


def test_no_repro_env_var_literals_outside_obs():
    """Env-var names may only appear in the obs package (the config module
    and the package docstring that documents it)."""
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.is_relative_to(SRC_ROOT / "obs"):
            continue
        if "REPRO_" in path.read_text(encoding="utf-8"):
            offenders.append(str(path.relative_to(SRC_ROOT)))
    assert not offenders, (
        "REPRO_* env-var literals outside repro/obs/: "
        + ", ".join(offenders))


REMOVED_NAMES = ("gibbs_engine", "pool_warm", "columnar_threshold",
                 "use_backend", "set_backend", "run_replicas_parallel",
                 "fanout_map",
                 # dead format readers (datastore v1/v2, graph v1, checkpoint 1)
                 "_from_dict_v1", "_encode_key", "_decode_key",
                 "SUPPORTED_DATABASE_VERSIONS", "SUPPORTED_CHECKPOINT_VERSIONS",
                 # a second copy of the chain state beside DeepDive.chain_state
                 "self._world", "self._mu",
                 # pool callers and knobs beyond NumaGibbs's replica fan-out
                 "pool_min_work", "pool_owner", "acquire_pool",
                 "release_pool", "pool_pins", "decide_map",
                 "decide_replicas", "attach_pool", "prestage",
                 "numa_sockets", "from_engine_config")


def test_knobs_have_not_drifted():
    """Every engine field has exactly one env fallback, every fallback is
    documented, and what was retired with its duplicate (reference Gibbs
    engine, cold pools, backend overrides, readers of formats nothing
    writes, the serving engine's own chain-state dicts, every pool caller
    and knob beyond the NUMA replicas) stays retired."""
    import dataclasses

    from repro.obs.config import (COMPLIANCE_ENV_VARS, ENV_VARS,
                                  SERVE_ENV_VARS, EngineConfig)

    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert set(ENV_VARS) == fields

    guide = (SRC_ROOT.parents[1] / "docs"
             / "developer_guide.md").read_text(encoding="utf-8")
    undocumented = [var for table in (ENV_VARS, SERVE_ENV_VARS,
                                      COMPLIANCE_ENV_VARS)
                    for var in table.values() if var not in guide]
    assert not undocumented, f"not in docs/developer_guide.md: {undocumented}"

    offenders = [f"{path.relative_to(SRC_ROOT)}: {name}"
                 for path in sorted(SRC_ROOT.rglob("*.py"))
                 for name in REMOVED_NAMES
                 if re.search(re.escape(name) + r"\b",
                              path.read_text(encoding="utf-8"))]
    assert not offenders, "retired names under src/:\n  " + "\n  ".join(offenders)


def test_ambient_environment_is_accepted_by_every_reader():
    """The process environment this suite runs under (CI's matrix legs set
    ``REPRO_*`` variables) parses cleanly through all three tables: a typo
    in a leg's ``engine-env`` fails here instead of running the leg with
    defaults.  (CI also turns the reader's warning into an error.)"""
    import warnings

    from repro.obs.config import EngineConfig
    from repro.serve import ServeConfig

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EngineConfig.from_env()
        ServeConfig.from_env()
