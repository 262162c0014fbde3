"""Hygiene: only ``repro/obs/config.py`` may read the environment.

The EngineConfig redesign moved every ``REPRO_*`` env-var read into
``EngineConfig.from_env``; this module (which CI's env-hygiene job runs)
keeps the rest of the source tree environment-free so configuration stays
explicit, and keeps every retired name out of it.
"""

import ast
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
                 "fanout_map", "VALID_ENGINES", "_columnar_join_into",
                 "_forced_backend", "parallel_preprocess",
                 "set_default_config",
                 # dead format readers (datastore v1/v2, graph v1, checkpoint 1)
                 "_from_dict_v1", "_encode_key", "_decode_key",
                 "SUPPORTED_DATABASE_VERSIONS", "SUPPORTED_CHECKPOINT_VERSIONS",
                 # a second copy of the chain state beside DeepDive.chain_state
                 "self._world", "self._mu",
                 # pool callers and knobs beyond NumaGibbs's replica fan-out
                 "pool_min_work", "pool_owner", "acquire_pool",
                 "release_pool", "pool_pins", "decide_map",
                 "decide_replicas", "attach_pool", "prestage",
                 "numa_sockets", "from_engine_config",
                 # serving and compliance are configured in code only
                 "SERVE_ENV_VARS", "COMPLIANCE_ENV_VARS",
                 "serve_env_overrides", "compliance_env_overrides",
                 "parse_rules",
                 # the color block's per-formula slot groups
                 "SlotGroup", "imply_body", "imply_head_edge",
                 # JSON checkpoint payloads and per-item graph restore
                 "inline_database", "to_payload", "from_payload",
                 "restore_variable", "restore_weight", "restore_factor",
                 "restore_next_ids",
                 # per-variable inference loops beside the color kernel
                 "_signed_expected_delta", "_literal_delta",
                 "_prepare_reference_adjacency", "_reference_adjacency",
                 "AnnealedGibbs", "sweep_at",
                 # the per-row grounding path beside _ground_rule, and the
                 # per-key new-variable hook beside _label_new_variables
                 "_ground_row", "_variable_for", "_on_new_variable",
                 # scan loops beside Scanner.scan_rows
                 "scan_relation", "scan_snapshot", "scan_column",
                 # a second pool protocol beside WorkerPool.map, its fault
                 # hook, and NumaConfig knobs nothing set
                 "_worker_replicas", "_collect_replicas", "ReplicaOutcome",
                 "inject_fault", "_stage_acc", "VALID_PARALLEL_MODES",
                 "parallel_timeout", "cores_per_socket",
                 # a second color loop beside GibbsSampler.run_chain: the
                 # per-color hook, the traced copy and the unary-only pass
                 "_sweep_traced", "_observe_color", "on_color",
                 "_sweep_independent",
                 # export forms and surface no workload, figure or example
                 # ran: CSV and JSON-stream database dumps, the factor
                 # graph's JSON form, the span decorator and shard rebalance
                 "write_csv", "read_csv", "relation_to_csv_text",
                 "dump_database", "load_database", "SerializationError",
                 "instrumented", "rebalance",
                 # members nothing called, not even a test
                 "num_templates", "none_code", "set_budget")

#: The scalar flip rules are test oracles: each name may appear as a call
#: or definition only in these src files (its definition and the other
#: oracle that uses it), never on a production path.
ORACLE_SITES = {
    "general_delta": {"factorgraph/compiled.py", "inference/gibbs.py"},
    "evaluate_flip": {"factorgraph/factor_functions.py",
                      "factorgraph/compiled.py"},
    "_sigmoid_scalar": {"inference/gibbs.py"},
}

#: ... and within those files, the functions allowed to call each name.
ORACLE_CALLERS = {
    "general_delta": {"sweep_reference"},
    "evaluate_flip": {"general_delta"},
    "_sigmoid_scalar": {"sweep_reference"},
}


def test_knobs_have_not_drifted():
    """Every engine field has exactly one env fallback, the developer guide
    documents exactly those fallbacks (no variable nothing reads), and what
    was retired with its duplicate (reference Gibbs engine, cold pools,
    backend overrides, readers of formats nothing writes, the serving
    engine's own chain-state dicts, every pool caller and knob beyond the
    NUMA replicas, the serving and compliance env tables, the color block's
    slot groups, the JSON checkpoint payloads and per-item graph restore,
    the per-variable inference loops beside the color kernel, the
    per-row grounding path beside ``Grounder._ground_rule``, the second
    color loop beside ``GibbsSampler.run_chain``, and the export forms and
    surface that nothing ran) stays retired."""
    import dataclasses

    from repro.obs.config import ENV_VARS, EngineConfig

    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert set(ENV_VARS) == fields

    guide = (SRC_ROOT.parents[1] / "docs"
             / "developer_guide.md").read_text(encoding="utf-8")
    assert set(re.findall(r"REPRO_[A-Z_]+", guide)) == set(ENV_VARS.values())

    offenders = [f"{path.relative_to(SRC_ROOT)}: {name}"
                 for path in sorted(SRC_ROOT.rglob("*.py"))
                 for name in REMOVED_NAMES
                 if re.search(re.escape(name) + r"\b",
                              path.read_text(encoding="utf-8"))]
    assert not offenders, "retired names under src/:\n  " + "\n  ".join(offenders)


def test_scalar_flip_rules_have_no_production_caller():
    """``general_delta`` is called only by ``sweep_reference``,
    ``evaluate_flip`` only by ``general_delta``, ``_sigmoid_scalar`` only
    by ``sweep_reference``: every inference path runs on the color kernel."""
    for name, allowed in ORACLE_SITES.items():
        sites = {path.relative_to(SRC_ROOT).as_posix()
                 for path in sorted(SRC_ROOT.rglob("*.py"))
                 if re.search(r"\b" + re.escape(name) + r"\(",
                              path.read_text(encoding="utf-8"))}
        assert sites == allowed, (name, sites)
    callers = {name: set() for name in ORACLE_CALLERS}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        _record_oracle_callers(ast.parse(path.read_text(encoding="utf-8")),
                               None, callers)
    assert callers == ORACLE_CALLERS


def _record_oracle_callers(node, function, callers):
    """Add the innermost enclosing function of every call to an
    ``ORACLE_CALLERS`` name under ``node`` to ``callers[name]``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        callee = node.func
        name = getattr(callee, "id", getattr(callee, "attr", None))
        if name in callers:
            callers[name].add(function)
    for child in ast.iter_child_nodes(node):
        _record_oracle_callers(child, function, callers)


def test_ambient_environment_is_accepted_by_every_reader():
    """The process environment this suite runs under (CI's spill leg sets
    ``REPRO_*`` variables) parses cleanly through the one reader: a typo
    in a leg's ``engine-env`` fails here instead of running the leg with
    defaults.  (CI also turns the reader's warning into an error.)"""
    import warnings

    from repro.obs.config import EngineConfig

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EngineConfig.from_env()
