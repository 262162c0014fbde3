"""Typed engine configuration: the one place ``REPRO_*`` env vars are read.

:class:`EngineConfig` is a frozen dataclass threaded explicitly through
:class:`~repro.core.app.DeepDive`, :class:`~repro.datastore.database.Database`
and :class:`~repro.grounding.grounder.Grounder`.  It holds only choices some
workload, CI job or shard actually makes; where the system has one engine
for a job (the chromatic Gibbs sweep, the warm worker pool) there is
nothing to configure, and reference implementations are methods tests
call, never options.

Environment variables remain only as a documented *fallback*, read exactly
once at config construction by :meth:`EngineConfig.from_env` -- never at
query time, and never anywhere outside this module (a hygiene test enforces
that).  Mutating the environment after construction has no effect.

The engine, serving and compliance tables all go through one reader,
:func:`_env_overrides`, so they share one failure contract: unset or blank
means the default; set-but-rejected means the default *and* a
:class:`RuntimeWarning` naming variable and value.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Mapping

VALID_BACKENDS = ("auto", "row", "columnar")
VALID_PARALLEL_MODES = ("auto", "fork", "spawn")

#: Environment fallbacks honoured by :meth:`EngineConfig.from_env`.
ENV_VARS = {
    "datastore_backend": "REPRO_DATASTORE_BACKEND",
    "numa_sockets": "REPRO_NUMA_SOCKETS",
    "trace": "REPRO_TRACE",
    "workers": "REPRO_WORKERS",
    "parallel_mode": "REPRO_PARALLEL_MODE",
    "pool_min_work": "REPRO_POOL_MIN_WORK",
    "memory_budget": "REPRO_MEMORY_BUDGET",
    "segment_rows": "REPRO_SEGMENT_ROWS",
}

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _parse_flag(raw: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(f"not a boolean flag: {raw!r}")


def _env_overrides(table: Mapping[str, str], parsers: Mapping[str, Callable],
                   environ: Mapping[str, str] | None,
                   check: Callable[[str, object], object] | None = None,
                   ) -> tuple[dict, dict]:
    """The one ``REPRO_*`` reader: ``(overrides, invalid)`` for one table.

    ``table`` maps field name -> variable, ``parsers`` field name -> parser.
    An unset (or blank) variable is skipped.  A set variable whose value
    the parser -- or ``check(field, value)``, the owning dataclass's own
    validation -- rejects with :class:`ValueError` is left out of
    ``overrides`` (the field keeps its default), recorded in ``invalid``
    (field name -> raw value) and always announced by one
    :class:`RuntimeWarning` naming variable and value: no table drops a
    typo silently.  What an invalid value *means* beyond the warning is
    the caller's policy (compliance refuses to build an enabled policy).
    """
    env = os.environ if environ is None else environ
    overrides: dict = {}
    invalid: dict = {}
    for field_name, var in table.items():
        raw = env.get(var, "")
        if not raw.strip():
            continue
        try:
            value = parsers[field_name](raw)
            if check is not None:
                check(field_name, value)
        except ValueError:
            # CI's non-default legs turn exactly this message into an error
            # (-W "error:ignoring invalid environment override")
            warnings.warn(f"ignoring invalid environment override "
                          f"{var}={raw!r}; the default applies",
                          RuntimeWarning, stacklevel=3)
            invalid[field_name] = raw
        else:
            overrides[field_name] = value
    return overrides, invalid


#: One parser per :data:`ENV_VARS` entry; range and membership checks are
#: :meth:`EngineConfig.__post_init__`'s, applied to each parsed value.
_ENGINE_PARSERS = {
    "datastore_backend": str,
    "numa_sockets": int,
    "trace": _parse_flag,
    "workers": int,
    "parallel_mode": str,
    "pool_min_work": int,
    "memory_budget": int,
    "segment_rows": int,
}

#: Adaptive-dispatch threshold, in dispatcher work units (roughly primitive
#: operations: factor-graph edge visits for replica sampling, scaled
#: characters for NLP fan-out).  Calibrated against the warm pool's per-call
#: overhead (~1-5 ms of pipe rendezvous + cache checks): below ~1e5 work
#: units a sequential run finishes before the pool's round trips pay off.
DEFAULT_POOL_MIN_WORK = 100_000


@dataclass(frozen=True)
class EngineConfig:
    """Frozen per-application execution-engine configuration.

    ``datastore_backend``
        Relational-operator dispatch mode: ``"auto"`` (the default: by
        input size, see :data:`repro.datastore.query.COLUMNAR_MIN_ROWS`),
        ``"row"``, or ``"columnar"``.  This field is the only way to
        force a backend.
    ``numa_sockets``
        Socket count for the simulated-NUMA execution layer.
    ``trace``
        When true, :class:`~repro.core.app.DeepDive` installs a span
        collector around every phase so :attr:`RunResult.profile` carries
        the full span tree and metrics, not just top-level phase spans.
    ``workers``
        Worker-process count for the shared-memory parallel execution
        layer (:mod:`repro.parallel`): NUMA replica chains and corpus
        preprocessing fan out over this many warm-pool processes.  ``0``
        (the default) runs the exact sequential code path, which stays the
        bit-identical reference.
    ``parallel_mode``
        Process start method for the worker pool: ``"auto"`` (``fork``
        where available, else ``spawn``), ``"fork"``, or ``"spawn"``.
    ``pool_min_work``
        Adaptive-dispatch threshold: parallel-eligible calls whose
        estimated work (dispatcher work units) falls below this run on the
        sequential path instead -- below the threshold, per-call dispatch
        overhead outweighs any speedup.  ``0`` disables the guard (always
        dispatch when ``workers > 0``).
    ``pool_owner``
        Registry partition token for the warm worker pool.  ``None`` (the
        default) shares one pool per ``(workers, mode)`` across the whole
        process; a shard of a sharded service sets its own token so its
        NLP fan-out and replica sampling get private worker processes
        instead of thrashing a sibling shard's pool.  Set programmatically
        (no environment fallback): sizing is the setter's responsibility.
    ``memory_budget``
        Byte budget for the out-of-core datastore layer.  ``None`` (the
        default) keeps every operator fully in memory.  A positive value
        makes the columnar join/aggregate/distinct kernels spill
        grace-hash partitions of their intermediates to temp files once
        the inputs exceed the budget (:mod:`repro.datastore.spill`), with
        bit-identical results; ``0`` forces the spill path for every
        eligible operator (the exhaustive-coverage setting CI uses).
    ``segment_rows``
        Row capacity of one sealed segment for disk-backed
        :class:`~repro.datastore.segments.SegmentedRelation`\\ s: the
        in-memory tail is sealed to an immutable, content-addressed,
        mmap-able segment file whenever it reaches this many rows.
    """

    datastore_backend: str = "auto"
    numa_sockets: int = 4
    trace: bool = False
    workers: int = 0
    parallel_mode: str = "auto"
    pool_min_work: int = DEFAULT_POOL_MIN_WORK
    pool_owner: str | None = None
    memory_budget: int | None = None
    segment_rows: int = 8192

    def __post_init__(self) -> None:
        if self.datastore_backend not in VALID_BACKENDS:
            raise ValueError(
                f"unknown datastore backend {self.datastore_backend!r}; "
                f"want one of {VALID_BACKENDS}")
        if self.numa_sockets < 1:
            raise ValueError("need at least one NUMA socket")
        if self.workers < 0:
            raise ValueError("workers cannot be negative (0 = sequential)")
        if self.parallel_mode not in VALID_PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {self.parallel_mode!r}; "
                f"want one of {VALID_PARALLEL_MODES}")
        if self.pool_min_work < 0:
            raise ValueError("pool_min_work cannot be negative "
                             "(0 = always dispatch)")
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError("memory_budget cannot be negative "
                             "(None = unlimited, 0 = always spill)")
        if self.segment_rows < 1:
            raise ValueError("segment_rows must be at least 1")

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "EngineConfig":
        """Build a config from the environment, read once.

        An unset (or empty) variable leaves the field at its default.  A
        variable that is set but does not parse, or parses to a value
        :meth:`__post_init__` rejects, also falls back to the default --
        with a :class:`RuntimeWarning` naming the variable and the value,
        so a typo in a CI job cannot pass vacuously
        (:func:`_env_overrides`, shared with the serving and compliance
        tables).
        """
        overrides, _invalid = _env_overrides(
            ENV_VARS, _ENGINE_PARSERS, environ,
            check=lambda field_name, value: cls(**{field_name: value}))
        return cls(**overrides)

    def with_options(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (the config itself is frozen)."""
        return replace(self, **changes)


# --------------------------------------------------------------- serving env
#: Environment fallbacks honoured by ``repro.serve.ServeConfig.from_env``.
#: They are *parsed* here (and only here) to preserve the single-reader
#: hygiene rule; the dataclass they configure lives in ``repro.serve.config``
#: next to the subsystem it steers.
SERVE_ENV_VARS = {
    "checkpoint_every": "REPRO_SERVE_CHECKPOINT_EVERY",
    "keep_checkpoints": "REPRO_SERVE_KEEP_CHECKPOINTS",
    "wal_fsync": "REPRO_SERVE_FSYNC",
    "max_batch_ops": "REPRO_SERVE_MAX_BATCH",
    "queue_capacity": "REPRO_SERVE_QUEUE_CAPACITY",
    "admission": "REPRO_SERVE_ADMISSION",
    "full_rerun_fraction": "REPRO_SERVE_FULL_RERUN_FRACTION",
    "strategy": "REPRO_SERVE_STRATEGY",
    "shards": "REPRO_SHARDS",
    "tenant_quota": "REPRO_TENANT_QUOTA",
    "snapshot_history": "REPRO_SERVE_SNAPSHOT_HISTORY",
}

_SERVE_PARSERS = {
    "checkpoint_every": int,
    "keep_checkpoints": int,
    "wal_fsync": _parse_flag,
    "max_batch_ops": int,
    "queue_capacity": int,
    "admission": str,
    "full_rerun_fraction": float,
    "strategy": str,
    "shards": int,
    "tenant_quota": int,
    "snapshot_history": int,
}


def serve_env_overrides(environ: Mapping[str, str] | None = None,
                        check: Callable[[str, object], object] | None = None,
                        ) -> tuple[dict, dict]:
    """``REPRO_SERVE_*`` fallbacks as ``(ServeConfig overrides, invalid)``;
    ``check`` is ``ServeConfig``'s per-field validation.  Contract:
    :func:`_env_overrides`."""
    return _env_overrides(SERVE_ENV_VARS, _SERVE_PARSERS, environ, check)


# ----------------------------------------------------------- compliance env
#: Environment fallbacks honoured by
#: ``repro.compliance.CompliancePolicy.from_env``.  Parsed here (and only
#: here) to preserve the single-reader hygiene rule; the policy dataclass
#: lives in ``repro.compliance.policy`` next to the subsystem it steers.
#: ``rules`` stays a raw ``"relation.column=action,..."`` string — the
#: policy module owns the rule grammar.
COMPLIANCE_ENV_VARS = {
    "enabled": "REPRO_COMPLIANCE_ENABLED",
    "default_action": "REPRO_COMPLIANCE_ACTION",
    "min_confidence": "REPRO_COMPLIANCE_MIN_CONFIDENCE",
    "key": "REPRO_COMPLIANCE_KEY",
    "rules": "REPRO_COMPLIANCE_RULES",
    "sample_rows": "REPRO_COMPLIANCE_SAMPLE_ROWS",
    "max_examples": "REPRO_COMPLIANCE_MAX_EXAMPLES",
}

_COMPLIANCE_PARSERS = {
    "enabled": _parse_flag,
    "default_action": str,
    "min_confidence": float,
    "key": str,
    "rules": str,
    "sample_rows": int,
    "max_examples": int,
}


def compliance_env_overrides(
        environ: Mapping[str, str] | None = None,
        check: Callable[[str, object], object] | None = None,
        ) -> tuple[dict, dict]:
    """``REPRO_COMPLIANCE_*`` fallbacks as ``(CompliancePolicy overrides,
    invalid)``; ``check`` is the policy's per-field validation.  Contract:
    :func:`_env_overrides` -- ``CompliancePolicy.from_env`` uses ``invalid``
    to refuse to construct an *enabled* policy (or one whose ``enabled``
    flag itself did not parse) from a partially-invalid environment."""
    return _env_overrides(COMPLIANCE_ENV_VARS, _COMPLIANCE_PARSERS, environ,
                          check)
