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
that).  Mutating the environment after construction has no effect.  Every
other layer (serving, compliance, NUMA sampling) is configured only by the
config object its caller builds.

The one reader, :func:`_env_overrides`, has one failure contract: unset or
blank means the default; set-but-rejected means the default *and* a
:class:`RuntimeWarning` naming variable and value.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import Mapping

VALID_BACKENDS = ("auto", "row", "columnar")

#: Environment fallbacks honoured by :meth:`EngineConfig.from_env`.
ENV_VARS = {
    "datastore_backend": "REPRO_DATASTORE_BACKEND",
    "trace": "REPRO_TRACE",
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


def _env_overrides(environ: Mapping[str, str] | None) -> dict:
    """The one ``REPRO_*`` reader: :class:`EngineConfig` field overrides.

    An unset (or blank) variable is skipped.  A set variable whose value
    its parser -- or :class:`EngineConfig`'s own validation -- rejects
    with :class:`ValueError` is left out (the field keeps its default) and
    announced by one :class:`RuntimeWarning` naming variable and value, so
    no typo is dropped silently.
    """
    env = os.environ if environ is None else environ
    overrides: dict = {}
    for field_name, var in ENV_VARS.items():
        raw = env.get(var, "")
        if not raw.strip():
            continue
        try:
            value = _ENGINE_PARSERS[field_name](raw)
            EngineConfig(**{field_name: value})
        except ValueError:
            # CI's spill leg turns exactly this message into an error
            # (-W "error:ignoring invalid environment override")
            warnings.warn(f"ignoring invalid environment override "
                          f"{var}={raw!r}; the default applies",
                          RuntimeWarning, stacklevel=3)
        else:
            overrides[field_name] = value
    return overrides


#: One parser per :data:`ENV_VARS` entry; range and membership checks are
#: :meth:`EngineConfig.__post_init__`'s, applied to each parsed value.
_ENGINE_PARSERS = {
    "datastore_backend": str,
    "trace": _parse_flag,
    "memory_budget": int,
    "segment_rows": int,
}


@dataclass(frozen=True)
class EngineConfig:
    """Frozen per-application execution-engine configuration.

    ``datastore_backend``
        Relational-operator dispatch mode: ``"auto"`` (the default: by
        input size, see :data:`repro.datastore.query.COLUMNAR_MIN_ROWS`),
        ``"row"``, or ``"columnar"``.  This field is the only way to
        force a backend.
    ``trace``
        When true, :class:`~repro.core.app.DeepDive` installs a span
        collector around every phase so :attr:`RunResult.profile` carries
        the full span tree and metrics, not just top-level phase spans.
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
    trace: bool = False
    memory_budget: int | None = None
    segment_rows: int = 8192

    def __post_init__(self) -> None:
        if self.datastore_backend not in VALID_BACKENDS:
            raise ValueError(
                f"unknown datastore backend {self.datastore_backend!r}; "
                f"want one of {VALID_BACKENDS}")
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
        so a typo in a CI job cannot pass vacuously (:func:`_env_overrides`).
        """
        return cls(**_env_overrides(environ))

    def with_options(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (the config itself is frozen)."""
        return replace(self, **changes)

