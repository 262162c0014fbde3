"""ServeConfig and CompliancePolicy are configured in code only: a rejected
value raises at construction, no field is added and no environment reader
comes back."""

import dataclasses

import pytest

from repro.compliance import CompliancePolicy
from repro.serve import ServeConfig

#: field -> a value ``ServeConfig.__post_init__`` must reject (``wal_fsync``
#: is a plain flag with nothing to reject)
REJECTED = {
    "checkpoint_every": -1,
    "keep_checkpoints": 0,
    "max_batch_ops": 0,
    "queue_capacity": 0,
    "admission": "maybe",
    "full_rerun_fraction": 1.5,
    "strategy": "exact",
    "refresh_samples": 0,
    "refresh_burn_in": -1,
    "radius": -1,
    "expected_updates": 0,
    "shards": 0,
    "tenant_quota": -5,
    "snapshot_history": 0,
    "compliance": "anonymize",
}


def test_no_field_was_added():
    assert len(dataclasses.fields(ServeConfig)) == 16
    assert len(dataclasses.fields(CompliancePolicy)) == 7


@pytest.mark.parametrize("field", sorted(REJECTED))
def test_rejected_serve_value_raises(field):
    with pytest.raises(ValueError):
        ServeConfig(**{field: REJECTED[field]})


def test_configs_have_no_environment_reader():
    assert not hasattr(ServeConfig, "from_env")
    assert not hasattr(CompliancePolicy, "from_env")
