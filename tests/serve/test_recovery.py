"""Crash recovery: kill the apply loop mid-batch, recover, compare bits.

The durability contract under test: a batch is committed the moment its WAL
record is on disk, so a crash *after* the append but *before* (or during)
the in-memory apply must not lose it — recovery replays it and lands on
marginals bit-identical to a service that never crashed.
"""

import warnings

import pytest

from repro.serve import (KBService, ServeConfig, ServiceFailed, add_documents,
                         remove_rows)
from tests.serve.conftest import RUN_KWARGS, bootstrap_ops, make_app_factory


class Boom(RuntimeError):
    """The injected fault."""


BATCHES = [
    [add_documents([("n0", "the grape and the blight sat there .")])],
    [remove_rows("GoodList", [("plum",)])],
    [add_documents([("n1", "the melon sat there .")])],
]


def make_config(**changes):
    options = dict(checkpoint_every=0, refresh_samples=40, refresh_burn_in=10)
    options.update(changes)
    return ServeConfig(**options)


def run_uninterrupted(tmp_path, config):
    """The control: every batch applied with no crash."""
    service = KBService.create(tmp_path / "control", make_app_factory(),
                               bootstrap_ops(), config=config,
                               run_kwargs=RUN_KWARGS)
    with service:
        for batch in BATCHES:
            snapshot = service.ingest(batch, wait=True)
    return snapshot


def crash_at_last_batch(tmp_path, config):
    """The victim: dies right after WAL-appending the final batch."""
    service = KBService.create(tmp_path / "victim", make_app_factory(),
                               bootstrap_ops(), config=config,
                               run_kwargs=RUN_KWARGS)
    for batch in BATCHES[:-1]:
        service.ingest(batch, wait=True)

    def crash(lsn, batch):
        raise Boom(f"injected crash after WAL append of lsn {lsn}")

    service.fault_hooks["after_wal_append"] = crash
    with pytest.raises(ServiceFailed, match="injected crash"):
        service.ingest(BATCHES[-1], wait=True)
    # the loop is dead; further ingest is refused
    with pytest.raises(ServiceFailed):
        service.ingest([BATCHES[0][0]], wait=False)
    service.wal.close()
    return service


@pytest.mark.parametrize("checkpoint_every", [0, 1],
                         ids=["wal_only", "checkpoint_plus_tail"])
def test_recovery_is_bit_identical(tmp_path, checkpoint_every):
    config = make_config(checkpoint_every=checkpoint_every)
    control = run_uninterrupted(tmp_path, config)
    crashed = crash_at_last_batch(tmp_path, config)

    # the batch the victim never applied is durably in its WAL
    assert crashed.wal.last_lsn == len(BATCHES)

    recovered = KBService.open(tmp_path / "victim", make_app_factory(),
                               config=config, run_kwargs=RUN_KWARGS)
    with recovered:
        snapshot = recovered.client().snapshot()
        assert snapshot.version == control.version
        assert snapshot.lsn == control.lsn
        assert dict(snapshot.marginals) == dict(control.marginals)

        # the recovered service keeps serving: one more identical batch on
        # both sides stays bit-identical (chains resume in lockstep)
        extra = [add_documents([("n2", "the fig and the decay sat there .")])]
        after = recovered.ingest(extra, wait=True)
    followup = KBService.create(tmp_path / "control2", make_app_factory(),
                                bootstrap_ops(), config=config,
                                run_kwargs=RUN_KWARGS)
    with followup:
        for batch in BATCHES + [extra]:
            expected = followup.ingest(batch, wait=True)
    assert dict(after.marginals) == dict(expected.marginals)


def test_torn_apply_replays_the_durable_batch(tmp_path):
    """A fault *in* the engine apply (after the WAL write) still recovers;
    every acknowledged batch survives."""
    config = make_config(checkpoint_every=1)
    service = KBService.create(tmp_path / "svc", make_app_factory(),
                               bootstrap_ops(), config=config,
                               run_kwargs=RUN_KWARGS)
    acknowledged = service.ingest(BATCHES[0], wait=True)
    service.fault_hooks["after_wal_append"] = \
        lambda lsn, batch: (_ for _ in ()).throw(Boom("mid-batch"))
    with pytest.raises(ServiceFailed):
        service.ingest(BATCHES[1], wait=True)
    service.wal.close()

    recovered = KBService.open(tmp_path / "svc", make_app_factory(),
                               config=config, run_kwargs=RUN_KWARGS)
    with recovered:
        snapshot = recovered.client().snapshot()
        # both the acknowledged batch and the torn one (it hit the WAL) apply
        assert snapshot.lsn == 2
        for key, probability in acknowledged.marginals.items():
            assert key in snapshot.marginals
        assert snapshot.version >= acknowledged.version


def test_recovery_after_torn_wal_append(tmp_path):
    """A crash *during* the WAL append leaves a torn final line: recovery
    drops that unacknowledged batch, physically repairs the log, and the
    service keeps committing to it — later restarts read a clean log."""
    config = make_config()
    service = KBService.create(tmp_path / "svc", make_app_factory(),
                               bootstrap_ops(), config=config,
                               run_kwargs=RUN_KWARGS)
    service.ingest(BATCHES[0], wait=True)
    service.ingest(BATCHES[1], wait=True)
    service.stop()
    wal_path = tmp_path / "svc" / "ingest.wal"
    text = wal_path.read_text()
    wal_path.write_text(text[:len(text) - 15])   # tear the lsn-2 record

    with pytest.warns(UserWarning, match="truncated tail"):
        recovered = KBService.open(tmp_path / "svc", make_app_factory(),
                                   config=config, run_kwargs=RUN_KWARGS)
    with recovered:
        assert recovered.client().snapshot().lsn == 1     # the torn batch is gone
        # the client retries the unacknowledged batch; it lands at lsn 2
        after = recovered.ingest(BATCHES[1], wait=True)
        assert after.lsn == 2

    # the repaired log is fully clean: a third open replays both records
    # without any truncation warning and lands on identical marginals
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reopened = KBService.open(tmp_path / "svc", make_app_factory(),
                                  config=config, run_kwargs=RUN_KWARGS)
    assert not [w for w in caught if "truncated tail" in str(w.message)]
    with reopened:
        snapshot = reopened.client().snapshot()
        assert snapshot.lsn == 2
        assert dict(snapshot.marginals) == dict(after.marginals)


def test_recovery_without_wal_tail(tmp_path):
    """checkpoint_every=1 and a clean stop: recovery is checkpoint-only."""
    config = make_config(checkpoint_every=1)
    service = KBService.create(tmp_path / "svc", make_app_factory(),
                               bootstrap_ops(), config=config,
                               run_kwargs=RUN_KWARGS)
    with service:
        final = service.ingest(BATCHES[0], wait=True)
    recovered = KBService.open(tmp_path / "svc", make_app_factory(),
                               config=config, run_kwargs=RUN_KWARGS)
    with recovered:
        snapshot = recovered.client().snapshot()
    assert dict(snapshot.marginals) == dict(final.marginals)
    assert snapshot.lsn == final.lsn
