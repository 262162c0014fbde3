"""Golden identity: served bits pinned from the commit before ``ChainState``.

One fixed scenario -- bootstrap, six batches (adds, a KB-row remove, an
evidence-only ``AddRows``, a batch whose grounding delta is empty, a document
removal), a checkpoint, a reopen and one more batch -- run on one and two
shards.  The sha256 of every published marginals dict, of the recovered
``lsn_vector`` + marginals, and of every checkpoint JSON document with the
segments it references must equal the values recorded from the parent
commit (061ea8e), where
``DeepDive.run_incremental`` and ``ServeEngine._refresh`` were still two
copies over five dicts.  A refactor of the chain-state owner that changes a
single published float, key order or checkpoint byte fails here.  The
checkpoint values were re-recorded when checkpoints became segment arrays
(format 3); every published and recovered value is still the parent's.

Regenerate (only when a change is *meant* to alter served bits)::

    PYTHONPATH=src python tests/serve/test_golden_identity.py
"""

import hashlib
import json
import os
import pathlib
import re
import tempfile

import pytest

from repro import Document
from repro.compliance import CompliancePolicy
from repro.serve import (KBClient, RemoveDocuments, ServeConfig,
                         ServiceFailed, add_documents, add_rows, remove_rows)
from tests.serve.conftest import RUN_KWARGS, bootstrap_ops, make_app_factory

BATCHES = [
    [add_documents([("n0", "the grape and the blight sat there .")])],
    [remove_rows("GoodList", [("plum",)])],
    [add_documents([("n1", "the melon sat there ."),
                    ("n2", "the fig and the decay sat there .")])],
    [add_rows("GoodList", [("grape",)])],          # evidence only
    [add_rows("BadList", [("nothing-mentions-this",)])],   # empty delta
    [RemoveDocuments(("d1",))],
]
AFTER_REOPEN = [add_documents([("n3", "the pear and the slime sat there .")])]

SCRUB = CompliancePolicy(enabled=True, key="golden",
                         rules=(("GoodName.m", "anonymize"),))

#: name -> (shards, refresh strategy, compliance policy)
SCENARIOS = {
    "one-shard-auto-raw": (1, "auto", CompliancePolicy()),
    "two-shards-auto-raw": (2, "auto", CompliancePolicy()),
    "one-shard-variational-scrubbed": (1, "variational", SCRUB),
    "two-shards-sampling-scrubbed": (2, "sampling", SCRUB),
}


def _sha(parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()[:16]


def _marginals_digest(snapshot) -> str:
    """Order-sensitive and bit-exact: key order is part of the contract
    (it is the compiled variable order) and floats hash by their hex."""
    return _sha([[repr(key), float(p).hex()]
                 for key, p in snapshot.marginals.items()])


def _referenced_segments(document: dict) -> list[str]:
    """The segment digests a checkpoint document references, in manifest
    order: the database's relations, then every array table as listed."""
    digests = [ref["digest"]
               for entry in document["database"]["segment_manifest"].values()
               for ref in entry["segments"]]

    def tables(value):
        if isinstance(value, dict):
            if set(value) == {"$array_table"}:
                digests.extend(value["$array_table"]["segments"])
            else:
                for item in value.values():
                    tables(item)

    tables({key: value for key, value in document.items()
            if key != "database"})
    return list(dict.fromkeys(digests))


def _checkpoint_digest(directory: pathlib.Path) -> str:
    """Every checkpoint document and every segment it references."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("checkpoint-*.json")):
        if path.name.endswith(".refs.json"):
            continue
        digest.update(str(path.relative_to(directory)).encode("utf-8"))
        document = path.read_bytes()
        digest.update(document)
        for segment in _referenced_segments(json.loads(document)):
            digest.update((path.parent / "segments"
                           / f"seg-{segment}.seg").read_bytes())
    return digest.hexdigest()[:16]


def _config(name: str) -> ServeConfig:
    shards, strategy, policy = SCENARIOS[name]
    return ServeConfig(checkpoint_every=0, refresh_samples=40,
                       refresh_burn_in=10, strategy=strategy,
                       compliance=policy, shards=shards)


def _recover(directory: pathlib.Path, config: ServeConfig) -> list:
    """Reopen, then commit one more batch: the recovered bits."""
    reopened = KBClient.open(directory, make_app_factory(), config=config,
                             run_kwargs=RUN_KWARGS)
    with reopened:
        recovered = [list(reopened.lsn_vector()),
                     _marginals_digest(reopened.snapshot())]
        reopened.ingest(AFTER_REOPEN, wait=True)
        recovered.append(_marginals_digest(reopened.snapshot()))
    return recovered


def run_scenario(directory: pathlib.Path, name: str) -> dict:
    config = _config(name)
    published = []
    client = KBClient.create(directory, make_app_factory(), bootstrap_ops(),
                             config=config, run_kwargs=RUN_KWARGS)
    with client:
        published.append(_marginals_digest(client.snapshot()))
        for batch in BATCHES:
            client.ingest(batch, wait=True)
            published.append(_marginals_digest(client.snapshot()))
        client.checkpoint()
    checkpoint = _checkpoint_digest(directory)
    return {"published": published, "checkpoint": checkpoint,
            "recovered": _recover(directory, config)}


def run_app_scenario() -> list[str]:
    """The same pin for :meth:`DeepDive.run_incremental`, no service: a
    full run that carves a holdout, then refreshes over no change, a new
    document, a retracted evidence row (variables stop being evidence) and
    no change again."""
    app = make_app_factory()("")
    for op in bootstrap_ops():
        if hasattr(op, "documents"):
            app.load_documents([Document(*pair) for pair in op.documents])
        else:
            app.add_rows(op.relation, op.rows)
    digests = [_marginals_digest(app.run(**RUN_KWARGS))]
    digests.append(_marginals_digest(app.run_incremental(threshold=0.7)))
    app.load_documents([Document("n0", "the grape and the rust sat there .")])
    digests.append(_marginals_digest(app.run_incremental(threshold=0.7)))
    app.remove_rows("GoodList", [("plum",)])
    app.remove_rows("BadList", [("rust",)])
    digests.append(_marginals_digest(
        app.run_incremental(threshold=0.7, radius=2, num_samples=30)))
    digests.append(_marginals_digest(app.run_incremental(threshold=0.7)))
    return digests


#: recorded from the parent commit 061ea8e by running this file as a script
GOLDEN_APP = ["1b041c9bc7ef37c2", "4b6155c67684a952", "bafb395c0ecf4f81",
              "4cd96e48ce820855", "4cd96e48ce820855"]

GOLDEN = {
    "one-shard-auto-raw": {
        "published": ["e363cd84c687996a", "e7ebcbde93cb7676",
                      "1c53985fd59f1e68", "5af8c611f6ef1934",
                      "5d756a6c08615796", "5d756a6c08615796",
                      "b41b7330ec57290f"],
        "checkpoint": "1f430606078ba1ee",
        "recovered": [[6], "b41b7330ec57290f", "219f650b15dfe234"]},
    "one-shard-variational-scrubbed": {
        "published": ["86d60b727dfebc24", "5b76dead7fb34b0d",
                      "a75e62130621719b", "d0aa15e590426dde",
                      "a8a72cab6106bd14", "a8a72cab6106bd14",
                      "574f42d06c6b1d5e"],
        "checkpoint": "e2a3c1683239c0f3",
        "recovered": [[6], "574f42d06c6b1d5e", "ef8775d46de1a280"]},
    "two-shards-auto-raw": {
        "published": ["ddb787460f8204cf", "baed201da91841d4",
                      "ab9af55c8538a459", "c4d54c44740466ed",
                      "8dc8e15c17e7de16", "8dc8e15c17e7de16",
                      "89ae17eb977c4210"],
        "checkpoint": "8966a188af85b56f",
        "recovered": [[4, 5], "89ae17eb977c4210", "6586dcf745b9152e"]},
    "two-shards-sampling-scrubbed": {
        "published": ["385ff3fc6ea77e92", "58a866a544ca540a",
                      "ab8129c0b264f4e1", "c68b0f24ffb5f5c7",
                      "e1268e7c357311a2", "e1268e7c357311a2",
                      "fc2bde2f3c19b71b"],
        "checkpoint": "8966a188af85b56f",
        "recovered": [[4, 5], "fc2bde2f3c19b71b", "bc77fa40daaca013"]},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_served_bits_equal_the_parent_commit(tmp_path, name):
    assert run_scenario(tmp_path / "kb", name) == GOLDEN[name]


@pytest.mark.parametrize("name", ["one-shard-auto-raw", "two-shards-auto-raw"])
def test_failed_checkpoint_recovers_the_same_bits(tmp_path, monkeypatch,
                                                  name):
    """A checkpoint that fails after its array segments are written and
    before its document is renamed into place leaves the previous
    checkpoint plus the WAL tail, which recover the uninterrupted bits."""
    directory, config = tmp_path / "kb", _config(name)
    replace = os.replace

    def failing_replace(source, target, *args, **kwargs):
        if re.fullmatch(r"checkpoint-\d{12}\.json", pathlib.Path(target).name):
            raise OSError("injected failure before the checkpoint replace")
        return replace(source, target, *args, **kwargs)

    with KBClient.create(directory, make_app_factory(), bootstrap_ops(),
                         config=config, run_kwargs=RUN_KWARGS) as client:
        for batch in BATCHES:
            client.ingest(batch, wait=True)
        segments = len(list(directory.rglob("seg-*.seg")))
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing_replace)
            with pytest.raises(ServiceFailed, match="injected failure"):
                client.checkpoint()
        assert len(list(directory.rglob("seg-*.seg"))) > segments
    # only the bootstrap checkpoints exist: recovery replays every batch
    assert {path.name for path in directory.rglob("checkpoint-*.json")
            if not path.name.endswith(".refs.json")} \
        == {"checkpoint-000000000000.json"}
    assert _recover(directory, config) == GOLDEN[name]["recovered"]


def test_run_incremental_bits_equal_the_parent_commit():
    assert run_app_scenario() == GOLDEN_APP


if __name__ == "__main__":
    print(f"GOLDEN_APP = {json.dumps(run_app_scenario())}")
    for scenario in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as scratch:
            result = run_scenario(pathlib.Path(scratch) / "kb", scenario)
        print(f"    {scenario!r}: {json.dumps(result)},")
