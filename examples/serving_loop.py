"""A live knowledge base: ingest, query, crash, recover (repro.serve).

The batch pipeline answers "run this program over this corpus once"; the
serving layer keeps the KB *alive*.  This demo walks the full story
through :class:`~repro.serve.KBClient`, the one sanctioned surface over
both serving backends:

1. bootstrap a service over a small mention-extraction program;
2. stream in documents and supervision updates while querying between
   batches (readers see immutable versioned snapshots);
3. hot-add a DDlog rule (the full re-extraction regime);
4. simulate a crash right after a write-ahead-log append — the worst
   moment — and recover to bit-identical marginals from checkpoint + WAL;
5. rebuild the same KB sharded two ways and show the client surface
   (snapshot, query, lsn_vector, tenants) is identical either way;
6. turn on a compliance policy and watch publish-time scrubbing hide PII
   from readers while ``scan()`` still audits the raw store underneath.

Each step asserts what it printed: refresh kinds and versions, recovery
bit-identical to the pre-crash view with the torn batch replayed, the
sharded reads pinned by their LSN vector, and no raw email in a published
key while the audit scan still finds it.

Run:  python examples/serving_loop.py
"""

import shutil
import tempfile

from repro.compliance import CompliancePolicy
from repro.core.app import DeepDive
from repro.inference import LearningOptions
from repro.serve import (AddRules, KBClient, ServeConfig, ServiceFailed,
                         add_documents, add_rows, remove_rows)

PROGRAM = """
Content(s text, content text).
NameMention(s text, m text, token text, position int).
GoodName?(m text).
GoodList(token text).
BadList(token text).

GoodName(m) :-
    NameMention(s, m, t, p), Content(s, content)
    weight = name_features(t, content).

GoodName_Ev(m, true) :- NameMention(s, m, t, p), GoodList(t).
GoodName_Ev(m, false) :- NameMention(s, m, t, p), BadList(t).
"""

GOOD = ["apple", "plum", "pear", "fig", "grape", "melon"]
BAD = ["rust", "mold", "rot", "slime", "blight", "decay"]


def extractor(sentence):
    rows = []
    for position, token in enumerate(sentence.tokens):
        lower = token.lower()
        if lower in GOOD + BAD:
            rows.append((sentence.key, f"{sentence.key}:{position}",
                         lower, position))
    return rows


def app_factory(extra_rules=""):
    """The serve contract: a fresh app per call, rule deltas appended."""
    source = PROGRAM + ("\n" + extra_rules if extra_rules else "")
    app = DeepDive(source, seed=0)
    app.register_udf("name_features",
                     lambda t, content: [f"word:{t}",
                                         "fresh" if t in GOOD else "spoiled"])
    app.add_extractor("NameMention", extractor)
    app.add_extractor("Content", lambda s: [(s.key, s.text)])
    return app


RUN_KWARGS = dict(threshold=0.7, learning=LearningOptions(epochs=40, seed=0),
                  num_samples=120, burn_in=20)


def describe(tag, snapshot):
    accepted = sorted(snapshot.output_tuples("GoodName"))
    print(f"  {tag}: version {snapshot.version} (lsn {snapshot.lsn}, "
          f"refresh={snapshot.refresh}) — {len(snapshot)} variables, "
          f"{len(accepted)} accepted")


def main():
    directory = tempfile.mkdtemp(prefix="repro-serve-")
    config = ServeConfig(checkpoint_every=2, refresh_samples=60,
                         refresh_burn_in=15)
    bootstrap = [
        add_documents([(f"d{i}", f"the {g} and the {b} sat there .")
                       for i, (g, b) in enumerate(zip(GOOD[:3], BAD[:3]))]),
        add_rows("GoodList", [(g,) for g in GOOD[:3]]),
        add_rows("BadList", [(b,) for b in BAD[:3]]),
    ]

    print("== bootstrap (full learn + inference, checkpoint 0)")
    client = KBClient.create(directory, app_factory, bootstrap,
                             config=config, run_kwargs=RUN_KWARGS)
    snapshot = client.snapshot()
    describe("v0", snapshot)
    assert (snapshot.version, snapshot.refresh) == (0, "full_run")

    print("\n== streaming ingest (incremental grounding + refresh)")
    snapshot = client.ingest(
        [add_documents([("n0", "the grape and the blight sat there .")])])
    describe("new doc", snapshot)
    assert (snapshot.version, snapshot.refresh) == (1, "sampling")
    assert ("n0:0:1",) in snapshot.output_tuples("GoodName")   # the grape
    snapshot = client.ingest([remove_rows("GoodList", [("apple",)])])
    describe("retract supervision", snapshot)
    assert (snapshot.version, snapshot.refresh) == (2, "sampling")

    print("\n== rule delta (full re-extraction regime)")
    snapshot = client.ingest(
        [AddRules("ExtraGood(token text).\n"
                  "GoodName_Ev(m, true) :- "
                  "NameMention(s, m, t, p), ExtraGood(t).")])
    describe("new rule", snapshot)
    assert (snapshot.version, snapshot.refresh) == (3, "full_run")
    snapshot = client.ingest([add_rows("ExtraGood", [("grape",)])])
    describe("supervise via new rule", snapshot)
    expected = dict(snapshot.marginals)
    assert snapshot.lsn == 4

    print("\n== crash: die right after the WAL append of the next batch")
    # admin/fault surfaces live on the backend; .service is the escape hatch
    client.service.fault_hooks["after_wal_append"] = lambda lsn, batch: (
        (_ for _ in ()).throw(RuntimeError(f"power loss at lsn {lsn}")))
    try:
        client.ingest([add_documents([("n1", "the melon sat there .")])])
    except ServiceFailed as failure:
        print(f"  ingest failed as expected: {failure}")
    else:
        raise AssertionError("the crash hook did not fire")
    client.service.wal.close()

    print("\n== recover: newest checkpoint + WAL tail replay")
    with KBClient.open(directory, app_factory, config=config,
                       run_kwargs=RUN_KWARGS) as recovered:
        snapshot = recovered.snapshot()
        describe("recovered", snapshot)
        survivors = {key: value for key, value in snapshot.marginals.items()
                     if key in expected}
        identical = survivors == {key: expected[key] for key in survivors}
        print(f"  pre-crash marginals bit-identical after recovery: "
              f"{identical}")
        print(f"  the torn batch (durable in the WAL) was replayed too: "
              f"lsn {snapshot.lsn}")
        assert identical and len(survivors) == len(expected)
        assert snapshot.lsn == 5 and len(snapshot) == len(expected) + 1
    shutil.rmtree(directory)

    print("\n== the same KB, sharded: identical client surface")
    directory = tempfile.mkdtemp(prefix="repro-serve-sharded-")
    sharded_config = config.with_options(shards=2, checkpoint_every=0)
    with KBClient.create(directory, app_factory, bootstrap,
                         config=sharded_config,
                         run_kwargs=RUN_KWARGS) as client:
        print(f"  backend: {client!r}")
        client.service.register_tenant("ingest-team", quota=64)
        merged = client.ingest(
            [add_documents([("n0", "the grape and the blight sat there .")])],
            tenant="ingest-team")
        accepted = sorted(client.query("GoodName"))
        print(f"  lsn vector {merged.lsn_vector} "
              f"(one component per shard), {len(accepted)} accepted")
        # versioned cross-shard read: the vector pins every shard at once
        pinned = client.snapshot_at(merged.lsn_vector)
        print(f"  snapshot_at(vector) re-reads the same view: "
              f"{dict(pinned.marginals) == dict(merged.marginals)}")
        assert len(merged.lsn_vector) == 2 and sum(merged.lsn_vector) == 1
        assert dict(pinned.marginals) == dict(merged.marginals)
        assert accepted == sorted(merged.output_tuples("GoodName"))
    shutil.rmtree(directory)

    print("\n== compliance: scrubbed published views over a raw store")
    directory = tempfile.mkdtemp(prefix="repro-serve-compliance-")
    policy = CompliancePolicy(enabled=True, default_action="anonymize",
                              min_confidence=0.5)
    with KBClient.create(directory, app_factory, bootstrap,
                         config=config.with_options(compliance=policy,
                                                    checkpoint_every=0),
                         run_kwargs=RUN_KWARGS) as client:
        # a lead whose document key is an email address, with a phone
        # number in the content — exactly the dark data the paper mines
        snapshot = client.ingest([add_documents(
            [("ann@leads.example", "call 555-0187 , the plum sat there .")])])
        keys = [str(values) for _rel, values in snapshot.marginals]
        leaked = [key for key in keys if "ann@leads.example" in key]
        surrogates = [key for key in keys if "redacted.example" in key]
        print(f"  published keys leaking the raw email: {len(leaked)}; "
              f"stable surrogates instead: {len(surrogates)}")
        manifest = client.compliance_manifest()
        print(f"  snapshot manifest: "
              f"{sorted(manifest.detected_columns())} -> anonymize")
        # the raw store is untouched — the audit scan still sees the
        # phone number sitting in the raw document content
        audit = client.scan()
        found = sorted({report.detector for report in audit if report.hits})
        print(f"  scan() over the raw store ({audit.rows_scanned} rows) "
              f"finds: {found}")
        assert not leaked and surrogates, keys
        assert {"email", "phone"} <= set(found), found
    shutil.rmtree(directory)


if __name__ == "__main__":
    main()
