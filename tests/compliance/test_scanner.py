"""Scanner coverage: rows, databases, marginals, sampling."""

from repro.compliance import ComplianceManifest, CompliancePolicy, Scanner
from repro.datastore import Database

ROWS = [
    ("ad0", "call 555-0187", "ann@x.io"),
    ("ad1", "call (555) 301-0187", "bob@y.org"),
    ("ad2", "no contact here", "not-an-email"),
]
COLUMNS = ("ad", "pitch", "contact")


def make_db():
    db = Database()
    db.create("ads", ad="text", pitch="text", contact="text")
    db.insert("ads", ROWS)
    db.create("notes", body="text")
    db.insert("notes", [("ssn on file 457-55-5462",), ("nothing",)])
    return db


def test_scan_rows_reports_per_column_detectors():
    manifest = Scanner().scan_rows("ads", COLUMNS, ROWS)
    assert manifest.source == "scan"
    assert manifest.rows_scanned == 3
    phone = manifest.find("ads", "pitch", "phone")
    assert phone is not None and phone.hits == 2
    assert phone.rows_scanned == 3
    assert 0 < phone.hit_rate < 1
    email = manifest.find("ads", "contact", "email")
    assert email is not None and email.hits == 2
    # the ad-id column is clean
    assert not [r for r in manifest.for_relation("ads") if r.column == "ad"]


def test_examples_are_masked_never_raw():
    manifest = Scanner().scan_rows("ads", COLUMNS, ROWS)
    for report in manifest:
        for example in report.examples:
            assert "555-0187" not in example
            assert "ann@x.io" not in example


def test_scan_database_sweeps_every_relation():
    manifest = Scanner().scan_database(make_db())
    pairs = manifest.detected_columns()
    assert ("ads", "pitch") in pairs
    assert ("ads", "contact") in pairs
    assert ("notes", "body") in pairs
    assert manifest.rows_scanned == 5


def test_scan_database_relation_subset():
    manifest = Scanner().scan_database(make_db(), relations=["notes"])
    assert {r.relation for r in manifest} == {"notes"}
    assert manifest.find("notes", "body", "ssn").confidence == 0.9


def test_scan_is_deterministic():
    db = make_db()
    assert Scanner().scan_database(db) == Scanner().scan_database(db)


def test_sampling_takes_a_prefix():
    policy = CompliancePolicy(sample_rows=1)
    manifest = Scanner(policy).scan_rows("ads", COLUMNS, ROWS)
    assert manifest.rows_scanned == 1
    phone = manifest.find("ads", "pitch", "phone")
    assert phone.hits == 1 and phone.rows_scanned == 1


def test_scan_marginals_uses_schemas_then_positional_names():
    marginals = {
        ("AdPhone", ("ad0", "555-0187")): 0.9,
        ("AdPhone", ("ad1", "555-0188")): 0.8,
        ("Mystery", ("bob@y.org",)): 0.7,
    }
    manifest = Scanner().scan_marginals(marginals,
                                        {"AdPhone": ("ad", "phone")})
    assert manifest.find("AdPhone", "phone", "phone").hits == 2
    assert manifest.find("Mystery", "col0", "email").hits == 1
    assert manifest.rows_scanned == 3


def test_sampled_marginal_scan_counts_the_rows_it_read():
    # ten email keys of one relation, two sampled: the manifest total is
    # the rows the scan read, as its report and a database scan say
    rows = [(f"u{i}@host.example",) for i in range(10)]
    scanner = Scanner(CompliancePolicy(sample_rows=2))
    manifest = scanner.scan_marginals({("Mail", row): 0.5 for row in rows})
    assert manifest.rows_scanned == 2
    assert manifest.find("Mail", "col0", "email").rows_scanned == 2
    db = Database()
    db.create("Mail", col0="text")
    db.insert("Mail", rows)
    assert scanner.scan_database(db) == manifest


def test_sampling_caps_each_column_of_ragged_rows():
    # a column stops after sample_rows cells; the loop reads on until the
    # narrower rows have filled every column
    rows = [("ann@x.io",), ("bob@y.org",), ("cy@z.net", "555-0187"),
            ("dee@w.com", "555-0188"), ("eve@v.com", "555-0189")]
    manifest = Scanner(CompliancePolicy(sample_rows=2)).scan_rows(
        "t", ("a", "b"), iter(rows))
    assert manifest.rows_scanned == 4
    assert manifest.find("t", "a", "email").hits == 2
    assert manifest.find("t", "b", "phone").hits == 2


def test_non_string_cells_are_stringified():
    manifest = Scanner().scan_rows("t", ("n",), [(4111111111111111,)])
    assert manifest.find("t", "n", "credit_card") is not None


def test_manifest_roundtrip_and_merge():
    manifest = Scanner().scan_rows("ads", COLUMNS, ROWS)
    assert ComplianceManifest.from_dict(manifest.to_dict()) == manifest
    merged = manifest.merge(manifest)
    phone = merged.find("ads", "pitch", "phone")
    assert phone.hits == 4 and phone.rows_scanned == 6
    assert merged.rows_scanned == 6
    assert ComplianceManifest.merge_all([None, manifest, None]) == manifest
    assert ComplianceManifest.merge_all([None, None]) is None


def test_scanner_custom_detector_battery():
    from repro.compliance.detectors import EmailDetector
    scanner = Scanner(detectors=(EmailDetector(),))
    manifest = scanner.scan_rows("ads", ("pitch",),
                                 [(row[1],) for row in ROWS])
    assert manifest.reports == ()             # phones invisible to email-only


class _CountingRelation:
    """Row-iterator protocol stub that counts how far it was consumed."""

    name = "stream"

    class schema:
        names = ("body",)

    def __init__(self, total):
        self.total = total
        self.pulled = 0

    def iter_rows(self):
        for i in range(self.total):
            self.pulled += 1
            yield (f"row {i} call 555-0187",)


def test_scan_relation_streams_and_sampling_stops_consuming():
    relation = _CountingRelation(10_000)
    scanner = Scanner(CompliancePolicy(sample_rows=3))
    manifest = scanner.scan_rows(relation.name, relation.schema.names,
                                 relation.iter_rows())
    assert manifest.rows_scanned == 3
    # prefix sampling: the stream is abandoned, not drained (and rows are
    # fed straight into tallies, never buffered per column)
    assert relation.pulled <= 4
    reports = manifest.reports
    assert reports[0].detector == "phone" and reports[0].hits == 3
