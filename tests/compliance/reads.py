"""Lookups over a :class:`~repro.compliance.manifest.ComplianceManifest`'s
reports, for the compliance tests."""


def find_report(manifest, relation, column, detector):
    """The report for ``relation.column`` by ``detector``, or None."""
    return next((report for report in manifest
                 if (report.relation, report.column, report.detector)
                 == (relation, column, detector)), None)


def ruled_actions(manifest):
    """``(relation, column) -> action`` for every non-allow report."""
    return {(report.relation, report.column): report.action
            for report in manifest if report.action != "allow"}
