"""Tests for the table-extraction substrate."""

from repro.nlp.tables import cell_candidates, extract_tables

HTML = """
<p>Measured properties:</p>
<table>
  <tr><th>Material</th><th>Mobility</th><th>Band gap</th></tr>
  <tr><td>GaAs</td><td>8500</td><td>1.4</td></tr>
  <tr><td>InP</td><td>5400</td><td>1.3</td></tr>
</table>
<table>
  <tr><td>no</td><td>header</td></tr>
  <tr><td>plain</td><td>table</td></tr>
</table>
"""


class TestExtractTables:
    def test_finds_all_tables(self):
        tables = extract_tables("d", HTML)
        assert len(tables) == 2

    def test_dimensions(self):
        tables = extract_tables("d", HTML)
        assert len(tables[0]) == 3          # header + 2 data rows
        assert len(tables[0][0]) == 3       # 3 columns

    def test_header_flag(self):
        tables = extract_tables("d", HTML)
        assert all(cell.is_header for cell in tables[0][0])
        assert not any(cell.is_header for cell in tables[0][1])

    def test_cell_ids_unique(self):
        tables = extract_tables("d", HTML)
        ids = [cell.cell_id for table in tables for row in table for cell in row]
        assert len(set(ids)) == len(ids)

    def test_nested_markup_stripped(self):
        tables = extract_tables("d", "<table><tr><th>h</th></tr>"
                                     "<tr><td><b>bold</b> text</td></tr></table>")
        assert tables[0][1][0].text == "bold text"

    def test_no_tables(self):
        assert extract_tables("d", "<p>just text</p>") == []


class TestCellCandidates:
    def test_triples_extracted(self):
        triples = {(rh, ch, v) for _, rh, ch, v in cell_candidates("d", HTML)}
        assert ("GaAs", "Mobility", "8500") in triples
        assert ("InP", "Band gap", "1.3") in triples

    def test_headerless_table_skipped(self):
        triples = cell_candidates("d", HTML)
        assert all(value != "table" for _, _, _, value in triples)

    def test_count(self):
        # 2 data rows x 2 value columns from the headered table
        assert len(cell_candidates("d", HTML)) == 4

    def test_cell_id_resolvable(self):
        cell_id, _, _, _ = cell_candidates("d", HTML)[0]
        assert cell_id.startswith("d:t0:")
