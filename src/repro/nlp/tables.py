"""Table extraction: the second dark-data modality.

The paper's opening line counts "text, tables, and images" as dark data.
This module parses HTML tables out of documents into cell records and turns
them into candidate rows the same way sentence extractors do: a
:class:`TableCell` is addressable by (document, table, row, column), carries
its header context, and :func:`cell_candidates` yields
``(row_header, column_header, value)`` triples -- the natural aspirational
schema for the measurement tables of materials-science papers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TABLE = re.compile(r"<table\b[^>]*>(.*?)</table\s*>", re.IGNORECASE | re.DOTALL)
_ROW = re.compile(r"<tr\b[^>]*>(.*?)</tr\s*>", re.IGNORECASE | re.DOTALL)
_CELL = re.compile(r"<(t[dh])\b[^>]*>(.*?)</t[dh]\s*>", re.IGNORECASE | re.DOTALL)
_TAG = re.compile(r"<[^>]+>")


@dataclass(frozen=True)
class TableCell:
    """One cell of one table in one document."""

    doc_id: str
    table_index: int
    row: int
    column: int
    text: str
    is_header: bool

    @property
    def cell_id(self) -> str:
        return f"{self.doc_id}:t{self.table_index}:r{self.row}c{self.column}"


def extract_tables(doc_id: str, html: str) -> list[list[list[TableCell]]]:
    """All tables in ``html`` as nested [table][row][cell] lists."""
    tables = []
    for table_index, table_match in enumerate(_TABLE.finditer(html)):
        rows = []
        for row_index, row_match in enumerate(_ROW.finditer(table_match.group(1))):
            cells = []
            for column, cell_match in enumerate(_CELL.finditer(row_match.group(1))):
                text = _TAG.sub(" ", cell_match.group(2))
                text = " ".join(text.split())
                cells.append(TableCell(
                    doc_id=doc_id, table_index=table_index, row=row_index,
                    column=column, text=text,
                    is_header=cell_match.group(1).lower() == "th"))
            if cells:
                rows.append(cells)
        if rows:
            tables.append(rows)
    return tables


def cell_candidates(doc_id: str, html: str) -> list[tuple[str, str, str, str]]:
    """(cell_id, row_header, column_header, value) for every data cell.

    Header resolution: the first row supplies column headers (or ``th``
    cells anywhere in column position 0 of a row supply row headers); data
    cells are everything else.  Tables without a header row yield nothing --
    high precision is fine here because the probabilistic layer downstream
    does the filtering, exactly as with sentence candidates.
    """
    candidates: list[tuple[str, str, str, str]] = []
    for table in extract_tables(doc_id, html):
        if len(table) < 2:
            continue
        header_row = table[0]
        if not any(cell.is_header for cell in header_row):
            continue
        column_headers = {cell.column: cell.text for cell in header_row}
        for row in table[1:]:
            row_header = row[0].text if row else ""
            for cell in row[1:]:
                column_header = column_headers.get(cell.column, "")
                if cell.text and column_header:
                    candidates.append((cell.cell_id, row_header,
                                       column_header, cell.text))
    return candidates
