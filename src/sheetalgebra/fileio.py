"""The `.exc` text format: loading and saving equation-set documents, plus
CSV export of evaluated grids.

A document is a sequence of entries, one per line (commas also accepted as
separators):

    # comment
    A2 = 2000
    Profit[2000] = Sales[2000]-Expenses[2000]
    layout Year[2000:2001] as A2 down
    name B2:B9 as costs
"""

from __future__ import annotations

import csv
from contextlib import contextmanager

from .errors import DomainError, FormulaSyntaxError, LoadError
from .formula import fmt_number
from .grammar import EntryReader, TokenStream
from .model import CellAddr, EquationSet


def parse_document(text: str) -> EquationSet:
    with TokenStream(text) as stream:
        return EntryReader(stream).document()


@contextmanager
def opened(path: str, mode: str = "r", newline=None):
    """`open` of a UTF-8 text file, where a file that cannot be read or
    written (or decoded) raises LoadError."""
    try:
        with open(path, mode, newline=newline, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeError) as exc:
        raise LoadError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def load(path: str) -> EquationSet:
    """Read a `.exc` document.  Binary spreadsheet formats are rejected."""
    lower = path.lower()
    if lower.endswith((".xls", ".xlsx")):
        raise LoadError(
            f"{path}: binary spreadsheet formats are unsupported; "
            "export the sheet to the .exc text format instead")
    if not lower.endswith(".exc"):
        raise LoadError(f"{path}: expected a .exc file")
    with opened(path) as fh:
        text = fh.read()
    try:
        return parse_document(text)
    except FormulaSyntaxError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def save(s: EquationSet, path: str) -> None:
    """Write the canonical `.exc` form: equations in canonical order, one
    per line, then layout and name statements."""
    from .listing import show

    body = show(s)
    with opened(path, "w") as fh:
        fh.write("# equation-set document\n")
        if body:
            fh.write(body + "\n")


def format_value(v) -> str:
    if isinstance(v, float):
        return fmt_number(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)  # text, or an error as its #TAG!


def export_csv(grid: dict, path: str) -> None:
    """Write the bounding box of a one-sheet value grid as RFC 4180 CSV, in
    one row-major pass over the box."""
    sheets = {a.sheet for a in grid}
    if len(sheets) > 1:
        raise DomainError(f"grid spans multiple sheets: {sorted(sheets)}")
    with opened(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        if grid:
            (sheet,) = sheets
            _, cols, rows = zip(*grid)
            cols = range(min(cols), max(cols) + 1)
            # every cell of the box lies between two cells of the grid, so on it
            get, cell = grid.get, CellAddr._make
            writer.writerows([format_value(get(cell((sheet, c, r)))) for c in cols]
                             for r in range(min(rows), max(rows) + 1))
