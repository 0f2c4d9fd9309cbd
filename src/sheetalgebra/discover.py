"""Structure discovery: find data blocks in a raw sheet, group identical
formulas, read off neighbouring labels and subscript sequences, and propose
layout directives good enough to decompile with.

All heuristics are deterministic: fixed scan order, fixed word lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SheetError
from .fileio import parse_document
from .layout import DOWN, RIGHT, LayoutDirective, LayoutSet
from .model import (
    ArrayElem,
    Call,
    CellAddr,
    ElemRef,
    Equation,
    EquationSet,
    Number,
    RangeArg,
    Rect,
    Text,
    col_to_letters,
    is_constant,
    lhs_sort_key,
    walk,
)
from .formula import canonical_text, formula_groups, to_absolute

MONTHS = ("january", "february", "march", "april", "may", "june", "july",
          "august", "september", "october", "november", "december")
MONTHS_SHORT = tuple(m[:3] for m in MONTHS)
WEEKDAYS = ("monday", "tuesday", "wednesday", "thursday", "friday",
            "saturday", "sunday")
WEEKDAYS_SHORT = tuple(d[:3] for d in WEEKDAYS)


@dataclass(frozen=True)
class FormulaGroup:
    canonical_relative: str
    cells: tuple


def discover_groups(s: EquationSet) -> list[FormulaGroup]:
    """Partition the non-constant formula cells of each sheet by canonical
    relative form.  Largest groups first; ties broken by first cell."""
    out = [FormulaGroup(canonical_text(rel), tuple(eq.lhs for eq in eqs))
           for (_, rel), eqs in formula_groups(s).items() if not is_constant(rel)]
    out.sort(key=lambda g: (-len(g.cells), lhs_sort_key(g.cells[0])))
    return out


def discover_blocks(s: EquationSet) -> list[Rect]:
    """Rectangular data regions: bounding boxes of connected runs of
    non-text cells, grown until boxes no longer overlap.  Every cell on the
    boundary ring is then blank or text by construction of the components.
    Ranges passed to SUM extend a box they overlap.  Only a formula that
    calls SUM is resolved against its cell, so only such a formula raises
    for a HERE marker or a relative reference off the grid."""
    by_sheet: dict[str, set[tuple[int, int]]] = {}
    sum_rects: dict[str, list[Rect]] = {}
    for eq in s:
        if not isinstance(eq.lhs, CellAddr):
            continue
        sheet = eq.lhs.sheet
        if not isinstance(eq.rhs, Text):
            by_sheet.setdefault(sheet, set()).add((eq.lhs.col, eq.lhs.row))
        if not any(isinstance(node, Call) and node.func == "SUM" for node in walk(eq.rhs)):
            continue
        for node in walk(to_absolute(eq.rhs, eq.lhs)):
            if isinstance(node, Call) and node.func == "SUM":
                for arg in node.args:
                    if isinstance(arg, RangeArg):
                        for rect in arg.range.rects:
                            if rect.bounded:
                                sum_rects.setdefault(rect.sheet, []).append(rect)

    blocks: list[Rect] = []
    for sheet in sorted(by_sheet):
        cells = by_sheet[sheet]
        boxes = []
        unvisited = set(cells)
        for start in sorted(cells, key=lambda cr: (cr[1], cr[0])):
            if start not in unvisited:
                continue
            stack = [start]
            unvisited.discard(start)
            comp = []
            while stack:
                c, r = stack.pop()
                comp.append((c, r))
                for nc, nr in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
                    if (nc, nr) in unvisited:
                        unvisited.discard((nc, nr))
                        stack.append((nc, nr))
            cols = [c for c, _ in comp]
            rows = [r for _, r in comp]
            boxes.append([min(cols), max(cols), min(rows), max(rows)])

        for rect in sum_rects.get(sheet, ()):
            for box in boxes:
                if rect.col_lo <= box[1] and box[0] <= rect.col_hi \
                        and rect.row_lo <= box[3] and box[2] <= rect.row_hi:
                    box[:] = [min(box[0], rect.col_lo), max(box[1], rect.col_hi),
                              min(box[2], rect.row_lo), max(box[3], rect.row_hi)]

        # merge overlapping boxes to a fixpoint so blocks never overlap: in
        # first-column order a box meets only later boxes starting within its
        # columns; a grown box may meet an earlier one, so passes repeat
        boxes.sort()
        changed = True
        while changed:
            changed = False
            i = 0
            while i < len(boxes):
                a, j = boxes[i], i + 1
                i += 1
                while j < len(boxes) and boxes[j][0] <= a[1]:
                    b = boxes[j]
                    if a[2] <= b[3] and b[2] <= a[3]:
                        a[1:] = [max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])]
                        del boxes[j]
                        changed = True
                    else:
                        j += 1
        boxes.sort(key=lambda b: (b[2], b[0]))
        blocks.extend(Rect(sheet, b[0], b[1], b[2], b[3]) for b in boxes)
    return blocks


def sanitize_identifier(label: str) -> str:
    """An array name from a label; `_` is appended to one that the reader
    does not read back as an array (`RC`, `True`, `R1C1`, `name`)."""
    name = label.strip().replace(" ", "_")
    name = re.sub(r"[^A-Za-z0-9_]", "", name)
    if not name:
        return ""
    if not re.match(r"[A-Za-z_]", name):
        name = "_" + name
    try:
        reads = parse_document(f"{name}[1] = {name}[1]") == EquationSet(
            [Equation(ArrayElem(name, (1,)), ElemRef(name, (1,)))])
    except SheetError:
        reads = False
    return name if reads else name + "_"


@dataclass(frozen=True)
class LabelCandidates:
    # column/row index -> (identifier, source cell or None for fallbacks)
    columns: dict
    rows: dict


def _axes(block: Rect) -> tuple:
    """The block's axes, down then right: a sequence's name and an array's
    orientation along it, the lines across it, the coordinates along it,
    and the cell at a line and a coordinate."""
    cols = range(block.col_lo, block.col_hi + 1)
    rows = range(block.row_lo, block.row_hi + 1)

    def cell(col, row):  # None off the grid, which no equation set holds
        return CellAddr(block.sheet, col, row) if col >= 1 and row >= 1 else None
    return (("rows", DOWN, cols, rows, cell),
            ("cols", RIGHT, rows, cols, lambda row, col: cell(col, row)))


def infer_labels(s: EquationSet, block: Rect) -> LabelCandidates:
    """Name candidates from text cells near the block: for each column the
    nearest text cell at most two rows above; for each row the nearest text
    cell at most two columns to the left."""

    def labels(axis, fallback):
        _, _, lines, along, at = axis
        out = {}
        for line in lines:
            for d in (1, 2):
                eq = s.get(at(line, along[0] - d))
                if eq is not None and isinstance(eq.rhs, Text):
                    name = sanitize_identifier(eq.rhs.value)
                    if name:
                        out[line] = (name, eq.lhs)
                        break
            else:
                out[line] = (fallback(line), None)
        return out

    down, right = _axes(block)
    return LabelCandidates(labels(down, lambda col: f"col_{col_to_letters(col)}"),
                           labels(right, lambda row: f"row_{row}"))


@dataclass(frozen=True)
class SubscriptCandidate:
    axis: str  # "rows": sequence runs down; "cols": sequence runs right
    kind: str  # "arithmetic", "months", "weekdays"
    values: tuple
    cells: tuple
    step: int | None = None


def _integer_sequence(eqs):
    values = []
    for eq in eqs:
        if eq is None or not isinstance(eq.rhs, Number):
            return None
        v = eq.rhs.value
        if v != int(v):
            return None
        values.append(int(v))
    if len(values) < 2:
        return None
    step = values[1] - values[0]
    if any(b - a != step for a, b in zip(values, values[1:])) or step == 0:
        return None
    return values, step


def _word_run(eqs):
    words = []
    for eq in eqs:
        if eq is None or not isinstance(eq.rhs, Text):
            return None
        words.append(eq.rhs.value.strip().lower())
    if len(words) < 2:
        return None
    for kind, cycle in (("months", MONTHS), ("months", MONTHS_SHORT),
                        ("weekdays", WEEKDAYS), ("weekdays", WEEKDAYS_SHORT)):
        if words[0] in cycle:
            start = cycle.index(words[0])
            if all(w == cycle[(start + i) % len(cycle)] for i, w in enumerate(words)):
                return kind, words
    return None


def infer_subscripts(s: EquationSet, block: Rect) -> list[SubscriptCandidate]:
    """Index-sequence candidates: the column left of the block and the row
    above it, then the block's own first column/row.  A candidate is an
    integer arithmetic progression or a month/weekday run."""
    out = []
    for before in (1, 0):  # the line before the block, then its first line
        for axis, _, lines, along, at in _axes(block):
            eqs = [s.get(at(lines[0] - before, k)) for k in along]
            seq = _integer_sequence(eqs)
            if seq is not None:
                values, step = seq
                cells = tuple(eq.lhs for eq in eqs)
                out.append(SubscriptCandidate(axis, "arithmetic", tuple(values), cells, step))
                continue
            run = _word_run(eqs)
            if run is not None:
                kind, words = run
                cells = tuple(eq.lhs for eq in eqs)
                out.append(SubscriptCandidate(axis, kind, tuple(words), cells))
    return out


@dataclass(frozen=True)
class LayoutProposal:
    directives: LayoutSet
    name_evidence: dict = field(default_factory=dict)
    subscript_evidence: dict = field(default_factory=dict)


def propose_layout(s: EquationSet) -> LayoutProposal:
    """Blocks -> one 1-D directive per column (or row), named from nearby
    labels and indexed by a detected subscript sequence (fallback 1..n)."""
    directives, name_evidence, subscript_evidence, used_names = [], {}, {}, set()

    def unique(name):
        new, k = name, 2
        while new in used_names:
            new, k = f"{name}_{k}", k + 1
        used_names.add(new)
        return new

    for block in discover_blocks(s):
        labels = infer_labels(s, block)
        first = {c.axis: c for c in reversed(infer_subscripts(s, block))}
        # a sequence along the top only: arrays run right, one per row
        i = "cols" in first and "rows" not in first
        axis, orientation, lines, along, at = _axes(block)[i]
        candidate = first.get(axis)
        box = _index_range(candidate, len(along))
        evidence = (labels.columns, labels.rows)[i]
        for line in lines:
            name = unique(evidence[line][0])
            directives.append(LayoutDirective(name, (box,), at(line, along[0]), orientation))
            name_evidence[name] = evidence[line]
            if candidate is not None:
                subscript_evidence[name] = candidate
    return LayoutProposal(LayoutSet(directives), name_evidence, subscript_evidence)


def _index_range(candidate, n):
    if (candidate is not None and candidate.kind == "arithmetic"
            and candidate.step == 1 and len(candidate.values) == n):
        return (candidate.values[0], candidate.values[-1])
    return (1, n)
