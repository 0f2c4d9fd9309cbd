"""Human-readable listings of equation sets, including the grouped
compressed form, and re-expansion of a grouped listing back into a set.

A grouped region line looks like

    Sheet1[ {1} >< { 37..829 by 33 } ] = Sheet1[ HERE, HERE - 33 ]+1

reading: the cells at the cross product of those columns and rows all hold
the given relative formula, with HERE+-k standing for an offset from the
containing cell (column subscript first, row second).
"""

from __future__ import annotations

from itertools import chain

from .errors import FormulaSyntaxError
from .formula import (
    CANONICAL,
    formula_groups,
    print_formula,
)
from .grammar import (
    ID,
    EntryReader,
    TokenStream,
    read_int,
)
from .model import (
    DEFAULT_SHEET,
    MAX_COL,
    MAX_EQUATIONS,
    MAX_ROW,
    CellAddr,
    ElemRef,
    Equation,
    EquationSet,
    Formula,
    Here,
    RelRef,
    map_leaves,
)


def _eq_lines(eqs) -> list[str]:
    """`lhs = rhs` for each equation.  A canonical text depends only on the
    tree and its home sheet, so a tree that the equation before holds on the
    same sheet, as along a copy-filled row, is not printed again."""
    lines, last, last_home, text = [], None, None, None
    for lhs, rhs in eqs:
        cell = isinstance(lhs, CellAddr)
        home = lhs.sheet if cell else DEFAULT_SHEET
        if rhs is not last or home != last_home:
            last, last_home = rhs, home
            text = print_formula(rhs, CANONICAL, lhs if cell else None)
        lines.append(f"{lhs.a1() if cell else lhs} = {text}")
    return lines


def show(s: EquationSet, grouped: bool = False) -> str:
    lines = _grouped_lines(s) if grouped else _eq_lines(s)
    lines += [str(d) for d in s.layouts]
    lines += [f"name {rng} as {name}" for name, rng in sorted(s.names.items())]
    return "\n".join(lines)


def _axis_text(values) -> str:
    values = list(values)
    if len(values) == 1:
        return f"{{{values[0]}}}"
    step = values[1] - values[0]
    if all(b - a == step for a, b in zip(values, values[1:])) and step > 0:
        if step == 1:
            return f"{{ {values[0]}..{values[-1]} }}"
        return f"{{ {values[0]}..{values[-1]} by {step} }}"
    return f"{{ {', '.join(str(v) for v in values)} }}"


def _here_text(f: Formula, sheet: str) -> str:
    def fix(node):
        if isinstance(node, RelRef):
            return ElemRef(sheet, (Here(node.d_col), Here(node.d_row)))
        return node

    return print_formula(map_leaves(f, fix), CANONICAL, spaced_elems=True)


def _grouped_lines(s: EquationSet) -> list[str]:
    lines = []
    for (sheet, rel), eqs in formula_groups(s).items():
        if len(eqs) == 1:
            lines += _eq_lines(eqs)
            continue
        body = _here_text(rel, sheet)
        by_col: dict[int, list[int]] = {}
        for eq in eqs:
            by_col.setdefault(eq.lhs.col, []).append(eq.lhs.row)
        by_rows: dict[tuple, list[int]] = {}
        for col in sorted(by_col):
            by_rows.setdefault(tuple(sorted(by_col[col])), []).append(col)
        for rows, cols in sorted(by_rows.items(), key=lambda kv: (kv[1][0], kv[0][0])):
            lines.append(
                f"{sheet}[ {_axis_text(sorted(cols))} >< {_axis_text(rows)} ] = {body}")
    lines += _eq_lines(eq for eq in s if not isinstance(eq.lhs, CellAddr))
    return lines


# ---------------------------------------------------------------------------
# Re-expanding a grouped listing


def _parse_axis(stream: TokenStream, cap: int) -> list[range]:
    """`{ a, b..c, d..e by k }`: columns or rows, each from 1 to cap, as
    one range per item."""
    stream.expect_op("{")
    values: list[range] = []
    while True:
        pos = stream.peek()[2]
        lo = hi = read_int(stream, signed=False)
        step = 1
        if stream.accept_op(".."):
            hi = read_int(stream, signed=False)
            if stream.peek()[:2] == (ID, "by"):
                stream.next()
                step = read_int(stream, signed=False)
        if lo < 1 or hi > cap or step < 1:
            raise FormulaSyntaxError(f"axis values lie in 1..{cap}, steps are at least 1", pos)
        values.append(range(lo, hi + 1, step))
        if not stream.accept_op(","):
            break
    stream.expect_op("}")
    return values


def _relativize_here(f: Formula, sheet: str) -> Formula:
    def fix(node):
        if (isinstance(node, ElemRef) and node.name == sheet
                and len(node.subs) == 2
                and all(isinstance(sub, Here) for sub in node.subs)):
            return RelRef(node.subs[0].offset, node.subs[1].offset)
        return node

    return map_leaves(f, fix)


class _ListingReader(EntryReader):
    """The `.exc` entries plus region lines `Sheet[ cols >< rows ] = body`,
    each expanding to one equation per cell holding the relative body."""

    def entry(self) -> None:
        s = self.s
        if not (s.peek()[0] == ID and s.at_op("[", ahead=1) and s.at_op("{", ahead=2)):
            super().entry()
            return
        pos = s.peek()[2]
        sheet = s.next()[1]
        s.expect_op("[")
        cols = _parse_axis(s, MAX_COL)
        s.expect_op("><")
        rows = _parse_axis(s, MAX_ROW)
        s.expect_op("]")
        if sum(map(len, cols)) * sum(map(len, rows)) > MAX_EQUATIONS:
            raise FormulaSyntaxError(f"a region line makes at most {MAX_EQUATIONS} equations", pos)
        s.expect_op("=")
        s.more()
        self.formula.sheet = DEFAULT_SHEET
        rhs = _relativize_here(self.formula.expression(), sheet)
        for col in chain.from_iterable(cols):
            for row in chain.from_iterable(rows):
                self.equations.append(Equation(CellAddr(sheet, col, row), rhs))


def parse_listing(text: str) -> EquationSet:
    """Parse a listing produced by show(): plain equation lines, region
    lines, layout and name lines."""
    with TokenStream(text) as stream:
        return _ListingReader(stream).document()
