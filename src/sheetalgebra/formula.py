"""Formula text: parser (on the readers of `grammar`) and printer for the A1
and R1C1 dialects, plus conversions between the raw / relative / absolute /
substituted representations of a formula.

The "canonical" dialect is the package's own printing convention, used as a
grouping key and in saved files: absolute references print A1-style, relative
references print R1C1 bracket style, function names uppercase, no whitespace,
minimal parentheses.
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType

from .errors import (
    AnchorError,
    CrossSheetError,
    DomainError,
    FormulaSyntaxError,
    OutOfGridError,
    SubstitutionError,
)
from .grammar import (  # noqa: F401  (formula.tokenize and the dialects stay public)
    A1,
    CANONICAL,
    ID,
    NUM,
    OP,
    R1C1,
    STR,
    TokenStream,
    at_range,
    cell_label,
    read_int,
    read_number,
    read_range,
    rel_offsets,
    tokenize,
    unquote_string,
)
from .model import (
    DEFAULT_SHEET,
    AbsRef,
    Binary,
    Bool,
    Call,
    CellAddr,
    CellRange,
    ElemRef,
    Empty,
    Formula,
    Here,
    NameRef,
    Neg,
    Number,
    RangeArg,
    Rect,
    RelRef,
    Text,
    col_to_letters,
    fold,
    has_here,
    map_leaves,
    map_refs,
    move_node,
    on_grid,
    rebuild,
)


# binding power of each binary operator and of unary minus, shared by the
# reader and the printer; ^ is right-associative
_PREC = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
         "+": 2, "-": 2, "*": 3, "/": 3, "^": 5}
_PREC_NEG = 4
_PREC_ATOM = 6  # a leaf or a call binds tighter than any operator


class FormulaParser:
    """Precedence-climbing parser over a shared token stream, on the
    printer's `_PREC` table.  A range (A1:B2, A:C, 2:4, Sheet2!A1:B2, or a
    parenthesized list of those) may appear only as a whole call argument,
    in the forms `print_range` writes, in every dialect."""

    def __init__(self, stream: TokenStream, dialect: str = A1,
                 sheet: str = DEFAULT_SHEET):
        self.s = stream
        self.dialect = dialect
        self.sheet = sheet

    def expression(self) -> Formula:
        return self._climb(1)

    def _climb(self, min_prec: int) -> Formula:
        """An operand, then every binary operator that binds at least
        min_prec with its right operand.  Unary minus binds its operand at
        _PREC_NEG, so -2^2 is -(2^2), and folds into a number literal; the
        operands of '-' and '^' are one nesting level deeper."""
        s = self.s
        if s.accept_op("-"):
            operand = s.nested(self._climb, _PREC_NEG)
            left = Number._make((-operand.value,)) if isinstance(operand, Number) else Neg(operand)
        else:
            left = self._primary()
        tokens = s.tokens
        while True:
            kind, op, _ = tokens[s.i]
            if kind != OP:
                return left
            p = _PREC.get(op)
            if p is None or p < min_prec:
                return left
            s.i += 1
            if op == "^":  # op is in _PREC, so Binary need not check it
                left = Binary._make((op, left, s.nested(self._climb, p)))
            else:
                if op == "=":
                    s.more()
                left = Binary._make((op, left, self._climb(p + 1)))

    # -- primaries ----------------------------------------------------------

    def _primary(self) -> Formula:
        kind, text, pos = self.s.peek()
        if kind == NUM:
            return Number._make((read_number(self.s),))
        if kind == STR:
            self.s.next()
            return Text(unquote_string(text))
        if kind == OP and text == "(":
            self.s.next()
            inner = self.s.nested(self.expression)
            self.s.expect_op(")")
            return inner
        if kind == ID:
            return self._identifier_primary()
        raise FormulaSyntaxError(f"unexpected {text or 'end of input'!r} in formula", pos)

    def _identifier_primary(self) -> Formula:
        _, text, pos = self.s.next()
        if text[0] not in "RrTtFf" and self.dialect != R1C1:
            kind, after, _ = self.s.peek()
            if kind != OP or after not in ("!", "(", "["):  # a cell label or a name
                cell = cell_label(text, self.sheet, pos=pos)
                return NameRef(text) if cell is None else AbsRef._make((cell,))
        upper = text.upper()
        if upper in ("TRUE", "FALSE") and not self.s.at_op("("):
            return Bool(upper == "TRUE")

        prefix = None
        if self.s.accept_op("!"):
            prefix = text
            kind, text, pos = self.s.next()
            if kind != ID:
                raise FormulaSyntaxError("expected reference after sheet prefix", pos)
            upper = text.upper()

        if self.s.at_op("(") and prefix is None:
            if upper == "EMPTY" and self.s.peek(1)[1] == ")":
                self.s.next()
                self.s.next()
                return Empty()
            return self._call(upper)
        if self.dialect != A1 and text[0] in "Rr":  # every R1C1 reference starts so
            ref = self._try_r1c1(text, prefix, pos)
            if ref is not None:
                return ref
        if self.dialect != R1C1 and not self.s.at_op("["):
            cell = cell_label(text, prefix or self.sheet, pos=pos)
            if cell is not None:
                return AbsRef(cell)
        if prefix is not None:
            raise FormulaSyntaxError("expected a cell reference after sheet prefix", pos)
        if self.s.at_op("["):
            return self._elem_ref(text)
        return NameRef(text)

    def _call(self, func: str) -> Formula:
        self.s.expect_op("(")
        args = []
        if not self.s.at_op(")"):
            while True:
                if at_range(self.s):
                    args.append(RangeArg(read_range(self.s, self.sheet, self.dialect)))
                else:
                    args.append(self.s.nested(self.expression))
                if not self.s.accept_op(","):
                    break
        self.s.expect_op(")")
        return Call(func, tuple(args))

    def _elem_ref(self, name: str) -> Formula:
        self.s.expect_op("[")
        subs = []
        while True:
            subs.append(self._subscript())
            if not self.s.accept_op(","):
                break
        self.s.expect_op("]")
        return ElemRef(name, tuple(subs))

    def _subscript(self):
        kind, text, _ = self.s.peek()
        if kind == ID and text.upper() == "HERE":
            self.s.next()
            if self.s.at_op("+", "-"):
                sign = -1 if self.s.next()[1] == "-" else 1
                return Here(sign * read_int(self.s, signed=False))
            return Here(0)
        return read_int(self.s)

    # -- R1C1 references ----------------------------------------------------

    def _try_r1c1(self, text: str, prefix: str | None, pos):
        cell = cell_label(text, prefix or self.sheet, r1c1=True, pos=pos)
        if cell is not None:
            return AbsRef(cell)
        offsets = rel_offsets(self.s, text)
        if offsets is not None and prefix is not None:
            raise FormulaSyntaxError("a relative reference takes no sheet prefix", pos)
        return None if offsets is None else RelRef(*offsets)


def parse_formula(src: str, dialect: str = A1, sheet: str = DEFAULT_SHEET) -> Formula:
    with TokenStream(src) as stream:
        f = FormulaParser(stream, dialect, sheet).expression()
        if not stream.at_eof:
            kind, text, pos = stream.peek()
            raise FormulaSyntaxError(f"unexpected trailing {text!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Printing


def fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def quote_string(value: str) -> str:
    return '"' + value.replace('"', '""') + '"'


def _formula_number(v: float) -> str:
    # -0.0 keeps its sign, so that the text parses back to the same bits
    if v == 0 and math.copysign(1.0, v) < 0:
        return "-0"
    return fmt_number(v)


def _rel_r1c1(d_col: int, d_row: int) -> str:
    r = "R" if d_row == 0 else f"R[{d_row}]"
    c = "C" if d_col == 0 else f"C[{d_col}]"
    return r + c


def print_range(r: CellRange) -> str:
    return _range_text(r, DEFAULT_SHEET)


def _range_text(r: CellRange, home: str) -> str:
    """A range with a `Sheet!` prefix on each rectangle off the home sheet."""
    parts = [_rect_text(rect, home) for rect in r.rects]
    if len(parts) == 1:
        return parts[0]
    return "(" + ",".join(parts) + ")"


def _rect_text(rect: Rect, home: str) -> str:
    if rect.sheet is None:
        return (f"{_rel_r1c1(rect.col_lo, rect.row_lo)}:"
                f"{_rel_r1c1(rect.col_hi, rect.row_hi)}")
    prefix = "" if rect.sheet == home else rect.sheet + "!"
    if rect.bounded:
        lo = f"{col_to_letters(rect.col_lo)}{rect.row_lo}"
        hi = f"{col_to_letters(rect.col_hi)}{rect.row_hi}"
        return f"{prefix}{lo}:{hi}"
    if rect.col_lo is not None and rect.col_hi is not None and rect.row_lo is None and rect.row_hi is None:
        lo = col_to_letters(rect.col_lo)
        if lo == "RC":
            # with its sheet, column RC never reads as the relative range RC:RC[j]
            prefix = rect.sheet + "!"
        return f"{prefix}{lo}:{col_to_letters(rect.col_hi)}"
    if rect.row_lo is not None and rect.row_hi is not None and rect.col_lo is None and rect.col_hi is None:
        return f"{prefix}{rect.row_lo}:{rect.row_hi}"
    raise DomainError("range shape has no printable form")


def print_formula(f: Formula, dialect: str = CANONICAL, anchor: CellAddr | None = None,
                  spaced_elems: bool = False) -> str:
    """The text of f, printed in one bottom-up fold.  A reference carries its
    sheet's prefix when its sheet is not the anchor's (without an anchor,
    not the default sheet).  In A1 a relative reference prints as the cell
    it names from the anchor."""
    home = DEFAULT_SHEET if anchor is None else anchor.sheet
    return fold(f, partial(_leaf_text, dialect, home, anchor, spaced_elems), _inner_text)[0]


def _leaf_text(dialect: str, home: str, anchor: CellAddr | None, spaced_elems: bool,
               node: Formula) -> tuple[str, int]:
    """The text of a node without children (a call without arguments too)
    and its binding power: a negative number's is unary minus's."""
    t = type(node)
    if dialect == A1 and (t is RelRef or t is RangeArg):
        node = move_node(_resolver(anchor), node)
        t = type(node)
    if t is RelRef:
        text = _rel_r1c1(node.d_col, node.d_row)
    elif t is AbsRef:
        sheet, col, row = node.addr
        prefix = "" if sheet == home else sheet + "!"
        text = f"{prefix}R{row}C{col}" if dialect == R1C1 else f"{prefix}{col_to_letters(col)}{row}"
    elif t is Number:
        text = _formula_number(node.value)
    elif t is RangeArg:
        text = _range_text(node.range, home)
    elif t is Text:
        text = quote_string(node.value)
    elif t is Bool:
        text = "TRUE" if node.value else "FALSE"
    elif t is ElemRef:
        subs = [_sub_text(s, spaced_elems) for s in node.subs]
        text = (f"{node.name}[ {', '.join(subs)} ]" if spaced_elems
                else f"{node.name}[{','.join(subs)}]")
    elif t is NameRef:
        text = node.name
    elif t is Empty or t is Call:
        text = ("EMPTY" if t is Empty else node.func) + "()"
    else:
        raise DomainError(f"unprintable node {node!r}")
    return text, _PREC_NEG if text[0] == "-" else _PREC_ATOM


def _sub_text(s, spaced: bool) -> str:
    if type(s) is not Here:
        return str(s)
    if s.offset == 0:
        return "HERE"
    sign = "+" if s.offset > 0 else "-"
    return f"HERE {sign} {abs(s.offset)}" if spaced else f"HERE{sign}{abs(s.offset)}"


def _inner_text(node: Formula, kids: tuple, results: list) -> tuple[str, int]:
    """The text of an operator or a call and its binding power, from its
    children's, each in parentheses where it binds looser than its place:
    ^ takes a tighter left operand (a negative base prints as (-2)^2, as
    -2^2 reads as -(2^2)), the others a tighter right one, and a call's
    arguments are whole expressions."""
    t = type(node)
    if t is Binary:
        op = node.op
        p = _PREC[op]
        (left, left_p), (right, right_p) = results
        if left_p < p + (op == "^"):
            left = f"({left})"
        if right_p < p + (op != "^"):
            right = f"({right})"
        return left + op + right, p
    if t is Neg:
        text, p = results[0]
        return (f"-({text})" if p < _PREC_NEG else "-" + text), _PREC_NEG
    return f"{node.func}({','.join([text for text, _ in results])})", _PREC_ATOM


def canonical_text(f: Formula) -> str:
    return print_formula(f, CANONICAL)


# ---------------------------------------------------------------------------
# Representation conversions; relative <-> absolute ones run on map_refs


def at_offset(a: CellAddr, d_col: int, d_row: int) -> CellAddr:
    """The cell at an offset from cell a."""
    sheet, col, row = a
    col, row = col + d_col, row + d_row
    if not on_grid(col, row):
        raise OutOfGridError(f"reference leaves the grid at {a}: col={col} row={row}")
    # on the grid, as just checked, and on a's sheet, so it needs no second check
    return CellAddr._make((sheet, col, row))


def _resolver(anchor: CellAddr | None):
    """The mover that makes relative references and ranges absolute at the
    anchor."""

    def fix(p):
        sheet, col, row = p
        if sheet is not None:
            return p
        if anchor is None:
            raise AnchorError("a relative reference needs an anchor to name a cell")
        return at_offset(anchor, col, row)

    return lambda lo, hi: (fix(lo), fix(hi))


def relativizer(anchor: CellAddr, strict: bool):
    """The mover that makes bounded references on the anchor's sheet offsets
    from the anchor.  Whole columns and rows stay absolute; so do references
    on other sheets, which strict refuses."""

    def fix(p):
        sheet, col, row = p
        if sheet is None or col is None or row is None:
            return p
        if sheet != anchor.sheet:
            if strict:
                raise CrossSheetError(
                    f"cannot make a reference on {sheet} relative to {anchor} on another sheet")
            return p
        return None, col - anchor.col, row - anchor.row

    return lambda lo, hi: (fix(lo), fix(hi))


def to_absolute(f: Formula, anchor: CellAddr) -> Formula:
    """Resolve every relative reference and range against the anchor cell,
    in one walk.  A HERE marker is refused before a reference that leaves
    the grid, wherever the two stand: such faults wait for the walk's end."""
    resolve, faults = _resolver(anchor), []

    def leaf(node):
        if type(node) is ElemRef and has_here(node):
            raise DomainError("formula contains HERE markers; resolve them first")
        try:
            return move_node(resolve, node)
        except (AnchorError, OutOfGridError) as exc:
            faults.append(exc)
            return node

    out = map_leaves(f, leaf)
    if faults:
        raise faults[0]
    return out


def to_relative(f: Formula, anchor: CellAddr) -> Formula:
    """Turn every absolute reference and bounded range into offsets from the
    anchor.  Cross-sheet references cannot be made relative; whole columns
    and rows stay absolute."""
    return map_refs(f, relativizer(anchor, strict=True))


def relative_form(f: Formula, anchor: CellAddr | None) -> Formula:
    """Lenient relative view used as a comparison/grouping key: same-sheet
    absolute references and bounded ranges become offsets, cross-sheet ones
    and whole columns and rows stay absolute.  f itself when nothing moved."""
    if anchor is None:
        return f
    sheet, col, row = anchor

    def leaf(node):
        t = type(node)
        if t is AbsRef:  # made relative directly, the commonest leaf to move
            at = node.addr
            if at[0] == sheet:
                return RelRef._make((at[1] - col, at[2] - row))
        elif t is RangeArg:
            return move_node(relativizer(anchor, strict=False), node)
        return node

    return map_leaves(f, leaf)


def formula_groups(s) -> MappingProxyType:
    """The cell equations of s grouped by sheet and relative form, so that
    copy-filled formulas share one group: (sheet, relative form) -> tuple of
    equations, the groups and the equations of each in canonical order.
    They are built on the first call and kept on the set, which is immutable
    (`replace` and `simplify` pass theirs on).  A tree the equation before
    held on the sheet as its own relative form is not walked again, nor is
    a cell that `compile_set` made a copy of an earlier cell's form."""
    if s._groups is None:
        groups: dict[tuple[str, Formula], list] = {}
        copies, known = s._copies, {}  # copy class -> its group
        own = own_sheet = None
        for eq in s:
            cell, f = eq
            if isinstance(cell, CellAddr):
                c = copies.get(cell) if copies else None
                members = None if c is None else known.get(c)
                if members is None:
                    rel = f if f is own and cell.sheet == own_sheet else relative_form(f, cell)
                    if rel is f:
                        own, own_sheet = f, cell.sheet
                    members = groups.setdefault((cell.sheet, rel), [])
                    if c is not None:
                        known[c] = members
                members.append(eq)
        s._groups = {key: tuple(eqs) for key, eqs in groups.items()}
        s._copies = None
    return MappingProxyType(s._groups)


def name_node(rng) -> Formula:
    """The node a defined name of range rng stands for: a single-cell name a
    plain reference, a multi-cell name a range argument (only legal inside a
    function call)."""
    if rng.is_single_cell():
        sheet, col, _, row, _ = rng.rects[0]
        return AbsRef(CellAddr._make((sheet, col, row)))  # a Rect's bounds are checked
    return RangeArg(rng)


def substitute_names(f: Formula, names: dict) -> Formula:
    """Replace defined names by the nodes they stand for (`name_node`).
    Unknown names pass through; a range must stand directly under a call."""

    def fix(node):
        if isinstance(node, NameRef) and node.name in names:
            return name_node(names[node.name])
        return node

    def refuse_ranges(nodes):
        if RangeArg in map(type, nodes):
            raise SubstitutionError("range is only allowed as a function argument")

    def inner(node, kids, new_kids):
        if type(node) is not Call:
            refuse_ranges(new_kids)
        return rebuild(node, kids, new_kids)

    out = fold(f, fix, inner)
    refuse_ranges((out,))
    return out
