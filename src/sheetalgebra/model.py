"""Core data model: cell addresses, ranges, array elements, formula trees,
equations and equation sets.

A spreadsheet is modeled as a finite set of `lhs = formula` definitions with
at most one equation per left-hand side.  All types here are immutable values;
operations elsewhere always build new sets.
"""

from __future__ import annotations

import math
import re
import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from operator import is_not

from .errors import ConflictError, DomainError

DEFAULT_SHEET = "Sheet1"

MAX_COL = 16384      # XFD
MAX_ROW = 1048576
_COL_DIGITS, _ROW_DIGITS = len(str(MAX_COL)), len(str(MAX_ROW))
MAX_INT_DIGITS = 18  # integers in text: subscripts, offsets, axis values
MAX_NESTING = 64     # levels a formula or script nests, Excel's own limit
MAX_EQUATIONS = 2 ** 20  # equations one replication or region line may make: one full column
SUBSCRIPT_LIMIT = 10 ** MAX_INT_DIGITS  # the least integer past MAX_INT_DIGITS digits
A1_LABEL = re.compile(r"([A-Za-z]+)(\d+)\Z")
_COLUMNS: dict[str, int] = {}  # each column text on the grid read so far -> its number

_new = tuple.__new__
_tuple_eq = tuple.__eq__
_bits = struct.Struct("<d").pack


def col_to_letters(n: int) -> str:
    """Bijective base-26 column label: 1 -> A, 26 -> Z, 27 -> AA."""
    if n < 1:
        raise DomainError(f"column number must be >= 1, got {n}")
    s = ""
    while n:
        n, r = divmod(n - 1, 26)
        s = chr(ord("A") + r) + s
    return s


def letters_to_col(s: str) -> int:
    if not (s.isascii() and s.isalpha()):
        raise DomainError(f"not a column label: {s!r}")
    n = 0
    for ch in s:
        n = n * 26 + (ord(ch) & 31)  # A and a are 1, Z and z 26
    return n


class CellAddr(namedtuple("CellAddr", "sheet col row")):
    """A cell, the tuple (sheet, col, row): it is its own key, and it orders
    by sheet, column and row.  Build it checked; `_make` skips the checks
    and is only for a cell whose coordinates were just checked."""

    __slots__ = ()
    _make = classmethod(_new)  # a tuple of the fields as given, not counted as namedtuple does

    def __new__(cls, sheet: str, col: int, row: int):
        if not on_grid(col, row):
            raise DomainError(f"cell coordinates must lie in 1..{MAX_COL}, 1..{MAX_ROW}: "
                              f"col={col} row={row}")
        if not sheet:
            raise DomainError("sheet name must be nonempty")
        return tuple.__new__(cls, (sheet, col, row))

    def a1(self, with_sheet: bool = False) -> str:
        text = f"{col_to_letters(self.col)}{self.row}"
        if with_sheet or self.sheet != DEFAULT_SHEET:
            return f"{self.sheet}!{text}"
        return text

    def __str__(self):
        return self.a1()


def on_grid(col: int, row: int) -> bool:
    return 0 < col <= MAX_COL and 0 < row <= MAX_ROW


def label_coords(col: str, row: str) -> tuple[int, int]:
    """A label's column (letters or digits) and row (digits) as numbers.  A
    part longer than its cap's digits is past the cap and is not converted."""
    row = int(row) if len(row) <= _ROW_DIGITS else MAX_ROW + 1
    n = _COLUMNS.get(col)
    if n is None:
        n = (MAX_COL + 1 if len(col) > _COL_DIGITS
             else int(col) if col.isdigit() else letters_to_col(col))
        if 0 < n <= MAX_COL:
            _COLUMNS[col] = n
    return n, row


def addr(text: str, sheet: str = DEFAULT_SHEET) -> CellAddr:
    """Convenience constructor: addr("D2") or addr("Sheet2!D2")."""
    if "!" in text:
        sheet, text = text.split("!", 1)
    m = A1_LABEL.match(text)
    if m is None:
        raise DomainError(f"not a cell address: {text!r}")
    return CellAddr(sheet, *label_coords(m[1], m[2]))


class Rect(namedtuple("Rect", "sheet col_lo col_hi row_lo row_hi")):
    """One rectangle of a range, the tuple (sheet, col_lo, col_hi, row_lo,
    row_hi).  None bounds mean unbounded on that side.  In a formula a
    bounded rectangle may be relative: its sheet is None and its bounds are
    offsets from the formula's cell."""

    __slots__ = ()

    def __new__(cls, sheet: str | None, col_lo: int | None, col_hi: int | None,
                row_lo: int | None, row_hi: int | None):
        for lo, hi, cap in ((col_lo, col_hi, MAX_COL), (row_lo, row_hi, MAX_ROW)):
            for v in (lo, hi):
                if v is not None and sheet is not None and not 0 < v <= cap:
                    raise DomainError(f"range bound must lie in 1..{cap}, got {v}")
            if lo is not None and hi is not None and lo > hi:
                raise DomainError(f"empty rectangle: {lo}..{hi}")
        return tuple.__new__(cls, (sheet, col_lo, col_hi, row_lo, row_hi))

    @property
    def bounded(self) -> bool:
        return None not in (self.col_lo, self.col_hi, self.row_lo, self.row_hi)

    def contains(self, a: CellAddr) -> bool:
        return (
            a.sheet == self.sheet
            and (self.col_lo is None or a.col >= self.col_lo)
            and (self.col_hi is None or a.col <= self.col_hi)
            and (self.row_lo is None or a.row >= self.row_lo)
            and (self.row_hi is None or a.row <= self.row_hi)
        )


@dataclass(frozen=True)
class CellRange:
    """Union of rectangles, possibly non-contiguous, possibly unbounded."""

    rects: tuple[Rect, ...]

    @classmethod
    def cell(cls, a: CellAddr) -> "CellRange":
        return cls((Rect(a.sheet, a.col, a.col, a.row, a.row),))

    @classmethod
    def box(cls, a: CellAddr, b: CellAddr) -> "CellRange":
        if a.sheet != b.sheet:
            raise DomainError("range corners must share a sheet")
        return cls((Rect(a.sheet, min(a.col, b.col), max(a.col, b.col),
                         min(a.row, b.row), max(a.row, b.row)),))

    @classmethod
    def columns(cls, lo: int, hi: int, sheet: str = DEFAULT_SHEET) -> "CellRange":
        return cls((Rect(sheet, lo, hi, None, None),))

    @classmethod
    def rows(cls, lo: int, hi: int, sheet: str = DEFAULT_SHEET) -> "CellRange":
        return cls((Rect(sheet, None, None, lo, hi),))

    def union(self, other: "CellRange") -> "CellRange":
        return CellRange(self.rects + other.rects)

    @property
    def bounded(self) -> bool:
        return all(r.bounded for r in self.rects)

    def contains(self, a: CellAddr) -> bool:
        return any(r.contains(a) for r in self.rects)

    def is_single_cell(self) -> bool:
        return (all(r.bounded and r.col_lo == r.col_hi and r.row_lo == r.row_hi
                    for r in self.rects)
                and len({(r.sheet, r.col_lo, r.row_lo) for r in self.rects}) == 1)

    def __str__(self):
        from .formula import print_range

        return print_range(self)


# ---------------------------------------------------------------------------
# Formula trees


class Formula(tuple):
    """A formula tree node: a named tuple of its fields that equals only a
    node of its own type, so Text("x") differs from NameRef("x") and from
    the tuple ("x",), and no two types meet as dict keys.  A node builds
    checked; its `_make` skips the checks and is only for fields that were
    just checked or come from a node that was."""

    __slots__ = ()
    __hash__, _make = tuple.__hash__, classmethod(_new)

    def __eq__(self, other):
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other):  # tuple's own __ne__ would ignore the type
        return type(other) is not type(self) or not _tuple_eq(self, other)


class Number(Formula, namedtuple("Number", "value")):
    __slots__ = ()

    def __new__(cls, value: float):
        if not isinstance(value, (int, float)):  # an int, a float or a bool; no text
            raise DomainError(f"a number cannot be made of a {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise DomainError("an integer past the largest float is not a number") from None
        if not math.isfinite(value):
            raise DomainError(f"number {value} is not finite")
        return _new(cls, (value,))

    # structural equality is bitwise on the IEEE double
    def __eq__(self, other):
        return type(other) is Number and _bits(self.value) == _bits(other.value)

    def __ne__(self, other):
        return type(other) is not Number or _bits(self.value) != _bits(other.value)

    def __hash__(self):
        return hash(_bits(self.value))


class Text(Formula, namedtuple("Text", "value")):
    __slots__ = ()


class Bool(Formula, namedtuple("Bool", "value")):
    __slots__ = ()


class Empty(Formula, namedtuple("Empty", "")):
    __slots__ = ()


class AbsRef(Formula, namedtuple("AbsRef", "addr")):
    __slots__ = ()


class RelRef(Formula, namedtuple("RelRef", "d_col d_row")):
    __slots__ = ()


@dataclass(frozen=True)
class Here:
    """Relative subscript marker inside an array-element reference."""

    offset: int = 0


def check_subscripts(subs: tuple) -> None:
    """Refuse a subscript or HERE offset longer than the reader reads."""
    for s in subs:
        if abs(s.offset if type(s) is Here else s) >= SUBSCRIPT_LIMIT:
            raise DomainError(f"a subscript in {subs} has more than {MAX_INT_DIGITS} digits")


class ElemRef(Formula, namedtuple("ElemRef", "name subs")):
    __slots__ = ()  # each subscript: an int or a Here

    def __new__(cls, name: str, subs: tuple):
        check_subscripts(subs)
        return _new(cls, (name, subs))


def has_here(ref: ElemRef) -> bool:
    """Whether an element reference has a HERE marker among its subscripts."""
    return any(type(s) is Here for s in ref.subs)


class NameRef(Formula, namedtuple("NameRef", "name")):
    __slots__ = ()


def _tree_eq(a: Formula, b) -> bool:
    """Structural equality of the operator trees a and b.  It walks down
    the left operands and keeps the other pairs still to compare on a
    stack, so that no tree is too deep to compare."""
    todo = []
    while True:
        if a is not b:
            t = type(a)
            if type(b) is not t:
                return False
            if t is Binary:
                if a.op != b.op:
                    return False
                todo.append((a.right, b.right))
                a, b = a.left, b.left
                continue
            if t is Neg:
                a, b = a.operand, b.operand
                continue
            if t is Call:
                if a.func != b.func or len(a.args) != len(b.args):
                    return False
                todo += zip(a.args, b.args)
            elif not (a == b if t is Number else _tuple_eq(a, b)):  # two leaves of type t
                return False
        if not todo:
            return True
        a, b = todo.pop()


def _tree_hash(f: Formula) -> int:
    """A hash of f's nodes, each without its children, in one walk that
    goes down the left operands and keeps the others on a stack."""
    heads = []
    todo = []
    while True:
        t = type(f)
        if t is Binary:
            heads.append(f.op)
            todo.append(f.right)
            f = f.left
            continue
        if t is Neg:
            heads.append(None)
            f = f.operand
            continue
        if t is Call:
            heads += (f.func, len(f.args))
            todo += f.args
        else:
            heads.append(f)
        if not todo:
            return hash(tuple(heads))
        f = todo.pop()


# The operator nodes compare and hash without recursion; the other nodes
# have no children.
class Neg(Formula, namedtuple("Neg", "operand")):
    __slots__ = ()
    __eq__, __hash__ = _tree_eq, _tree_hash


ARITH_OPS = ("+", "-", "*", "/", "^")
BINARY_OPS = ARITH_OPS + ("=", "<>", "<", "<=", ">", ">=")


class Binary(Formula, namedtuple("Binary", "op left right")):
    __slots__ = ()
    __eq__, __hash__ = _tree_eq, _tree_hash

    def __new__(cls, op: str, left: Formula, right: Formula):
        if op not in BINARY_OPS:
            raise DomainError(f"unknown operator {op!r}")
        return _new(cls, (op, left, right))


class Call(Formula, namedtuple("Call", "func args")):
    __slots__ = ()
    __eq__, __hash__ = _tree_eq, _tree_hash


class RangeArg(Formula, namedtuple("RangeArg", "range")):
    __slots__ = ()


def children(f: Formula) -> tuple:
    t = type(f)
    if t is Binary:
        return (f.left, f.right)
    if t is Neg:
        return (f.operand,)
    if t is Call:
        return f.args
    return ()


def rebuild(f: Formula, kids: tuple, new_kids) -> Formula:
    """f with the children new_kids in place of its kids, or f itself when
    they are the same objects; its other fields are not checked again.  A
    negated number becomes a number literal, as the reader folds it."""
    if not any(map(is_not, kids, new_kids)):
        return f
    t = type(f)
    if t is Binary:
        return _new(Binary, (f.op, *new_kids))
    if t is Neg:
        x, = new_kids
        return Number._make((-x.value,)) if type(x) is Number else _new(Neg, (x,))
    return _new(Call, (f.func, tuple(new_kids)))


def fold(f: Formula, leaf, inner):
    """f folded bottom-up: leaf(node) at a node without children, and
    inner(node, its children, their results) at the others.  It keeps its
    own stack of nodes rather than recursing, so no tree is too deep."""
    kids = children(f)
    if not kids:
        return leaf(f)
    stack = []  # the ancestors of f: (node, children, those still to do, results)
    todo, results = iter(kids), []
    while True:
        for k in todo:
            grandkids = children(k)
            if grandkids:
                stack.append((f, kids, todo, results))
                f, kids, todo, results = k, grandkids, iter(grandkids), []
                break
            results.append(leaf(k))
        else:
            out = inner(f, kids, results)
            if not stack:
                return out
            f, kids, todo, results = stack.pop()
            results.append(out)


def map_leaves(f: Formula, fn) -> Formula:
    """f with fn applied to each node without children.  Only the ancestors
    of a leaf that fn changed are rebuilt: f itself when fn changed none."""
    return fold(f, fn, rebuild)


def map_refs(f: Formula, fn) -> Formula:
    """Move every reference of f through fn and change nothing else.  fn maps
    a box, given as its two corners (sheet, col, row), to the box it moves
    to.  A cell reference is a box of one cell; each rectangle of a range is
    a box, whose unbounded sides have None coordinates that fn keeps.  A
    relative reference or rectangle has sheet None and offsets from the
    formula's cell, and stays relative while fn keeps sheet None."""
    return map_leaves(f, partial(move_node, fn))


def move_node(fn, node: Formula) -> Formula:
    """One node with its own references moved through fn, as map_refs moves
    them; a node that is no reference or range comes back as it is."""
    t = type(node)
    if t is AbsRef:
        p = node.addr
    elif t is RelRef:
        p = (None, node.d_col, node.d_row)
    elif t is RangeArg:
        rects = tuple([_move_rect(r, fn) for r in node.range.rects])
        return node if rects == node.range.rects else RangeArg(CellRange(rects))
    else:
        return node
    q = fn(p, p)[0]
    if q == p:
        return node
    return RelRef(q[1], q[2]) if q[0] is None else AbsRef(CellAddr(*q))


def _move_rect(r: Rect, fn) -> Rect:
    box = (r.sheet, r.col_lo, r.row_lo), (r.sheet, r.col_hi, r.row_hi)
    moved = fn(*box)
    if moved == box:
        return r
    (sheet, col_lo, row_lo), (_, col_hi, row_hi) = moved
    return Rect(sheet, col_lo, col_hi, row_lo, row_hi)


def walk(f: Formula):
    """Every node of f, parents before children, left to right."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def depth(f: Formula) -> int:
    """The number of nodes on the longest path from f's root to a leaf."""
    return fold(f, lambda leaf: 1, lambda node, kids, depths: 1 + max(depths))


def is_constant(f: Formula) -> bool:
    """True when the formula references nothing: only literals and operators."""
    return all(isinstance(n, (Number, Text, Bool, Empty, Neg, Binary)) for n in walk(f))


# ---------------------------------------------------------------------------
# Equations and equation sets


class ArrayElem(namedtuple("ArrayElem", "name subs")):
    """An array element, the tuple (name, subs); it orders by name and
    subscripts.  Like a formula node, it equals only its own type and builds
    checked, and its `_make` is only for subscripts already checked."""

    __slots__ = ()
    _make = classmethod(_new)
    __eq__, __ne__, __hash__ = Formula.__eq__, Formula.__ne__, tuple.__hash__

    def __new__(cls, name: str, subs: tuple):
        if not subs:
            raise DomainError("array element needs at least one subscript")
        check_subscripts(subs)
        return _new(cls, (name, subs))

    def __str__(self):
        return f"{self.name}[{','.join(str(s) for s in self.subs)}]"


class Equation(namedtuple("Equation", "lhs rhs")):
    """lhs = rhs: a cell or an ArrayElem defined by a formula."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = Formula.__eq__, Formula.__ne__, tuple.__hash__
    _make = classmethod(_new)  # a tuple of the fields as given, not counted as namedtuple does


def lhs_sort_key(lhs):
    if isinstance(lhs, CellAddr):
        return (0, lhs.sheet, lhs.row, lhs.col)
    return (1, lhs.name, lhs.subs)


class EquationSet:
    """Immutable set of equations plus a defined-name table and optional
    layout directives carried along from a source document."""

    __slots__ = ("_eqs", "_names", "_layouts", "_order", "_groups", "_copies")

    def __init__(self, equations=(), names=None, layouts=()):
        eqs = {}
        for eq in equations:
            prev = eqs.get(eq.lhs)
            if prev is not None and prev.rhs != eq.rhs:
                raise ConflictError(f"conflicting equations for {eq.lhs}")
            eqs[eq.lhs] = eq
        self._eqs = eqs
        self._names = dict(names) if names else {}
        self._layouts = tuple(layouts)
        self._order = self._groups = None  # canonical order and formula_groups, on first use
        self._copies = None  # cell -> copy class, from compile_set, until formula_groups

    @property
    def names(self) -> dict:
        return dict(self._names)

    @property
    def layouts(self) -> tuple:
        return self._layouts

    def equations(self) -> list[Equation]:
        """Equations in canonical order: cells by (sheet, row, col), then
        array elements by (name, subscripts)."""
        return list(self)

    def lhs_set(self) -> set:
        return set(self._eqs)

    def get(self, lhs) -> Equation | None:
        return self._eqs.get(lhs)

    def __contains__(self, lhs):
        return lhs in self._eqs

    def __len__(self):
        return len(self._eqs)

    def __iter__(self):
        if self._order is None:
            self._order = tuple(self._eqs[k] for k in sorted(self._eqs, key=lhs_sort_key))
        return iter(self._order)

    def __eq__(self, other):
        return (
            isinstance(other, EquationSet)
            and self._eqs == other._eqs
            and self._names == other._names
            and self._layouts == other._layouts
        )

    def __hash__(self):
        return hash(frozenset(self._eqs))

    def __repr__(self):
        return f"EquationSet({len(self._eqs)} equations)"

    def with_names(self, names: dict) -> "EquationSet":
        return EquationSet(self._eqs.values(), names, self._layouts)

    def all_array_lhs(self) -> bool:
        return all(isinstance(lhs, ArrayElem) for lhs in self._eqs)
