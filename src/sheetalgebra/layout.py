"""Layout directives and the compiler/decompiler between named-array
equation sets and cell layouts.

Orientation convention: a 1-D array runs down or right from its anchor; for
2-D arrays the first subscript advances down the sheet and the second
advances right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CollisionError, DomainError, LayoutError
from .model import (
    AbsRef,
    ArrayElem,
    CellAddr,
    ElemRef,
    Equation,
    EquationSet,
    Formula,
    Here,
    Rect,
    check_subscripts,
    has_here,
    map_leaves,
)

DOWN = "down"
RIGHT = "right"


@dataclass(frozen=True)
class LayoutDirective:
    array: str
    index_box: tuple  # one or two (lo, hi) pairs
    anchor: CellAddr
    orientation: str | None = DOWN  # 1-D only; None for 2-D

    def __post_init__(self):
        if len(self.index_box) not in (1, 2):
            raise DomainError("index box must have one or two dimensions")
        for lo, hi in self.index_box:
            if lo > hi:
                raise DomainError(f"empty index range {lo}:{hi}")
            check_subscripts((lo, hi))  # elem_at builds inside lo..hi unchecked
        if len(self.index_box) == 1 and self.orientation not in (DOWN, RIGHT):
            raise DomainError("1-D layout needs a down/right orientation")

    @property
    def arity(self) -> int:
        return len(self.index_box)

    def footprint(self) -> Rect:
        if self.arity == 1:
            (lo, hi), = self.index_box
            n = hi - lo
            a = self.anchor
            if self.orientation == DOWN:
                return Rect(a.sheet, a.col, a.col, a.row, a.row + n)
            return Rect(a.sheet, a.col, a.col + n, a.row, a.row)
        (lo1, hi1), (lo2, hi2) = self.index_box
        a = self.anchor
        return Rect(a.sheet, a.col, a.col + (hi2 - lo2), a.row, a.row + (hi1 - lo1))

    def __str__(self):
        box = ",".join(f"{lo}:{hi}" for lo, hi in self.index_box)
        tail = f" {self.orientation}" if self.arity == 1 else ""
        return f"layout {self.array}[{box}] as {self.anchor.a1()}{tail}"


class LayoutSet:
    """Directive collection with unique array names and disjoint footprints."""

    def __init__(self, directives=()):
        directives = tuple(directives)
        by_name = {}
        for d in directives:
            if d.array in by_name:
                raise LayoutError(f"duplicate layout for array {d.array!r}")
            by_name[d.array] = d
        rects = [d.footprint() for d in directives]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                if (a.sheet == b.sheet
                        and a.col_lo <= b.col_hi and b.col_lo <= a.col_hi
                        and a.row_lo <= b.row_hi and b.row_lo <= a.row_hi):
                    raise LayoutError("layout footprints overlap")
        self.directives = directives
        self._by_name = by_name
        self._footprints = rects

    def elem_at(self, a: CellAddr) -> ArrayElem | None:
        """The array element laid out at cell a; None when no footprint
        holds it."""
        for d, rect in zip(self.directives, self._footprints):
            if rect.contains(a):
                anchor = d.anchor
                if d.arity == 1:
                    (lo, _), = d.index_box
                    off = a.row - anchor.row if d.orientation == DOWN else a.col - anchor.col
                    return ArrayElem._make((d.array, (lo + off,)))
                (lo1, _), (lo2, _) = d.index_box
                return ArrayElem._make(
                    (d.array, (lo1 + (a.row - anchor.row), lo2 + (a.col - anchor.col))))
        return None

    def get(self, array: str) -> LayoutDirective | None:
        return self._by_name.get(array)

    def __iter__(self):
        return iter(self.directives)

    def __len__(self):
        return len(self.directives)

    def __eq__(self, other):
        return isinstance(other, LayoutSet) and self.directives == other.directives

    def __hash__(self):
        return hash(self.directives)


def elem_to_cell(d: LayoutDirective, subs: tuple) -> CellAddr:
    if len(subs) != d.arity:
        raise LayoutError(
            f"{d.array} takes {d.arity} subscripts, got {len(subs)}")
    for sub, (lo, hi) in zip(subs, d.index_box):
        if not (lo <= sub <= hi):
            raise LayoutError(f"{d.array}[{sub}] is outside {lo}:{hi}")
    a = d.anchor
    if d.arity == 1:
        (lo, _), = d.index_box
        off = subs[0] - lo
        if d.orientation == DOWN:
            return CellAddr(a.sheet, a.col, a.row + off)
        return CellAddr(a.sheet, a.col + off, a.row)
    (lo1, _), (lo2, _) = d.index_box
    return CellAddr(a.sheet, a.col + (subs[1] - lo2), a.row + (subs[0] - lo1))


def cell_to_elem(d: LayoutDirective, a: CellAddr) -> ArrayElem | None:
    """Inverse of elem_to_cell; None when the cell is outside the footprint."""
    return LayoutSet([d]).elem_at(a)


def resolve_here(subs: tuple, at: tuple) -> tuple:
    """Resolve HERE markers in one subscript list against the subscripts of
    the containing element."""
    out = []
    for i, sub in enumerate(subs):
        if isinstance(sub, Here):
            if i >= len(at):
                raise LayoutError("HERE marker has no matching subscript position")
            out.append(at[i] + sub.offset)
        else:
            out.append(sub)
    return tuple(out)


def compile_set(spec: EquationSet, layouts: LayoutSet | None = None) -> EquationSet:
    """Rewrite a named-array equation set into cell equations as directed by
    the layouts.  Every array used must have a directive."""
    if layouts is None:
        layouts = LayoutSet(spec.layouts)

    def directive(name: str) -> LayoutDirective:
        d = layouts.get(name)
        if d is None:
            raise LayoutError(f"no layout directive for array {name!r}")
        return d

    def compile_formula(f: Formula, at: tuple) -> Formula:
        def fix(node):
            if isinstance(node, ElemRef):
                subs = resolve_here(node.subs, at)
                return AbsRef(elem_to_cell(directive(node.name), subs))
            return node

        return map_leaves(f, fix)

    out = {}
    for eq in spec:
        if not isinstance(eq.lhs, ArrayElem):
            raise LayoutError(f"compile expects array left-hand sides, got {eq.lhs}")
        cell = elem_to_cell(directive(eq.lhs.name), eq.lhs.subs)
        if cell in out:
            raise CollisionError(f"two equations land on {cell}")
        out[cell] = Equation(cell, compile_formula(eq.rhs, eq.lhs.subs))
    return EquationSet(out.values(), spec.names, ())


def decompile_set(cells: EquationSet, layouts: LayoutSet | None = None) -> EquationSet:
    """Rewrite cell equations into named-array equations.  Cells not covered
    by any footprint pass through unchanged."""
    if layouts is None:
        layouts = LayoutSet(cells.layouts)

    def to_elem(node):
        nonlocal here
        t = type(node)
        if t is AbsRef:
            elem = layouts.elem_at(node.addr)
            if elem is not None:
                return ElemRef._make(elem)  # its subscripts were checked
        elif t is ElemRef:
            here = here or has_here(node)
        return node

    out = []
    for eq in cells:
        lhs = eq.lhs
        if isinstance(lhs, CellAddr):
            elem = layouts.elem_at(lhs)
            if elem is not None:
                lhs = elem
        here = False
        rhs = map_leaves(eq.rhs, to_elem)
        out.append(Equation(lhs, eq.rhs if here else rhs))  # a formula with HERE stays as it is
    return EquationSet(out, cells.names, tuple(layouts))
