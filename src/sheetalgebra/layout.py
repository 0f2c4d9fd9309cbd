"""Layout directives and the compiler/decompiler between named-array
equation sets and cell layouts.

Orientation convention: a 1-D array runs down or right from its anchor; for
2-D arrays the first subscript advances down the sheet and the second
advances right.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import DomainError, LayoutError
from .formula import relative_form
from .model import (
    AbsRef,
    ArrayElem,
    CellAddr,
    ElemRef,
    Equation,
    EquationSet,
    Formula,
    Here,
    RangeArg,
    Rect,
    check_subscripts,
    fold,
    has_here,
    map_leaves,
    rebuild,
)

DOWN = "down"
RIGHT = "right"

# The CellAddr field (1 column, 2 row) that each subscript advances, by
# orientation; None is a 2-D directive's.
_AXES = {DOWN: (2,), RIGHT: (1,), None: (2, 1)}
_first_row = itemgetter(0)


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
            check_subscripts((lo, hi))  # _elem_at builds inside lo..hi unchecked
        if len(self.index_box) == 2:
            object.__setattr__(self, "orientation", None)  # the box alone orients it
        elif self.orientation not in (DOWN, RIGHT):
            raise DomainError("1-D layout needs a down/right orientation")

    @property
    def arity(self) -> int:
        return len(self.index_box)

    def footprint(self) -> Rect:
        a, b = self.anchor, elem_to_cell(self, tuple(hi for _, hi in self.index_box))
        return Rect(a.sheet, a.col, b.col, a.row, b.row)

    @cached_property
    def _origin(self) -> tuple:
        """(CellAddr field, subscript minus coordinate, lo, hi) per subscript."""
        return tuple((field, lo - self.anchor[field], lo, hi)
                     for field, (lo, hi) in zip(_AXES[self.orientation], self.index_box))

    def _elem_at(self, a: CellAddr) -> ArrayElem:
        """The element laid out at cell a, which the footprint holds."""
        return ArrayElem._make((self.array, tuple([a[f] + off for f, off, _, _ in self._origin])))

    def __str__(self):
        box = ",".join(f"{lo}:{hi}" for lo, hi in self.index_box)
        tail = f" {self.orientation}" if self.orientation else ""
        return f"layout {self.array}[{box}] as {self.anchor.a1()}{tail}"


class LayoutSet:
    """Directive collection with unique array names and disjoint footprints."""

    def __init__(self, directives=()):
        self.directives = tuple(directives)
        self._by_name = {}
        # (sheet, column) -> (first row, last row, directive) per footprint, by first row
        self._columns = {}
        for d in self.directives:
            if d.array in self._by_name:
                raise LayoutError(f"duplicate layout for array {d.array!r}")
            self._by_name[d.array] = d
            r = d.footprint()
            for col in range(r.col_lo, r.col_hi + 1):
                self._columns.setdefault((r.sheet, col), []).append((r.row_lo, r.row_hi, d))
        for spans in self._columns.values():
            spans.sort(key=_first_row)
            # sorted by first row, two spans overlap only if neighbours do
            if any(lo <= hi for (_, hi, _), (lo, _, _) in zip(spans, spans[1:])):
                raise LayoutError("layout footprints overlap")

    def elem_at(self, a: CellAddr) -> ArrayElem | None:
        """The array element laid out at cell a; None when no footprint
        holds it."""
        spans = self._columns.get((a.sheet, a.col))
        if spans:
            # the last span starting at or above a.row, or the last of all when none does
            lo, hi, d = spans[bisect(spans, a.row, key=_first_row) - 1]
            if lo <= a.row <= hi:
                return d._elem_at(a)
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
    cell = list(d.anchor)
    for (field, off, lo, hi), sub in zip(d._origin, subs):
        if not (lo <= sub <= hi):
            raise LayoutError(f"{d.array}[{sub}] is outside {lo}:{hi}")
        cell[field] = sub - off
    return CellAddr(*cell)


def resolve_here(subs: tuple, at: tuple) -> tuple:
    """Resolve HERE markers in one subscript list against the subscripts of
    the containing element."""
    if any(isinstance(sub, Here) for sub in subs[len(at):]):
        raise LayoutError("HERE marker has no matching subscript position")
    return tuple(at[i] + sub.offset if isinstance(sub, Here) else sub
                 for i, sub in enumerate(subs))


def compile_set(spec: EquationSet, layouts: LayoutSet | None = None) -> EquationSet:
    """Rewrite a named-array equation set into cell equations as directed by
    the layouts.  Every array used must have a directive.  A tree that two
    or more equations share is walked once, into a template that each of
    them runs at its own subscripts; the result knows which of those cells
    copy one relative form, so that `formula_groups` walks only the first."""
    if layouts is None:
        layouts = LayoutSet(spec.layouts)

    def directive(name: str) -> LayoutDirective:
        d = layouts.get(name)
        if d is None:
            raise LayoutError(f"no layout directive for array {name!r}")
        return d

    def cell_of(node: ElemRef, at: tuple, recipe=()) -> CellAddr:
        """The cell node names at subscripts at: by its recipe if that fits."""
        if recipe:
            cell = recipe[0].copy()
            for field, pos, lo, hi, shift in recipe[1]:
                if pos >= len(at) or not lo <= at[pos] <= hi:
                    break
                cell[field] = at[pos] + shift
            else:  # inside the box, so on the footprint, which is on the grid
                return CellAddr._make(cell)
        subs = resolve_here(node.subs, at)  # a HERE fault before a missing directive
        return elem_to_cell(directive(node.name), subs)

    def template(f: Formula) -> tuple:
        """f's nodes in postorder with their children and, for an element
        reference, its recipe: the anchor with the constant subscripts laid
        out, and per HERE subscript (field, position, bounds on the subscript
        there, shift to the coordinate); () if the directive or a constant
        does not fit.  Then f's other references, made relative per cell."""
        nodes, refs = [], []

        def leaf(node):
            recipe = None
            if type(node) is ElemRef:
                d, recipe = layouts.get(node.name), ()
                if d is not None and len(node.subs) == d.arity:
                    cell, steps = list(d.anchor), []
                    for pos, ((field, off, lo, hi), sub) in enumerate(zip(d._origin, node.subs)):
                        if type(sub) is Here:
                            k = sub.offset
                            steps.append((field, pos, lo - k, hi - k, k - off))
                        elif lo <= sub <= hi:
                            cell[field] = sub - off
                        else:
                            break
                    else:
                        recipe = cell, steps
            elif type(node) in (AbsRef, RangeArg):
                refs.append(node)
            nodes.append((node, (), recipe))

        fold(f, leaf, lambda node, kids, _: nodes.append((node, kids, None)))
        return nodes, refs

    uses = Counter([id(eq.rhs) for eq in spec])
    templates, classes, copies, out = {}, {}, {}, []
    for eq in spec:
        lhs, f = eq
        if not isinstance(lhs, ArrayElem):
            raise LayoutError(f"compile expects array left-hand sides, got {lhs}")
        cell, at = elem_to_cell(directive(lhs.name), lhs.subs), lhs.subs
        # A tree used once has no copy to share its template with: templating
        # it keeps its node list and a copy-class key to the end, which for a
        # set of mostly distinct trees (a decompiled sheet) triples peak memory.
        if uses[id(f)] == 1:
            f = map_leaves(f, lambda x: AbsRef(cell_of(x, at)) if type(x) is ElemRef else x)
        else:  # its copy class: the tree, and where its references lie from the cell
            nodes, refs = templates.get(id(f)) or templates.setdefault(id(f), template(f))
            stack, key = [], [id(f), cell[0]]
            for node, kids, recipe in nodes:
                if recipe is not None:
                    a = cell_of(node, at, recipe)
                    key.append((a[1] - cell[1], a[2] - cell[2]) if a[0] == cell[0] else a)
                    stack.append(AbsRef._make((a,)))
                elif kids:
                    new = stack[-len(kids):]
                    del stack[-len(kids):]
                    stack.append(rebuild(node, kids, new))
                else:
                    stack.append(node)
            key += [relative_form(x, cell) for x in refs]
            copies[cell] = classes.setdefault(tuple(key), len(classes))
            f = stack[0]
        out.append(Equation._make((cell, f)))
    cells = EquationSet(out, spec.names, ())
    cells._copies = copies
    return cells


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
