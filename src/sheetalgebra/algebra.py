"""Composition operators on equation sets: union, shift, extract, mapping,
replicate, quotient — plus lookup, replace, the simplifier, diff, and the
one-copy-per-formula stylecheck.

All operators are pure: inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CardinalityError,
    CollisionError,
    ConflictError,
    DomainError,
    EquivalenceError,
    NotFoundError,
    OutOfGridError,
)
from .formula import (
    canonical_relative_text,
    canonical_text,
    relative_form,
    substitute_names,
    to_absolute,
)
from .model import (
    MAX_COL,
    MAX_ROW,
    AbsRef,
    ArrayElem,
    Binary,
    Bool,
    CellAddr,
    CellRange,
    ElemRef,
    Equation,
    EquationSet,
    Formula,
    Neg,
    Number,
    RangeArg,
    Rect,
    children,
    enumerate_range,
    is_constant,
    lhs_sort_key,
    on_grid,
    range_contains,
    rebuild,
    transform,
)

RAW, RELATIVE, ABSOLUTE, SUBSTITUTED = "raw", "relative", "absolute", "substituted"


def union(a: EquationSet, b: EquationSet) -> EquationSet:
    """Set union; a left-hand side may repeat only with an identical formula."""
    merged = {lhs: eq for lhs, eq in ((e.lhs, e) for e in a)}
    for eq in b:
        prev = merged.get(eq.lhs)
        if prev is not None and prev.rhs != eq.rhs:
            raise ConflictError(
                f"conflicting equations for {eq.lhs}: "
                f"{canonical_text(prev.rhs)} vs {canonical_text(eq.rhs)}")
        merged[eq.lhs] = eq
    names = a.names
    for name, rng in b.names.items():
        if name in names and names[name] != rng:
            raise ConflictError(f"conflicting definitions for name {name!r}")
        names[name] = rng
    layouts = a.layouts + tuple(d for d in b.layouts if d not in a.layouts)
    return EquationSet(merged.values(), names, layouts)


def _move_addr(a: CellAddr, dx: int, dy: int) -> CellAddr:
    col, row = a.col + dx, a.row + dy
    if not on_grid(col, row):
        raise OutOfGridError(f"{a} shifted by ({dx},{dy}) leaves the grid")
    return CellAddr(a.sheet, col, row)


def shift(s: EquationSet, dx: int, dy: int) -> EquationSet:
    """Move the whole sheet dx columns right and dy rows down.  Absolute
    references and every bounded side of a range in formulas move too, even
    when they point at cells outside the set; relative references and
    unbounded sides are untouched."""

    def move_side(v: int | None, d: int, cap: int, r: Rect) -> int | None:
        if v is None:
            return None
        if not 0 < v + d <= cap:
            raise OutOfGridError(f"{CellRange((r,))} shifted by ({dx},{dy}) leaves the grid")
        return v + d

    def move_rect(r: Rect) -> Rect:
        return Rect(r.sheet,
                    move_side(r.col_lo, dx, MAX_COL, r), move_side(r.col_hi, dx, MAX_COL, r),
                    move_side(r.row_lo, dy, MAX_ROW, r), move_side(r.row_hi, dy, MAX_ROW, r))

    def move_formula(f: Formula) -> Formula:
        def fix(node):
            if isinstance(node, AbsRef):
                return AbsRef(_move_addr(node.addr, dx, dy))
            if isinstance(node, RangeArg):
                return RangeArg(CellRange(tuple(move_rect(r) for r in node.range.rects)))
            return node

        return transform(f, fix)

    out = []
    for eq in s:
        lhs = _move_addr(eq.lhs, dx, dy) if isinstance(eq.lhs, CellAddr) else eq.lhs
        out.append(Equation(lhs, move_formula(eq.rhs)))
    return EquationSet(out, s.names, s.layouts)


def extract(s: EquationSet, r: CellRange) -> EquationSet:
    """Keep exactly the equations whose left-hand sides lie within the range."""
    kept = [eq for eq in s
            if isinstance(eq.lhs, CellAddr) and range_contains(r, eq.lhs)]
    return EquationSet(kept, s.names, s.layouts)


def map_range(s: EquationSet, src: CellRange, dst: CellRange) -> EquationSet:
    """Rewrite cells in src to the positionally corresponding cells in dst."""
    src_cells = enumerate_range(src)
    dst_cells = enumerate_range(dst)
    if len(src_cells) != len(dst_cells):
        raise CardinalityError(
            f"source has {len(src_cells)} cells, target has {len(dst_cells)}")
    corr = dict(zip(src_cells, dst_cells))
    if len(set(corr.values())) != len(corr):
        raise CardinalityError("mapping correspondence is not injective")

    def move(f: Formula) -> Formula:
        def fix(node):
            if isinstance(node, AbsRef) and node.addr in corr:
                return AbsRef(corr[node.addr])
            return node

        return transform(f, fix)

    out = {}
    for eq in s:
        lhs = eq.lhs
        if isinstance(lhs, CellAddr) and lhs in corr:
            lhs = corr[lhs]
        if lhs in out:
            raise CollisionError(f"two equations land on {lhs} after mapping")
        out[lhs] = Equation(lhs, move(eq.rhs))
    return EquationSet(out.values(), s.names, s.layouts)


def replicate(s: EquationSet, lo: int, hi: int) -> EquationSet:
    """Replicate a named-array set along a new trailing dimension lo..hi.
    Arrays not defined in the set are treated as external inputs and keep
    their subscripts."""
    if lo > hi:
        raise DomainError(f"empty replication range {lo}:{hi}")
    if not s.all_array_lhs():
        raise DomainError("replicate applies to sets with array left-hand sides only")
    defined = {lhs.name for lhs in s.lhs_set()}

    out = []
    for k in range(lo, hi + 1):
        def extend(node):
            if isinstance(node, ElemRef) and node.name in defined:
                return ElemRef(node.name, node.subs + (k,))
            return node

        for eq in s:
            lhs = ArrayElem(eq.lhs.name, eq.lhs.subs + (k,))
            out.append(Equation(lhs, transform(eq.rhs, extend)))
    return EquationSet(out, s.names, s.layouts)


def quotient(s: EquationSet, lo: int, hi: int) -> EquationSet:
    """Project a replicated set through its final dimension; the converse of
    replicate.  Every fiber lo..hi must be present and project onto
    structurally identical formulas."""
    if lo > hi:
        raise DomainError(f"empty quotient range {lo}:{hi}")
    if not s.all_array_lhs():
        raise DomainError("quotient applies to sets with array left-hand sides only")
    defined = {lhs.name for lhs in s.lhs_set()}

    def strip(f: Formula) -> Formula:
        def fix(node):
            if isinstance(node, ElemRef) and node.name in defined:
                if len(node.subs) < 2:
                    raise EquivalenceError(
                        f"{node.name} has no dimension left to project away")
                return ElemRef(node.name, node.subs[:-1])
            return node

        return transform(f, fix)

    projected: dict[ArrayElem, Formula] = {}
    fibers: dict[ArrayElem, set[int]] = {}
    for eq in s:
        last = eq.lhs.subs[-1]
        if not (lo <= last <= hi):
            raise DomainError(
                f"final subscript of {eq.lhs} lies outside {lo}:{hi}")
        if len(eq.lhs.subs) < 2:
            raise DomainError(f"{eq.lhs} has only one dimension; nothing to project")
        base = ArrayElem(eq.lhs.name, eq.lhs.subs[:-1])
        stripped = strip(eq.rhs)
        if base in projected:
            if projected[base] != stripped:
                raise EquivalenceError(
                    f"equations projecting onto {base} are not equivalent")
        else:
            projected[base] = stripped
        fibers.setdefault(base, set()).add(last)

    want = set(range(lo, hi + 1))
    for base, got in fibers.items():
        if got != want:
            missing = sorted(want - got)
            raise DomainError(f"fiber of {base} is missing indices {missing}")
    return EquationSet(
        [Equation(lhs, rhs) for lhs, rhs in projected.items()], s.names, s.layouts)


def lookup(s: EquationSet, ref, repr: str = RELATIVE):
    """Fetch one formula in the requested representation.  `raw` returns
    canonical text; the other representations return trees."""
    eq = s.get(ref)
    if eq is None:
        raise NotFoundError(f"no equation for {ref}")
    if repr == RAW:
        return canonical_text(eq.rhs)
    if repr == RELATIVE:
        return eq.rhs
    anchor = ref if isinstance(ref, CellAddr) else None
    if anchor is None:
        absolute = eq.rhs
    else:
        absolute = to_absolute(eq.rhs, anchor)
    if repr == ABSOLUTE:
        return absolute
    if repr == SUBSTITUTED:
        return substitute_names(absolute, s.names)
    raise DomainError(f"unknown representation {repr!r}")


def replace(s: EquationSet, pattern: Formula, replacement: Formula) -> EquationSet:
    """Global search-and-replace on formulas.  Subtrees are matched in
    relative representation anchored at each equation's cell, so an absolute
    pattern matches only the exact cells it names, while a relative pattern
    matches every copy.  Single bottom-up pass; inserted replacements are not
    rescanned."""

    out = []
    for eq in s:
        anchor = eq.lhs if isinstance(eq.lhs, CellAddr) else None
        key = relative_form(pattern, anchor)

        def go(node):
            kids = children(node)
            if kids:
                node = rebuild(node, tuple(go(k) for k in kids))
            if relative_form(node, anchor) == key:
                return replacement
            return node

        out.append(Equation(eq.lhs, go(eq.rhs)))
    return EquationSet(out, s.names, s.layouts)


# ---------------------------------------------------------------------------
# Simplifier

_ZERO = Number(0.0)
_ONE = Number(1.0)


def _is_num(f, v=None):
    return isinstance(f, Number) and (v is None or f.value == v)


def _fold_binary(op: str, a: float, b: float):
    try:
        if op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        elif op == "*":
            v = a * b
        elif op == "/":
            if b == 0:
                return None
            v = a / b
        elif op == "^":
            v = a ** b
        else:
            if op == "=":
                return Bool(a == b)
            if op == "<>":
                return Bool(a != b)
            if op == "<":
                return Bool(a < b)
            if op == "<=":
                return Bool(a <= b)
            if op == ">":
                return Bool(a > b)
            return Bool(a >= b)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if isinstance(v, complex) or v != v or v in (float("inf"), float("-inf")):
        return None
    return Number(v)


def simplify_formula(f: Formula) -> Formula:
    """Bottom-up algebraic simplification to a fixpoint: unit/zero laws,
    double negation, and constant folding of operator nodes."""

    def rule(node):
        if isinstance(node, Neg):
            if isinstance(node.operand, Neg):
                return node.operand.operand
            if isinstance(node.operand, Number):
                return Number(-node.operand.value)
        if isinstance(node, Binary):
            op, left, right = node.op, node.left, node.right
            if _is_num(left) and _is_num(right):
                folded = _fold_binary(op, left.value, right.value)
                if folded is not None:
                    return folded
            if op == "+":
                if _is_num(right, 0):
                    return left
                if _is_num(left, 0):
                    return right
            elif op == "-":
                if _is_num(right, 0):
                    return left
            elif op == "*":
                if _is_num(right, 1):
                    return left
                if _is_num(left, 1):
                    return right
                if _is_num(right, 0) or _is_num(left, 0):
                    return _ZERO
            elif op == "/":
                if _is_num(right, 1):
                    return left
            elif op == "^":
                if _is_num(right, 1):
                    return left
        return node

    while True:
        new = transform(f, rule)
        if new == f:
            return new
        f = new


def simplify(s: EquationSet) -> EquationSet:
    return EquationSet(
        [Equation(eq.lhs, simplify_formula(eq.rhs)) for eq in s],
        s.names, s.layouts)


# ---------------------------------------------------------------------------
# Diff and stylecheck


@dataclass(frozen=True)
class DiffReport:
    added: tuple
    removed: tuple
    changed: tuple  # (lhs, old rhs, new rhs)
    mode: str

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


def diff(a: EquationSet, b: EquationSet, mode: str = "absolute") -> DiffReport:
    """Compare two sets.  In relative mode formulas are compared as offsets
    from their own cell, so copy-filled formulas at different positions
    count as equal."""
    if mode not in ("absolute", "relative"):
        raise DomainError(f"unknown diff mode {mode!r}")
    a_lhs, b_lhs = a.lhs_set(), b.lhs_set()
    added = tuple(sorted(b_lhs - a_lhs, key=lhs_sort_key))
    removed = tuple(sorted(a_lhs - b_lhs, key=lhs_sort_key))

    def view(eq):
        anchor = eq.lhs if isinstance(eq.lhs, CellAddr) else None
        if mode == "relative":
            return relative_form(eq.rhs, anchor)
        if anchor is not None:
            return to_absolute(eq.rhs, anchor)
        return eq.rhs

    changed = []
    for lhs in sorted(a_lhs & b_lhs, key=lhs_sort_key):
        old, new = a.get(lhs), b.get(lhs)
        if view(old) != view(new):
            changed.append((lhs, old.rhs, new.rhs))
    return DiffReport(added, removed, tuple(changed), mode)


@dataclass(frozen=True)
class StyleViolation:
    sheet: str
    canonical_formula: str
    cells: tuple


def stylecheck_unique(s: EquationSet) -> list[StyleViolation]:
    """Find formulas copied more than once on a worksheet.  Grouping is by
    canonical relative form, so copy-filled variants count as one formula.
    Constants are exempt."""
    groups: dict[tuple[str, str], list[CellAddr]] = {}
    for eq in s:
        if not isinstance(eq.lhs, CellAddr) or is_constant(eq.rhs):
            continue
        key = (eq.lhs.sheet, canonical_relative_text(eq.rhs, eq.lhs))
        groups.setdefault(key, []).append(eq.lhs)
    out = []
    for (sheet, text), cells in sorted(groups.items()):
        if len(cells) >= 2:
            out.append(StyleViolation(sheet, text, tuple(sorted(cells, key=lhs_sort_key))))
    return out
