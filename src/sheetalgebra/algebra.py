"""Composition operators on equation sets: union, shift, extract, mapping,
replicate, quotient — plus lookup, replace, the simplifier, diff, and the
one-copy-per-formula stylecheck.

All operators are pure: inputs are never modified.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, count

from .errors import (
    BoundednessError,
    CardinalityError,
    CollisionError,
    ConflictError,
    DomainError,
    EquivalenceError,
    FormulaSyntaxError,
    NotFoundError,
    OutOfGridError,
)
from .evaluator import binary
from .formula import (
    CANONICAL,
    canonical_text,
    formula_groups,
    parse_formula,
    relative_form,
    substitute_names,
    to_absolute,
)
from .model import (
    ARITH_OPS,
    MAX_COL,
    MAX_EQUATIONS,
    MAX_NESTING,
    MAX_ROW,
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
    check_subscripts,
    depth,
    fold,
    is_constant,
    lhs_sort_key,
    map_leaves,
    map_refs,
    on_grid,
    rebuild,
)

RAW, RELATIVE, ABSOLUTE, SUBSTITUTED = "raw", "relative", "absolute", "substituted"


def union(a: EquationSet, b: EquationSet) -> EquationSet:
    """Set union; a left-hand side may repeat only with an identical formula."""
    names = a.names
    for name, rng in b.names.items():
        if name in names and names[name] != rng:
            raise ConflictError(f"conflicting definitions for name {name!r}")
        names[name] = rng
    layouts = a.layouts + tuple(d for d in b.layouts if d not in a.layouts)
    return EquationSet(chain(a, b), names, layouts)


def shift(s: EquationSet, dx: int, dy: int) -> EquationSet:
    """Move the whole sheet dx columns right and dy rows down.  Absolute
    references and every bounded side of a range, in formulas and defined
    names, move too, even when they point at cells outside the set; relative
    references and unbounded sides stay.  Each tree object moves once, so
    shared trees stay shared, and the result keeps the canonical order."""

    def move(p):
        sheet, col, row = p
        if sheet is None:
            return p
        col = None if col is None else col + dx
        row = None if row is None else row + dy
        if not on_grid(1 if col is None else col, 1 if row is None else row):
            raise OutOfGridError(f"a reference on {sheet} shifted by ({dx},{dy}) leaves the grid")
        return sheet, col, row

    def move_box(lo, hi):
        return move(lo), move(hi)

    # move checks a cell on the grid
    result, out = _move(s, lambda a: CellAddr._make(move(a)), move_box)
    result._order = tuple(out)
    return result


def _move(s: EquationSet, cell, box) -> tuple[EquationSet, list[Equation]]:
    """s with each cell left-hand side sent through cell, and the references
    and range rectangles of its formulas and defined names through box (as
    map_refs takes it), each tree object once so that shared trees stay
    shared; and the moved equations in s's order.  Layout anchors stay."""
    moved, out = {}, []  # id of a tree -> the tree moved; s keeps each tree alive
    for lhs, rhs in s:
        if isinstance(lhs, CellAddr):
            lhs = cell(lhs)
        new = moved.get(id(rhs))
        if new is None:
            new = moved[id(rhs)] = map_refs(rhs, box)
        out.append(Equation._make((lhs, new)))
    names = {name: map_refs(RangeArg(rng), box).range for name, rng in s.names.items()}
    return EquationSet(out, names, s.layouts), out


def extract(s: EquationSet, r: CellRange) -> EquationSet:
    """Keep exactly the equations whose left-hand sides lie within r, in order."""
    boxes = [(sheet, c0 or 1, c1 or MAX_COL, r0 or 1, r1 or MAX_ROW)
             for sheet, c0, c1, r0, r1 in r.rects]  # unbounded sides at the grid edges
    kept = []
    for eq in s:
        if isinstance(eq.lhs, CellAddr):
            sheet, col, row = eq.lhs
            for sh, c0, c1, r0, r1 in boxes:
                if sheet == sh and c0 <= col <= c1 and r0 <= row <= r1:
                    kept.append(eq)
                    break
    out = EquationSet(kept, s.names, s.layouts)
    out._order = tuple(kept)
    return out


def map_range(s: EquationSet, src: CellRange, dst: CellRange) -> EquationSet:
    """Rewrite cells in src to the positionally corresponding cells in dst,
    both read rectangle by rectangle and row-major within each.  A reference,
    or a rectangle of a range in a formula or a defined name, moves when the
    map carries all of its cells by one offset and stays when it has no cell
    in src; any other is an error.  Relative references and layout anchors
    stay.  src and dst must each be bounded, of rectangles that do not overlap.
    The work grows with the rectangles, not with their cells."""
    for rng in (src, dst):
        if not rng.bounded:
            raise BoundednessError(f"cannot map the unbounded range {rng}")
        rects = rng.rects
        if any(_meet(a, b) for i, a in enumerate(rects) for b in rects[i + 1:]):
            raise DomainError(f"the rectangles of {rng} overlap")
    at = list(accumulate(map(_area, src.rects), initial=0))  # each rectangle's first position
    to = list(accumulate(map(_area, dst.rects), initial=0))
    if at[-1] != to[-1]:
        raise CardinalityError(f"source has {at[-1]} cells, target has {to[-1]}")

    def image(i, col, row):  # the cell that (col, row) of src rectangle i goes to
        _, c0, c1, r0, _ = src.rects[i]
        pos = at[i] + (row - r0) * (c1 - c0 + 1) + col - c0
        j = bisect_right(to, pos) - 1
        sheet, c0, c1, r0, _ = dst.rects[j]
        dr, dc = divmod(pos - to[j], c1 - c0 + 1)
        return sheet, c0 + dc, r0 + dr

    runs = []  # (a rectangle of src rectangle i whose cells all go to one dst rectangle, i)
    for i, (sheet, c0, c1, r0, _) in enumerate(src.rects):
        w = c1 - c0 + 1
        for j in range(bisect_right(to, at[i]) - 1, bisect_left(to, at[i + 1])):
            # the first and the last (row, column) of rectangle i that go to j
            (ru, cu), (rv, cv) = (divmod(max(at[i], to[j]) - at[i], w),
                                  divmod(min(at[i + 1], to[j + 1]) - 1 - at[i], w))
            if ru == rv:
                parts = [(ru, ru, cu, cv)]
            else:  # the whole rows, a first row from cu, a last row up to cv
                parts = [(ru + (cu > 0), rv - (cv < w - 1), 0, w - 1)]
                parts += [(ru, ru, cu, w - 1)] * (cu > 0) + [(rv, rv, 0, cv)] * (cv < w - 1)
            runs += [((sheet, c0 + a, c0 + b, r0 + p, r0 + q), i)
                     for p, q, a, b in parts if p <= q]

    def carry(lo, hi):
        rect = lo[0], lo[1], hi[1], lo[2], hi[2]
        offsets, area = set(), 0
        for run, i in runs:
            piece = _meet(rect, run)
            if piece is None:
                continue
            # a piece of a run moves by one offset when its two corners do: the
            # run keeps the distance in cells between them, so the rows of the
            # piece are then one row apart in dst too (its rectangles are as wide)
            _, c0, c1, r0, r1 = piece
            area += _area(piece)
            a, b = image(i, c0, r0), image(i, c1, r1)
            offsets |= {(a[0], a[1] - c0, a[2] - r0), (b[0], b[1] - c1, b[2] - r1)}
        if not offsets:
            return lo, hi
        if None in rect or area != _area(rect) or len(offsets) > 1:
            raise DomainError(f"mapping {src} to {dst} does not carry the range "
                              f"{CellRange((Rect(*rect),))} as one block")
        sheet, dc, dr = offsets.pop()
        return (sheet, lo[1] + dc, lo[2] + dr), (sheet, hi[1] + dc, hi[2] + dr)

    seen = set()

    def cell(a):
        a = CellAddr._make(carry(a, a)[0])  # a cell is never refused
        if a in seen:
            raise CollisionError(f"two equations land on {a} after mapping")
        seen.add(a)
        return a

    return _move(s, cell, carry)[0]


def _area(rect) -> int:
    """The number of cells of a bounded rectangle (sheet, c0, c1, r0, r1)."""
    return (rect[2] - rect[1] + 1) * (rect[4] - rect[3] + 1)


def _meet(a, b):
    """The rectangle (sheet, c0, c1, r0, r1) where a meets the bounded b, or
    None; a's unbounded sides reach the grid's edges."""
    sheet, c0, c1, r0, r1 = a
    if sheet != b[0]:
        return None
    c0, c1 = max(c0 or 1, b[1]), min(c1 or MAX_COL, b[2])
    r0, r1 = max(r0 or 1, b[3]), min(r1 or MAX_ROW, b[4])
    return (sheet, c0, c1, r0, r1) if c0 <= c1 and r0 <= r1 else None


def replicate(s: EquationSet, lo: int, hi: int) -> EquationSet:
    """Replicate a named-array set along a new trailing dimension lo..hi.
    Arrays not defined in the set are treated as external inputs and keep
    their subscripts."""
    if lo > hi:
        raise DomainError(f"empty replication range {lo}:{hi}")
    if len(s) * (hi - lo + 1) > MAX_EQUATIONS:
        raise DomainError(f"replicating {len(s)} equations {hi - lo + 1} times "
                          f"makes more than {MAX_EQUATIONS}")
    check_subscripts((lo, hi))  # so each new subscript k is checked here, once
    if not s.all_array_lhs():
        raise DomainError("replicate applies to sets with array left-hand sides only")
    defined = {lhs.name for lhs in s.lhs_set()}

    trees = {id(eq.rhs): eq.rhs for eq in s}  # equations sharing a tree share its copies
    out = []
    for k in range(lo, hi + 1) if s else ():  # an empty set makes no copies, however wide lo..hi
        def extend(node):
            if type(node) is ElemRef and node.name in defined:
                return ElemRef._make((node.name, node.subs + (k,)))
            return node

        copies = {i: map_leaves(tree, extend) for i, tree in trees.items()}
        for eq in s:
            lhs = ArrayElem._make((eq.lhs.name, eq.lhs.subs + (k,)))
            out.append(Equation(lhs, copies[id(eq.rhs)]))
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

    def strip(node):
        if type(node) is ElemRef and node.name in defined:
            if len(node.subs) < 2:
                raise EquivalenceError(f"{node.name} has no dimension left to project away")
            return ElemRef._make((node.name, node.subs[:-1]))
        return node

    projected: dict[ArrayElem, Formula] = {}
    fibers: dict[ArrayElem, set[int]] = {}
    for eq in s:
        last = eq.lhs.subs[-1]
        if not (lo <= last <= hi):
            raise DomainError(
                f"final subscript of {eq.lhs} lies outside {lo}:{hi}")
        if len(eq.lhs.subs) < 2:
            raise DomainError(f"{eq.lhs} has only one dimension; nothing to project")
        base = ArrayElem._make((eq.lhs.name, eq.lhs.subs[:-1]))
        stripped = map_leaves(eq.rhs, strip)
        if projected.setdefault(base, stripped) != stripped:
            raise EquivalenceError(f"equations projecting onto {base} are not equivalent")
        fibers.setdefault(base, set()).add(last)

    for base, got in fibers.items():
        if len(got) != hi - lo + 1:  # each index in got lies in lo..hi, as checked above
            first = next(i for i in count(lo) if i not in got)
            raise DomainError(f"fiber of {base} is missing {hi - lo + 1 - len(got)} "
                              f"of the indices {lo}:{hi}, the first {first}")
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
    absolute = to_absolute(eq.rhs, ref) if isinstance(ref, CellAddr) else eq.rhs
    if repr == ABSOLUTE:
        return absolute
    if repr == SUBSTITUTED:
        return substitute_names(absolute, s.names)
    raise DomainError(f"unknown representation {repr!r}")


def replace(s: EquationSet, pattern: Formula, replacement: Formula) -> EquationSet:
    """Global search-and-replace on formulas.  Subtrees are matched in
    relative representation anchored at each equation's cell, so an absolute
    pattern matches only the exact cells it names, while a relative pattern
    matches every copy.  Each group (`formula_groups`) is matched on its
    form, once if the pattern and the replacement read alike at all its
    cells, else once per member, in a bottom-up pass that does not rescan
    inserted replacements; a group without a match keeps its equations, and
    the result holds its groups.  A result nested deeper than the readers
    read is a FormulaSyntaxError, so that `save` never writes what `load`
    refuses."""
    formula_groups(s)
    deep = []  # rewritten equations nested past MAX_NESTING

    def matched(key, members, form, target, swap):  # members that read as form
        hits = set()  # the postorder positions of the matches

        def at(i, rel):
            if rel == target:
                hits.add(i)
                return swap
            return rel

        rel = _fold_at(form, at)
        if hits:
            new = [_fold_at(eq.rhs, lambda i, node: replacement if i in hits else node)
                   for eq in members]
            members = [eq if rhs is eq.rhs else Equation._make((eq.lhs, rhs))
                       for eq, rhs in zip(members, new)]
            if depth(rel) > MAX_NESTING:  # a member and its form have one shape
                deep.extend(eq for eq in members if s.get(eq.lhs) is not eq)
        return key and (key[0], rel), members

    def rewrite(key, members):
        if key is None:  # an array element: nothing to make relative
            return [matched(None, members, members[0].rhs, pattern, replacement)]
        classes = []
        for eq in members:
            target, swap = relative_form(pattern, eq.lhs), relative_form(replacement, eq.lhs)
            if target is pattern and swap is replacement:  # as at every cell of its sheet
                return [matched(key, members, key[1], pattern, replacement)]
            classes.append(matched(key, (eq,), key[1], target, swap))
        return classes

    out = _by_class(s, rewrite)
    for eq in sorted(deep, key=lambda eq: lhs_sort_key(eq.lhs)):
        # only so deep a tree can print as text nested past the readers' limit
        try:
            parse_formula(canonical_text(eq.rhs), CANONICAL)
        except FormulaSyntaxError as e:
            raise FormulaSyntaxError(f"replacing in {eq.lhs} gives a formula that does "
                                     f"not read back: {e}") from None
    return out


def _fold_at(f: Formula, step) -> Formula:
    """f rebuilt bottom-up through step(postorder position, rebuilt node)."""
    pos = count()
    return fold(f, lambda node: step(next(pos), node),
                lambda node, kids, new_kids: step(next(pos), rebuild(node, kids, new_kids)))


def _by_class(s: EquationSet, rewrite) -> EquationSet:
    """s rewritten by rewrite(key, members) -> [(key, members)] one class at
    a time: each group, when s holds its groups, which the result then holds
    too, merged where they meet; any other equation alone, keyed None.  The
    rewrite keeps every left-hand side, so the result keeps the order of s."""
    grouped = s._groups is not None
    classes = list(s._groups.items()) if grouped else []
    classes += [(None, (eq,)) for eq in s if not (grouped and isinstance(eq.lhs, CellAddr))]
    eqs, groups = [], {}
    for key, members in classes:
        for new_key, new_members in rewrite(key, members):
            eqs += new_members
            if new_key is not None:
                groups.setdefault(new_key, []).append(new_members)
    out = EquationSet(eqs, s.names, s.layouts)
    out._order = tuple(map(out.get, (eq.lhs for eq in s)))
    if grouped:
        by_lhs = lambda eq: lhs_sort_key(eq.lhs)  # noqa: E731
        merged = [(key, tuple(sorted(chain(*parts), key=by_lhs) if len(parts) > 1 else parts[0]))
                  for key, parts in groups.items()]
        out._groups = dict(sorted(merged, key=lambda item: by_lhs(item[1][0])))
    return out


# ---------------------------------------------------------------------------
# Simplifier


def _is_num(f, v=None):
    return isinstance(f, Number) and (v is None or f.value == v)


def _certainly_numeric(f) -> bool:
    """Whether f's value is a number or an error whatever the cells hold: a
    number literal, a negation or an arithmetic operator's result."""
    return isinstance(f, (Number, Neg)) or (isinstance(f, Binary) and f.op in ARITH_OPS)


def simplify_formula(f: Formula) -> Formula:
    """Bottom-up algebraic simplification to a fixpoint: unit laws, double
    negation, and constant folding of operator nodes.  A law that drops an
    operator applies only where the operand kept is certainly a number or
    an error, as the operator's result is, so that every value stays.  Each
    law gives a leaf or an already simplified child, so one pass suffices."""

    def rule(node):
        if isinstance(node, Neg):
            if isinstance(node.operand, Neg) and _certainly_numeric(node.operand.operand):
                return node.operand.operand
            if isinstance(node.operand, Number):
                return Number(-node.operand.value)
        if isinstance(node, Binary):
            op, left, right = node.op, node.left, node.right
            if _is_num(left) and _is_num(right):
                # fold as the evaluator computes it; an error value stays unfolded
                v = binary(op, left.value, right.value)
                if isinstance(v, bool):
                    return Bool(v)
                if isinstance(v, float):
                    return Number(v)
            kept = None
            if _is_num(right, 0 if op in ("+", "-") else 1) and op in ARITH_OPS:
                kept = left
            elif op == "+" and _is_num(left, 0) or op == "*" and _is_num(left, 1):
                kept = right
            if kept is not None and _certainly_numeric(kept):
                return kept
        return node

    return fold(f, rule, lambda node, kids, new_kids: rule(rebuild(node, kids, new_kids)))


def simplify(s: EquationSet) -> EquationSet:
    """Every formula through `simplify_formula`, once per group's form when
    s holds its groups (the laws read no reference), so the result holds
    them too; else one equation at a time, as grouping costs more."""

    def rewrite(key, members):
        form = members[0].rhs if key is None else key[1]
        new = simplify_formula(form)
        if new is not form:
            members = [Equation._make((eq.lhs, new if eq.rhs is form else simplify_formula(eq.rhs)))
                       for eq in members]
        return [(key and (key[0], new), members)]

    return _by_class(s, rewrite)


# ---------------------------------------------------------------------------
# Diff and stylecheck


@dataclass(frozen=True)
class DiffReport:
    added: tuple
    removed: tuple
    changed: tuple  # (lhs, old rhs, new rhs)

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


def diff(a: EquationSet, b: EquationSet, mode: str = "absolute") -> DiffReport:
    """Compare two sets.  Each formula is compared resolved at its own cell,
    so `C2-B2` and `RC[-1]-RC[-2]` at D2 count as equal.  Equal trees at one
    cell resolve alike, so only formulas whose trees differ are resolved: an
    unchanged formula is not reported, and raises nothing for a HERE marker
    or an offset off the grid.
    `mode` is kept for callers that pass it: "relative" compares the same
    view, because a formula's offsets and its absolute references at one
    cell determine each other."""
    if mode not in ("absolute", "relative"):
        raise DomainError(f"unknown diff mode {mode!r}")
    a_lhs, b_lhs = a.lhs_set(), b.lhs_set()
    added = tuple(sorted(b_lhs - a_lhs, key=lhs_sort_key))
    removed = tuple(sorted(a_lhs - b_lhs, key=lhs_sort_key))

    def view(eq):
        if isinstance(eq.lhs, CellAddr):
            return to_absolute(eq.rhs, eq.lhs)
        return eq.rhs

    changed = []
    for old in a:  # in a's canonical order, which the report keeps
        new = b.get(old.lhs)
        if new is not None and old.rhs != new.rhs and view(old) != view(new):
            changed.append((old.lhs, old.rhs, new.rhs))
    return DiffReport(added, removed, tuple(changed))


@dataclass(frozen=True)
class StyleViolation:
    sheet: str
    canonical_formula: str
    cells: tuple


def stylecheck_unique(s: EquationSet) -> list[StyleViolation]:
    """Find formulas copied more than once on a worksheet.  Grouping is by
    canonical relative form, so copy-filled variants count as one formula.
    Constants are exempt."""
    violations = [StyleViolation(sheet, canonical_text(rel), tuple(eq.lhs for eq in eqs))
                  for (sheet, rel), eqs in formula_groups(s).items()
                  if len(eqs) >= 2 and not is_constant(rel)]
    return sorted(violations, key=lambda v: (v.sheet, v.canonical_formula))
