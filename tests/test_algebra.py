import collections
import copy
import itertools
import pickle
import random
import time
from unittest import mock

import pytest

from sheetalgebra import (
    ABSOLUTE,
    RAW,
    RELATIVE,
    SUBSTITUTED,
    AbsRef,
    ArrayElem,
    Binary,
    Bool,
    Call,
    CellAddr,
    CellRange,
    ElemRef,
    Equation,
    EquationSet,
    Here,
    LayoutSet,
    NameRef,
    Number,
    RangeArg,
    Rect,
    RelRef,
    addr,
    diff,
    discover_groups,
    eval_script,
    evaluate,
    evaluate_cell,
    extract,
    canonical_text,
    compile_set,
    decompile_set,
    load,
    lookup,
    map_range,
    parse_document,
    parse_formula,
    parse_listing,
    parse_script,
    quotient,
    replace,
    replicate,
    save,
    shift,
    show,
    simplify,
    simplify_formula,
    stylecheck_unique,
    substitute_names,
    to_absolute,
    union,
)
from sheetalgebra.errors import (
    BoundednessError,
    CardinalityError,
    CollisionError,
    ConflictError,
    DomainError,
    EquivalenceError,
    NotFoundError,
    FormulaSyntaxError,
    OutOfGridError,
    SheetError,
    SubstitutionError,
)
from sheetalgebra import algebra, formula
from sheetalgebra.formula import formula_groups, relative_form
from sheetalgebra.model import BINARY_OPS, MAX_NESTING, map_refs

from conftest import make_set, rand_cell_set, typed_values


class TestUnion:
    def test_labels_plus_data(self, accounts, labels):
        combined = union(labels, accounts)
        assert len(combined) == 12
        assert combined.get(addr("A1")).rhs == parse_formula('"Year"')
        assert combined.get(addr("D2")).rhs == parse_formula("C2-B2")

    def test_dependent_cells(self, accounts, tax):
        combined = union(accounts, tax)
        values = evaluate(combined)
        assert values[addr("E2")] == pytest.approx(-171.93, abs=1e-9)

    def test_conflict_rejected(self):
        a = make_set(("A1", "1"), ("B1", "3"))
        b = make_set(("A1", "2"), ("B1", "4"))
        with pytest.raises(ConflictError, match=r"^conflicting equations for A1: 1 vs 2$"):
            union(a, b)

    def test_duplicate_identical_allowed(self):
        a = make_set(("A1", "1"), ("B1", "A1+1"))
        b = make_set(("A1", "1"))
        assert union(a, b) == a

    def test_commutative_when_defined(self):
        rng = random.Random(21)
        for _ in range(100):
            a, b = rand_cell_set(rng), rand_cell_set(rng)
            try:
                left = union(a, b)
            except ConflictError:
                with pytest.raises(ConflictError):
                    union(b, a)
                continue
            assert left == union(b, a)

    def test_names_from_both_sides_merge(self):
        costs, rate = CellRange.box(addr("B2"), addr("B9")), CellRange.cell(addr("C1"))
        a = make_set(("A1", "SUM(costs)"), names={"costs": costs})
        b = make_set(("A2", "rate*2"), names={"rate": rate, "costs": costs})
        assert union(a, b).names == {"costs": costs, "rate": rate}

    def test_name_defined_differently_conflicts(self):
        a = make_set(("A1", "1"), names={"rate": CellRange.cell(addr("C1"))})
        b = make_set(("A2", "2"), names={"rate": CellRange.cell(addr("C2"))})
        with pytest.raises(ConflictError, match="rate"):
            union(a, b)


class TestShift:
    def test_uniform_translation(self):
        # Left-hand sides and every absolute reference move by the same
        # offset, so D3=C3-B3 at (2,10) becomes F13=E13-D13.
        s = make_set(("D3", "C3-B3"), ("D2", "C2-B2"))
        out = shift(s, 2, 10)
        assert out == make_set(("F13", "E13-D13"), ("F12", "E12-D12"))

    def test_insert_column(self, accounts):
        roman = make_set(("A2", '"MM"'), ("A3", '"MMI"'))
        combined = union(roman, shift(accounts, 1, 0))
        assert combined.get(addr("E2")).rhs == parse_formula("D2-C2")
        assert combined.get(addr("B2")).rhs == Number(2000.0)

    def test_relative_refs_untouched(self):
        s = make_set(("D3", "R[-1]C", "r1c1"))
        assert shift(s, 3, 3).get(addr("G6")).rhs == RelRef(0, -1)

    def test_out_of_grid(self):
        with pytest.raises(OutOfGridError):
            shift(make_set(("A1", "1")), -1, 0)
        with pytest.raises(OutOfGridError):
            shift(make_set(("B2", "A1+1")), 0, -1)

    def test_composition(self):
        rng = random.Random(22)
        for _ in range(100):
            s = rand_cell_set(rng)
            assert shift(shift(s, 2, 3), 4, 5) == shift(s, 6, 8)
            assert shift(s, 0, 0) == s

    def test_preserves_meaning(self):
        # evaluating the shifted sheet gives the same values at shifted cells
        rng = random.Random(23)
        for _ in range(50):
            s = rand_cell_set(rng, evaluable=True)
            base = evaluate(s)
            moved = evaluate(shift(s, 3, 4))
            for cell, v in base.items():
                assert moved[addr(f"{chr(ord('A') + cell.col + 2)}{cell.row + 4}")] == v

    def test_range_moves_with_cells(self):
        s = make_set(("C1", "1"), ("C2", "2"), ("D2", "SUM(C1:C2)"))
        moved = shift(s, 0, 1)
        assert moved.get(addr("D3")).rhs == parse_formula("SUM(C2:C3)")
        assert evaluate(moved)[addr("D3")] == 3.0

    def test_unbounded_range_sides_stay(self):
        s = make_set(("A1", "SUM(C:C)"), ("A2", "SUM(2:3)"))
        moved = shift(s, 1, 0)
        assert moved.get(addr("B1")).rhs == parse_formula("SUM(D:D)")
        assert moved.get(addr("B2")).rhs == parse_formula("SUM(2:3)")

    def test_range_side_leaving_the_grid(self):
        # the left-hand side stays on the grid; only the range leaves it
        with pytest.raises(OutOfGridError):
            shift(make_set(("A5", "SUM(2:3)")), 0, -2)
        with pytest.raises(OutOfGridError):
            shift(make_set(("A1", "SUM(C1:C2)")), 0, 1048575)

    def test_past_the_last_row_fails_before_save(self):
        s = make_set(("A1", "1"))
        assert shift(s, 0, 1048575).get(addr("A1048576")).rhs == parse_formula("1")
        with pytest.raises(OutOfGridError):
            shift(s, 0, 1048576)

    def test_defined_names_move(self):
        # SUM(costs) moves as SUM(B2:B3) written out does; the rows of the
        # unbounded band stay
        s = parse_document("B2 = 1\nB3 = 2\nA1 = SUM(costs)\nA2 = SUM(B2:B3)\n"
                           "D1 = SUM(band)\nname B2:B3 as costs\nname 2:3 as band")
        moved = shift(s, 1, 0)
        assert moved.names == {"costs": CellRange.box(addr("C2"), addr("C3")),
                               "band": CellRange.rows(2, 3)}
        assert evaluate(moved) == {CellAddr(a.sheet, a.col + 1, a.row): v
                                   for a, v in evaluate(s).items()}
        with pytest.raises(OutOfGridError):
            shift(parse_document("A5 = 1\nname B2:B3 as costs"), 0, -2)

    def test_each_tree_object_moves_once(self):
        s = parse_document("\n".join(f"B{r} = R[-1]C*A1" for r in range(2, 1002)))
        trees = {id(eq.rhs) for eq in s}
        calls = []

        def counting(f, fn):
            calls.append(f)
            return map_refs(f, fn)

        with mock.patch("sheetalgebra.algebra.map_refs", counting):
            out = shift(s, 2, 3)
        assert len(calls) <= len(trees) < len(s)
        assert len({id(eq.rhs) for eq in out}) == len(trees)
        assert out.get(addr("D5")).rhs == Binary("*", RelRef(0, -1), AbsRef(addr("C4")))


class TestExtract:
    def test_box(self, accounts):
        out = extract(accounts, CellRange.box(addr("A1"), addr("D2")))
        assert out == make_set(("A2", "2000"), ("B2", "1492"),
                               ("C2", "971"), ("D2", "C2-B2"))

    def test_column_bands(self, accounts):
        left = extract(accounts, CellRange.columns(1, 3))
        assert len(left) == 6
        assert addr("D2") not in left.lhs_set()

    def test_non_contiguous(self, accounts):
        r = CellRange.columns(1, 1).union(CellRange.columns(3, 4))
        out = extract(accounts, r)
        assert out.lhs_set() == {addr(c) for c in
                                 ("A2", "A3", "C2", "C3", "D2", "D3")}

    def test_partition(self):
        rng = random.Random(24)
        for _ in range(100):
            s = rand_cell_set(rng)
            r = CellRange.columns(1, 4)
            inside = extract(s, r)
            outside = extract(s, CellRange.columns(5, 8))
            assert union(inside, outside) == s


class TestMapping:
    def test_rotate_row_to_column(self):
        expenses3 = make_set(("A1", "10"), ("A2", "20"))
        rotated = map_range(expenses3,
                            CellRange.box(addr("A1"), addr("A2")),
                            CellRange.box(addr("B2"), addr("B3")))
        assert rotated == make_set(("B2", "10"), ("B3", "20"))

    def test_references_move_with_cells(self):
        s = make_set(("A1", "10"), ("A2", "A1*2"))
        out = map_range(s, CellRange.box(addr("A1"), addr("A2")),
                        CellRange.box(addr("C5"), addr("C6")))
        assert out == make_set(("C5", "10"), ("C6", "C5*2"))

    def test_cardinality_mismatch(self):
        s = make_set(("A1", "1"))
        with pytest.raises(CardinalityError):
            map_range(s, CellRange.box(addr("A1"), addr("A2")),
                      CellRange.cell(addr("B1")))

    def test_collision(self):
        s = make_set(("A1", "1"), ("B5", "2"))
        with pytest.raises(CollisionError):
            map_range(s, CellRange.cell(addr("A1")), CellRange.cell(addr("B5")))

    def test_self_inverse(self):
        rng = random.Random(25)
        src = CellRange.box(addr("A1"), addr("H8"))
        dst = CellRange.box(addr("K11"), addr("R18"))
        for _ in range(100):
            s = rand_cell_set(rng)
            assert map_range(map_range(s, src, dst), dst, src) == s

    def test_range_moves_with_its_cells(self):
        s = make_set(("C1", "1"), ("C2", "2"), ("D2", "SUM(C1:C2)"))
        out = map_range(s, CellRange.box(addr("C1"), addr("C2")),
                        CellRange.box(addr("E1"), addr("E2")))
        assert out.get(addr("D2")).rhs == parse_formula("SUM(E1:E2)")
        assert evaluate(out)[addr("D2")] == 3.0

    def test_range_outside_the_source_stays(self):
        s = make_set(("C1", "1"), ("D2", "SUM(A1:B2)+SUM(2:3)+SUM(D:D)+SUM(Sheet2!C1:C1)"))
        out = map_range(s, CellRange.cell(addr("C1")), CellRange.cell(addr("C9")))
        assert out.get(addr("D2")) == s.get(addr("D2"))
        assert out.get(addr("C9")).rhs == parse_formula("1")

    @pytest.mark.parametrize("rng, src, dst", [
        ("C1:C3", "C1:C2", "E1:E2"),  # a corner and one more cell, not all
        ("B1:D1", "C1:C1", "C9:C9"),  # only a cell inside, no corner
        ("C:C", "C1:C2", "E1:E2"),    # a whole column
    ])
    def test_range_partly_carried_is_refused(self, rng, src, dst):
        s = make_set(("A9", f"SUM({rng})"))

        def box(text):
            lo, hi = text.split(":")
            return CellRange.box(addr(lo), addr(hi))

        with pytest.raises(DomainError, match=rng):
            map_range(s, box(src), box(dst))

    def test_range_carried_apart_is_refused(self):
        # C1 goes to E2 and C2 to E1: every cell moves, but not by one offset
        s = make_set(("A9", "SUM(C1:C2)"))
        dst = CellRange.cell(addr("E2")).union(CellRange.cell(addr("E1")))
        with pytest.raises(DomainError, match="C1:C2"):
            map_range(s, CellRange.box(addr("C1"), addr("C2")), dst)

    def test_cells_pair_up_row_major(self):
        s = make_set(("A1", "1"), ("B1", "2"), ("A2", "3"), ("B2", "4"))
        out = map_range(s, CellRange.box(addr("A1"), addr("B2")),
                        CellRange.box(addr("D1"), addr("D4")))
        assert out == make_set(("D1", "1"), ("D2", "2"), ("D3", "3"), ("D4", "4"))

    def test_unbounded_range_is_refused(self):
        s = make_set(("A1", "1"))
        for src, dst in ((CellRange.columns(1, 1), CellRange.columns(2, 2)),
                         (CellRange.cell(addr("A1")), CellRange.rows(1, 1))):
            with pytest.raises(BoundednessError):
                map_range(s, src, dst)

    def test_names_move_with_their_cells(self):
        s = parse_document("B2 = 1\nB3 = 2\nA1 = SUM(costs)\nA2 = SUM(B2:B3)\n"
                           "name B2:B3 as costs\nname B2 as first\n")
        out = map_range(s, CellRange.box(addr("B2"), addr("B3")),
                        CellRange.box(addr("D2"), addr("D3")))
        assert out.names == {"costs": CellRange.box(addr("D2"), addr("D3")),
                             "first": CellRange.cell(addr("D2"))}
        values = evaluate(out)
        assert values[addr("A1")] == values[addr("A2")] == 3.0

    def test_overlapping_rectangles_are_refused(self):
        s = make_set(("A1", "1"))
        two = CellRange.box(addr("A1"), addr("B2")).union(CellRange.cell(addr("B2")))
        five = CellRange.box(addr("D1"), addr("D5"))
        for src, dst in ((two, five), (five, two)):
            with pytest.raises(DomainError, match="overlap"):
                map_range(s, src, dst)

    def test_the_whole_grid_maps_at_once(self):
        start = time.process_time()
        value, _ = eval_script(parse_script(
            "{ A1 = 1 } mapping A1:XFD1048576 to A1:XFD1048576."))
        assert time.process_time() - start < 0.1
        assert value == make_set(("A1", "1"))

    def test_thousands_of_rows_map_in_linear_time(self):
        def best(n):
            s = parse_document("".join(f"A{r} = SUM(B{r}:C{r})\n" for r in range(1, n + 1)))
            src, dst = (CellRange.box(addr(f"{a}1"), addr(f"{b}{n}")) for a, b in ("BC", "EF"))
            times = []
            for _ in range(3):
                start = time.process_time()
                out = map_range(s, src, dst)
                times.append(time.process_time() - start)
            assert out.get(addr(f"A{n}")).rhs == parse_formula(f"SUM(E{n}:F{n})")
            return min(times)

        small, large = best(4000), best(8000)
        assert small < 0.1
        assert large < 3 * small  # linear in the equations

    def test_agrees_with_the_cell_list_reference(self):
        rng = random.Random(26)
        outcomes = collections.Counter()
        for _ in range(3000):
            s, src, dst = _random_mapping(rng)
            got, want = (_outcome(f, s, src, dst) for f in (map_range, _reference_map_range))
            assert got == want, (show(s), src, dst)
            outcomes["set" if isinstance(want, EquationSet) else want[0].__name__] += 1
        # a set, and each error: DomainError, CardinalityError, CollisionError
        assert len(outcomes) == 4 and min(outcomes.values()) > 50, outcomes


def _outcome(f, *args):
    try:
        return f(*args)
    except SheetError as e:
        return type(e), str(e)


def _reference_cells(r):
    """The cells of a range rectangle by rectangle, row-major within each,
    without repeats."""
    if not r.bounded:
        raise BoundednessError("cannot enumerate an unbounded range")
    cells = (CellAddr(sheet, col, row) for sheet, c0, c1, r0, r1 in r.rects
             for row in range(r0, r1 + 1) for col in range(c0, c1 + 1))
    return list(dict.fromkeys(cells))


def _reference_map_range(s, src, dst):
    """map_range as it was written with cell lists: it lists the cells of
    both ranges and scans them for each range of a formula.  Defined names
    go through its carry too."""
    src_cells = _reference_cells(src)
    dst_cells = _reference_cells(dst)
    if len(src_cells) != len(dst_cells):
        raise CardinalityError(
            f"source has {len(src_cells)} cells, target has {len(dst_cells)}")
    moves = dict(zip(src_cells, dst_cells))

    def carry(lo, hi):
        (sheet, c0, r0), (_, c1, r1) = lo, hi
        if sheet is None:
            return lo, hi
        if lo == hi and None not in lo:  # a cell
            q = moves.get(lo, lo)
            return q, q
        inside = [p for p in moves if p[0] == sheet
                  and (c0 is None or c0 <= p[1] <= c1) and (r0 is None or r0 <= p[2] <= r1)]
        if not inside:
            return lo, hi
        offsets = {(moves[p][0], moves[p][1] - p[1], moves[p][2] - p[2]) for p in inside}
        if None in lo or len(inside) != (c1 - c0 + 1) * (r1 - r0 + 1) or len(offsets) > 1:
            raise DomainError(f"mapping {src} to {dst} does not carry the range "
                              f"{CellRange((Rect(sheet, c0, c1, r0, r1),))} as one block")
        to_sheet, dc, dr = offsets.pop()
        return (to_sheet, c0 + dc, r0 + dr), (to_sheet, c1 + dc, r1 + dr)

    out = {}
    for eq in s:
        lhs = eq.lhs
        if isinstance(lhs, CellAddr):
            lhs = moves.get(lhs, lhs)
        if lhs in out:
            raise CollisionError(f"two equations land on {lhs} after mapping")
        out[lhs] = Equation(lhs, map_refs(eq.rhs, carry))
    names = {name: map_refs(RangeArg(rng), carry).range for name, rng in s.names.items()}
    return EquationSet(out.values(), names, s.layouts)


def _random_rect(rng, sheet, width, height, span=8):
    col, row = rng.randint(1, span - width + 1), rng.randint(1, span - height + 1)
    return Rect(sheet, col, col + width - 1, row, row + height - 1)


def _size(r):
    return (r.col_hi - r.col_lo + 1) * (r.row_hi - r.row_lo + 1)


def _overlap(a, b):
    return (a.sheet == b.sheet and a.col_lo <= b.col_hi and b.col_lo <= a.col_hi
            and a.row_lo <= b.row_hi and b.row_lo <= a.row_hi)


def _disjoint(rng, sizes, sheets):
    """Disjoint rectangles in A1:H8, one of each size, each on one of
    sheets; None when a size fits no rectangle or the draws keep meeting."""
    rects = []
    for size in sizes:
        widths = [w for w in range(1, 9) if size % w == 0 and size // w <= 8]
        for _ in range(50 if widths else 0):
            width = rng.choice(widths)
            r = _random_rect(rng, rng.choice(sheets), width, size // width)
            if not any(_overlap(r, q) for q in rects):
                rects.append(r)
                break
        else:
            return None
    return CellRange(tuple(rects))


def _cut(rng, rect):
    """A range of rect cut into one to three bands of whole rows or of whole
    columns, in order or not."""
    sheet, c0, c1, r0, r1 = rect
    rows = rng.random() < 0.5
    lo, hi = (r0, r1) if rows else (c0, c1)
    cuts = sorted(rng.sample(range(lo + 1, hi + 1), min(hi - lo, rng.randint(0, 2))))
    bands = list(zip([lo] + cuts, [c - 1 for c in cuts] + [hi]))
    if rng.random() < 0.2:
        rng.shuffle(bands)
    return CellRange(tuple(Rect(sheet, c0, c1, a, b) if rows else Rect(sheet, a, b, r0, r1)
                           for a, b in bands))


def _random_mapping(rng):
    """A mapping of one to three disjoint rectangles in A1:H8 of Sheet1 to
    one to three disjoint rectangles there or on Sheet2, with as many cells
    or now and then not, at times one box cut two ways; and a set of up to
    three cells in either, with references, relative references, ranges
    (some in the source, some whole columns) and a defined name."""
    src = dst = None
    if rng.random() < 0.3:  # one box cut two ways, so that ranges across the cuts move
        width, height = rng.randint(1, 4), rng.randint(1, 4)
        src = _cut(rng, _random_rect(rng, "Sheet1", width, height))
        dst = _cut(rng, _random_rect(rng, rng.choice(["Sheet1", "Sheet2"]), width, height))
    while src is None:
        src = _disjoint(rng, [rng.randint(1, 6) for _ in range(rng.randint(1, 3))], ["Sheet1"])
    total = sum(map(_size, src.rects)) + (rng.random() < 0.05)
    while dst is None:
        cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(0, 2))))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        dst = _disjoint(rng, sizes, rng.choice([["Sheet1"], ["Sheet2"], ["Sheet1", "Sheet2"]]))

    def some_rect():
        kind = rng.random()
        if kind < 0.1:  # around all of src
            rects = src.rects
            return Rect("Sheet1", min(r.col_lo for r in rects), max(r.col_hi for r in rects),
                        min(r.row_lo for r in rects), max(r.row_hi for r in rects))
        if kind < 0.5:  # within a rectangle of src, or the whole of one
            sheet, c0, c1, r0, r1 = rng.choice(src.rects)
            a, b = sorted(rng.randint(c0, c1) for _ in "ab")
            c, d = sorted(rng.randint(r0, r1) for _ in "cd")
            return Rect(sheet, a, b, c, d) if kind < 0.4 else Rect(sheet, c0, c1, r0, r1)
        if kind < 0.6:
            return Rect(rng.choice(["Sheet1", "Sheet2"]), *[rng.randint(1, 8)] * 2, None, None)
        if kind < 0.65:
            return Rect(None, 0, 1, -1, 0)
        return _random_rect(rng, rng.choice(["Sheet1", "Sheet1", "Sheet2"]),
                            rng.randint(1, 3), rng.randint(1, 3))

    def leaf():
        kind = rng.random()
        if kind < 0.3:
            sheet, c0, _, r0, _ = (rng.choice(src.rects) if kind < 0.2
                                   else _random_rect(rng, rng.choice(["Sheet1", "Sheet2"]), 1, 1))
            return AbsRef(CellAddr(sheet, c0, r0))
        if kind < 0.4:
            return RelRef(rng.randint(-1, 1), rng.randint(-1, 1))
        if kind < 0.5:
            return Number(1.0)
        if kind < 0.6:
            return Call("SUM", (NameRef("costs"),))
        rects = tuple(some_rect() for _ in range(rng.randint(1, 2)))
        return Call("SUM", (RangeArg(CellRange(rects)),))

    def some_cell():  # in src, in dst, or anywhere
        sheet, c0, c1, r0, r1 = rng.choice([rng.choice(src.rects), rng.choice(dst.rects),
                                             _random_rect(rng, "Sheet1", 8, 8)])
        return CellAddr(sheet, rng.randint(c0, c1), rng.randint(r0, r1))

    cells = sorted({some_cell() for _ in range(rng.randint(0, 3))})
    eqs = [Equation(a, leaf() if rng.random() < 0.7 else Binary("+", leaf(), leaf()))
           for a in cells]
    if rng.random() < 0.1:
        eqs.append(Equation(ArrayElem("x", (1,)), leaf()))
    names = {"costs": CellRange((some_rect(),))} if rng.random() < 0.5 else {}
    return EquationSet(eqs, names), src, dst


class TestReplicate:
    def test_new_trailing_dimension(self):
        s = make_set(("y[1]", "1"))
        assert replicate(s, 2000, 2001) == make_set(
            ("y[1,2000]", "1"), ("y[1,2001]", "1"))

    def test_internal_refs_gain_subscript(self):
        s = parse_document("a[1] = 1, b[1] = a[1]+ext[1]")
        out = replicate(s, 5, 5)
        got = out.get(ArrayElem("b", (1, 5))).rhs
        # refs to arrays defined in the set follow the replication; refs to
        # external arrays do not
        assert got == parse_formula("a[1,5]+ext[1]", "canonical")

    def test_rejects_cell_sets(self, accounts):
        with pytest.raises(DomainError):
            replicate(accounts, 1, 2)

    def test_empty_range(self):
        with pytest.raises(DomainError):
            replicate(make_set(("y[1]", "1")), 3, 2)

    def test_equations_sharing_a_tree_share_its_copies(self):
        one = parse_formula("a[1]*2", "canonical")
        s = EquationSet([Equation(ArrayElem("b", (i,)), one) for i in range(1, 4)]
                        + [Equation(ArrayElem("a", (1,)), Number(1.0))])
        out = replicate(s, 1, 3)
        for k in range(1, 4):
            copies = {id(out.get(ArrayElem("b", (i, k))).rhs) for i in range(1, 4)}
            assert len(copies) == 1
            assert out.get(ArrayElem("b", (1, k))).rhs == parse_formula(f"a[1,{k}]*2", "canonical")

    @pytest.mark.parametrize("k", [10**18, -(10**18)])
    def test_index_past_the_readers_digits(self, k):
        # the new subscripts are built unchecked, so the bounds are checked first
        s = parse_document("a[1] = 1, b[1] = a[1]")
        with pytest.raises(DomainError):
            replicate(s, k, k)


class TestQuotient:
    def test_inverse_of_replicate(self):
        s = make_set(("y[1,2000]", "1"), ("y[1,2001]", "1"))
        assert quotient(s, 2000, 2001) == make_set(("y[1]", "1"))

    def test_equivalence_required(self):
        s = make_set(("y[1,2000]", "1"), ("y[1,2001]", "2"))
        with pytest.raises(EquivalenceError):
            quotient(s, 2000, 2001)

    def test_missing_fiber(self):
        s = make_set(("y[1,2000]", "1"))
        with pytest.raises(DomainError):
            quotient(s, 2000, 2001)

    def test_short_fiber_costs_what_the_set_holds(self):
        start = time.process_time()
        with pytest.raises(DomainError) as err:
            quotient(make_set(("y[1,1]", "1")), 1, 3000000)
        assert time.process_time() - start < 0.1
        assert str(err.value) == ("fiber of y[1] is missing 2999999 of the indices 1:3000000, "
                                  "the first 2")

    def test_empty_set_over_a_wide_range(self):
        start = time.process_time()
        assert quotient(EquationSet(), 1, 30000000) == EquationSet()
        assert time.process_time() - start < 0.1

    @pytest.mark.parametrize("pairs, lo, hi, error, message", [
        ((("y[1,1]", "1"),), 2, 1, DomainError, "empty quotient range 2:1"),
        ((("y[1,1]", "1"), ("z[1,1]", "y[1]")), 1, 1, EquivalenceError,
         "y has no dimension left to project away"),
        ((("y[1,5]", "1"),), 1, 3, DomainError, r"final subscript of y\[1,5\] lies outside 1:3"),
        ((("y[1]", "1"),), 1, 1, DomainError, r"y\[1\] has only one dimension"),
    ])
    def test_refusals(self, pairs, lo, hi, error, message):
        with pytest.raises(error, match=message):
            quotient(make_set(*pairs), lo, hi)

    def test_round_trip_random(self):
        from conftest import rand_array_set

        rng = random.Random(26)
        for _ in range(200):
            s = rand_array_set(rng)
            assert quotient(replicate(s, 3, 6), 3, 6) == s


class TestLookup:
    def test_raw_is_canonical_text(self, accounts):
        assert lookup(accounts, addr("D2"), RAW) == "C2-B2"

    def test_relative_returns_stored_tree(self):
        s = make_set(("A37", "R[-33]C+1", "r1c1"))
        assert lookup(s, addr("A37"), RELATIVE) == Binary("+", RelRef(0, -33),
                                                          Number(1.0))

    def test_absolute_resolves_offsets(self):
        s = make_set(("A37", "R[-33]C+1", "r1c1"))
        assert lookup(s, addr("A37"), ABSOLUTE) == parse_formula("A4+1")

    def test_substituted_expands_names(self):
        s = make_set(("A1", "rate*2"))
        s = EquationSet(s, {"rate": CellRange.cell(addr("B9"))}, s.layouts)
        assert lookup(s, addr("A1"), SUBSTITUTED) == parse_formula("B9*2")

    def test_not_found(self, accounts):
        with pytest.raises(NotFoundError):
            lookup(accounts, addr("Z99"))

    def test_unknown_representation(self, accounts):
        with pytest.raises(DomainError, match="unknown representation 'bogus'"):
            lookup(accounts, addr("D2"), "bogus")


class TestReplace:
    def test_absolute_pattern_hits_named_cells_only(self, accounts):
        out = replace(accounts, parse_formula("C2-B2"), parse_formula("C2+B2"))
        assert out.get(addr("D2")).rhs == parse_formula("C2+B2")
        assert out.get(addr("D3")).rhs == parse_formula("C3-B3")

    def test_relative_pattern_hits_every_copy(self, accounts):
        pat = parse_formula("RC[-1]-RC[-2]", "r1c1")
        out = replace(accounts, pat, Number(0.0))
        assert out.get(addr("D2")).rhs == Number(0.0)
        assert out.get(addr("D3")).rhs == Number(0.0)

    def test_subtree_replacement(self):
        s = make_set(("A1", "(B1+C1)*2"))
        out = replace(s, parse_formula("B1+C1"), NameRef("total"))
        assert out.get(addr("A1")).rhs == parse_formula("total*2")

    def test_no_match_is_identity(self, accounts):
        assert replace(accounts, parse_formula("Z9"), Number(1.0)) == accounts


    def test_result_nested_past_the_readers_is_refused(self):
        s = parse_document("B1 = " + "-" * MAX_NESTING + "A1")
        with pytest.raises(FormulaSyntaxError):
            replace(s, parse_formula("A1"), parse_formula("-C1"))

    @pytest.mark.parametrize("value", [2.0, 0.0])
    def test_negated_number_reads_back(self, value, tmp_path):
        # the reader folds a negated number into one literal, and so does replace
        s = parse_document("A1 = 1\nB1 = -A1")
        out = replace(s, parse_formula("A1"), Number(value))
        assert out.get(addr("B1")).rhs == Number(-value)  # bitwise, so -0 keeps its sign
        path = str(tmp_path / "neg.exc")
        save(out, path)
        assert load(path) == out
        assert diff(out, load(path)).empty

    def test_relative_forms_are_built_once(self):
        # a copy-filled column without the pattern: grouping in replace walks
        # each formula once, and simplify and stylecheck_unique take the
        # groups replace passed on
        s = parse_document("\n".join(f"B{r} = A{r}*2+1" for r in range(1, 1001)))
        pattern, replacement = Number(0.07), Number(0.08)
        seen = []

        def counting(f, anchor):
            seen.append(id(f))
            return relative_form(f, anchor)

        with mock.patch("sheetalgebra.formula.relative_form", counting), \
                mock.patch("sheetalgebra.algebra.relative_form", counting):
            out = replace(s, pattern, replacement)
            on_formulas = [i for i in seen if i not in (id(pattern), id(replacement))]
            assert len(on_formulas) == len(set(on_formulas)) <= len(s)
            assert set(on_formulas) <= {id(eq.rhs) for eq in s}
            seen.clear()
            assert stylecheck_unique(simplify(out)) == stylecheck_unique(s)
            assert seen == []
        assert all(out.get(eq.lhs) is eq for eq in s)

    def test_result_nested_to_the_limit_saves_and_loads(self, tmp_path):
        s = parse_document("B1 = " + "-" * (MAX_NESTING - 1) + "A1")
        out = replace(s, parse_formula("A1"), parse_formula("-C1"))
        path = str(tmp_path / "deep.exc")
        save(out, path)
        assert load(path) == out
        assert canonical_text(out.get(addr("B1")).rhs) == "-" * MAX_NESTING + "C1"


def test_long_chain_goes_through_every_rewrite(tmp_path):
    # a flat chain is 5000 levels deep as a tree, though its text nests
    # nothing: five times what the default recursion limit lets a walk reach
    chain = "+".join(["A1"] * 5000)
    s = parse_document(f"A1 = 1\nB1 = {chain}\nB2 = {chain.replace('A1', 'A2')}")
    other = replace(s, parse_formula("A1"), parse_formula("C1"))
    assert lookup(other, addr("B1"), RAW) == chain.replace("A1", "C1")
    assert [lhs for lhs, _, _ in diff(s, other).changed] == [addr("B1")]
    assert shift(s, 1, 1).get(addr("C2")).rhs == parse_formula(chain.replace("A1", "B2"))
    assert [v.cells for v in stylecheck_unique(s)] == [(addr("B1"), addr("B2"))]
    assert [g.cells for g in discover_groups(s)] == [(addr("B1"), addr("B2"))]
    assert simplify(s) == s
    assert lookup(s, addr("B1"), RAW) == chain
    assert evaluate(s)[addr("B1")] == evaluate_cell(s, addr("B1")) == 5000.0
    assert f"B1 = {chain}" in show(s).splitlines()
    assert diff(parse_listing(show(s, grouped=True)), s).empty
    path = str(tmp_path / "chain.exc")
    save(s, path)
    assert load(path) == s
    # the same chain over an array and over a name
    spec = parse_document(f"x[1] = 1\ny[1] = {chain.replace('A1', 'x[1]')}\n"
                          "layout x[1:1] as A1 down\nlayout y[1:1] as B1 down")
    cells = compile_set(spec)
    assert cells.get(addr("B1")) == s.get(addr("B1"))
    assert decompile_set(cells, LayoutSet(spec.layouts)) == spec
    assert quotient(replicate(spec, 1, 2), 1, 2) == spec
    named = parse_formula(chain.replace("A1", "costs"))
    assert substitute_names(named, {"costs": CellRange.cell(addr("A1"))}) == s.get(addr("B1")).rhs
    with pytest.raises(SubstitutionError):
        substitute_names(named, {"costs": CellRange.box(addr("A1"), addr("A2"))})


class TestSimplify:
    def test_unit_laws(self):
        # a law drops an operator only where what it keeps is a number or an error
        for text, simpler in [("(A1*B1)+0", "A1*B1"), ("0+-A1", "-A1"), ("(A1-B1)-0", "A1-B1"),
                              ("1*(A1/B1)", "A1/B1"), ("(A1+B1)/1", "A1+B1"),
                              ("(A1^B1)^1", "A1^B1"), ("2*1", "2")]:
            assert simplify_formula(parse_formula(text)) == parse_formula(simpler), text
        # a cell or a call may hold text, a truth value or nothing
        for text in ("A1+0", "1*A1", "A1/1", "A1^1", "A1*0", "0*(A1*B1)", "SUM(A1)+0",
                     "(A1=B1)*1"):
            f = parse_formula(text)
            assert simplify_formula(f) == f, text

    @pytest.mark.parametrize("doc", [
        "A1 = 1/0\nB1 = A1*0",
        'A1 = "x"\nB1 = A1+0',
        'A1 = "x"\nB1 = --A1',
        "A1 = TRUE\nB1 = 1*A1",
    ])
    def test_keeps_values(self, doc):
        s = parse_document(doc)
        assert typed_values(simplify(s)) == typed_values(s)

    def test_constant_folding(self):
        assert simplify_formula(parse_formula("2+3*4")) == Number(14.0)
        assert simplify_formula(parse_formula("(1+1)*(A1*B1+0)")) == \
            parse_formula("2*(A1*B1)")

    def test_division_by_zero_not_folded(self):
        f = parse_formula("1/0")
        assert simplify_formula(f) == f

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_folds_as_the_evaluator_computes(self, op):
        operands = (0.0, -0.0, 1e308, -8.0, 1 / 3, 400.0)
        for x, y in itertools.product(operands, repeat=2):
            f = Binary(op, Number(x), Number(y))
            v = evaluate(EquationSet([Equation(addr("A1"), f)]))[addr("A1")]
            if isinstance(v, bool):
                assert simplify_formula(f) == Bool(v)
            elif isinstance(v, float):
                assert simplify_formula(f) == Number(v)  # bit for bit
            else:
                assert simplify_formula(f) == f

    def test_double_negation(self):
        from sheetalgebra import Neg

        product = parse_formula("B2*C2")
        assert simplify_formula(Neg(Neg(product))) == product
        # --B2 is 0 where B2 is empty and #VALUE! where it holds text
        twice = Neg(Neg(AbsRef(addr("B2"))))
        assert simplify_formula(twice) == twice

    def test_preserves_evaluation(self):
        rng = random.Random(27)
        for _ in range(200):
            s = rand_cell_set(rng, evaluable=True)
            assert typed_values(simplify(s)) == typed_values(s)


class TestDiff:
    def test_equal_sets_empty_report(self, accounts):
        assert diff(accounts, accounts).empty

    def test_added_removed_changed(self, accounts):
        tampered = union(
            extract(accounts, CellRange.columns(1, 3)),
            make_set(("D2", "C2+B2"), ("D3", "C3-B3"), ("F1", "1")))
        report = diff(accounts, tampered)
        assert report.added == (addr("F1"),)
        assert report.removed == ()
        assert [c[0] for c in report.changed] == [addr("D2")]

    def test_relative_mode_ignores_copy_fill(self):
        a = make_set(("D2", "C2-B2"), ("D3", "C3-B3"))
        b = parse_document("D2 = RC[-1]-RC[-2]\nD3 = RC[-1]-RC[-2]")
        assert diff(a, b).empty

    def test_unknown_mode(self, accounts):
        with pytest.raises(DomainError):
            diff(accounts, accounts, mode="bogus")

    def test_only_formulas_whose_trees_differ_are_resolved(self, monkeypatch, accounts):
        resolved = spy(monkeypatch, algebra, "to_absolute")
        # equal trees, built apart, in A:C; D2 the same view in R1C1; D3 changed
        changed = union(parse_document(show(extract(accounts, CellRange.columns(1, 3)))),
                        parse_document("D2 = RC[-1]-RC[-2]\nD3 = C3+B3"))
        report = diff(accounts, changed)
        assert [c[0] for c in report.changed] == [addr("D3")]
        assert resolved == [addr("D2"), addr("D2"), addr("D3"), addr("D3")]

    def test_changed_formula_holding_here_raises(self):
        a = parse_document("A1 = x[HERE-1]+1")
        with pytest.raises(DomainError, match="HERE"):
            diff(a, parse_document("A1 = x[HERE-1]+2"))

    def test_unchanged_formula_holding_here_is_neither_reported_nor_resolved(self, monkeypatch):
        # resolving it would raise DomainError, as it did when every cell was resolved
        resolved = spy(monkeypatch, algebra, "to_absolute")
        report = diff(parse_document("A1 = x[HERE-1]+1\nB1 = 2"),
                      parse_document("A1 = x[HERE-1]+1\nB1 = 3"))
        assert report.changed == ((addr("B1"), Number(2.0), Number(3.0)),)
        assert resolved == [addr("B1"), addr("B1")]

    def test_unchanged_offset_off_the_grid_is_not_resolved(self):
        s = parse_document("A1 = RC[-1]")
        assert diff(s, s).empty
        with pytest.raises(OutOfGridError):
            diff(s, parse_document("A1 = RC[-1]+0"))

    def test_changed_follows_the_canonical_order_of_sets_built_in_reverse(self):
        def reversed_set(text):
            return EquationSet(reversed(parse_document(text).equations()))

        a = reversed_set("B2 = 1\nA1 = 2\nSheet2!A1 = 3\nC1 = 4\nx[2] = 5\nx[1] = 6\nD9 = 7")
        b = reversed_set("x[1] = 60\nD9 = 7\nSheet2!A1 = 30\nx[2] = 50\nC1 = 40\nA1 = 20\nB2 = 10")
        assert [c[0] for c in diff(a, b).changed] == [
            addr("A1"), addr("C1"), addr("B2"), addr("Sheet2!A1"),
            ArrayElem("x", (1,)), ArrayElem("x", (2,))]
        # C1 (row 1) comes before A2 (row 2) although A2 is listed first
        # and its column is lower: C1's offset off the grid raises, not A2's HERE
        a = reversed_set("A2 = x[HERE-1]+1\nC1 = RC[-5]\nB1 = 1")
        b = reversed_set("A2 = x[HERE-1]+2\nC1 = RC[-5]+0\nB1 = 2")
        with pytest.raises(OutOfGridError):
            diff(a, b)
        with pytest.raises(DomainError, match="HERE"):
            diff(a, reversed_set("A2 = x[HERE-1]+2\nC1 = RC[-5]\nB1 = 2"))

    def test_here_is_refused_before_an_offset_off_the_grid(self):
        f = Binary("+", ElemRef("x", (Here(-1),)), RelRef(-5, 0))
        with pytest.raises(DomainError, match="HERE"):
            to_absolute(f, addr("A1"))
        with pytest.raises(OutOfGridError):
            to_absolute(RelRef(-5, 0), addr("A1"))


def spy(monkeypatch, module, name):
    """Wrap module.name so that each call records its second argument, the
    cell a formula is taken at; the list of those cells is returned."""
    seen = []
    real = getattr(module, name)

    def wrapper(f, anchor, *rest):
        seen.append(anchor)
        return real(f, anchor, *rest)

    monkeypatch.setattr(module, name, wrapper)
    return seen


class TestGroupOnce:
    """A set groups its formulas by relative form once and keeps the groups."""

    def test_the_reports_on_one_set_take_each_relative_form_once(self, monkeypatch, accounts):
        s = union(accounts, parse_document("Data[1] = 5\nData[2] = 5"))
        formed = spy(monkeypatch, formula, "relative_form")
        stylecheck_unique(s)
        show(s, grouped=True)
        discover_groups(s)
        assert sorted(formed) == sorted(eq.lhs for eq in s if isinstance(eq.lhs, CellAddr))

    def test_the_groups_are_read_only(self, accounts):
        groups = formula_groups(accounts)
        assert all(type(eqs) is tuple for eqs in groups.values())
        with pytest.raises(TypeError):
            groups[next(iter(groups))] = ()
        assert formula_groups(accounts) == groups

    def test_a_set_made_from_a_grouped_one_groups_afresh(self, accounts):
        assert stylecheck_unique(accounts)[0].cells == (addr("D2"), addr("D3"))
        grown = union(accounts, make_set(("D4", "C4-B4")))
        assert stylecheck_unique(grown)[0].cells == (addr("D2"), addr("D3"), addr("D4"))
        moved = shift(accounts, 1, 2)
        assert stylecheck_unique(moved)[0].cells == (addr("E4"), addr("E5"))
        named = EquationSet(accounts, {"Profit": CellRange.columns(4, 4)}, accounts.layouts)
        assert formula_groups(named) == formula_groups(accounts)
        assert show(named, grouped=True) == show(parse_document(show(named)), grouped=True)

    def test_groups_survive_pickle_and_deepcopy(self, accounts):
        groups = dict(formula_groups(accounts))
        for twin in (pickle.loads(pickle.dumps(accounts)), copy.deepcopy(accounts)):
            assert twin == accounts
            assert dict(formula_groups(twin)) == groups
            assert show(twin, grouped=True) == show(accounts, grouped=True)


class TestStylecheck:
    def test_copy_filled_formula_flagged(self, accounts):
        violations = stylecheck_unique(accounts)
        assert len(violations) == 1
        assert set(violations[0].cells) == {addr("D2"), addr("D3")}

    def test_constants_exempt(self):
        s = make_set(("A1", "1"), ("A2", "1"), ("A3", "1"))
        assert stylecheck_unique(s) == []

    def test_clean_sheet(self):
        s = make_set(("A1", "1"), ("B1", "A1*2"), ("C1", "B1+A1"))
        assert stylecheck_unique(s) == []

    def test_copy_filled_range_formula_is_one_violation(self):
        s = make_set(*((f"D{r}", f"SUM(C{r - 5}:C{r})") for r in range(6, 79)))
        violations = stylecheck_unique(s)
        assert len(violations) == 1
        assert violations[0].canonical_formula == "SUM(R[-5]C[-1]:RC[-1])"
        assert violations[0].cells == tuple(addr(f"D{r}") for r in range(6, 79))
