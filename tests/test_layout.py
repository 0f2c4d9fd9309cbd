import random
from unittest import mock

import pytest

from sheetalgebra import (
    ArrayElem,
    CellAddr,
    EquationSet,
    LayoutDirective,
    LayoutSet,
    Number,
    addr,
    cell_to_elem,
    compile_set,
    decompile_set,
    elem_to_cell,
    parse_document,
    parse_formula,
)
from sheetalgebra.errors import DomainError, LayoutError
from sheetalgebra.formula import formula_groups, relative_form

from conftest import make_set, rand_layout_spec


def down(name, lo, hi, anchor):
    return LayoutDirective(name, ((lo, hi),), addr(anchor), "down")


def right(name, lo, hi, anchor):
    return LayoutDirective(name, ((lo, hi),), addr(anchor), "right")


class TestElemToCell:
    def test_down_from_anchor(self):
        d = down("Year", 2000, 2001, "A2")
        assert elem_to_cell(d, (2000,)) == addr("A2")
        assert elem_to_cell(d, (2001,)) == addr("A3")

    def test_right_from_anchor(self):
        d = right("q", 1, 4, "B2")
        assert elem_to_cell(d, (3,)) == addr("D2")

    def test_two_dimensional(self):
        # first subscript advances down, second advances right
        d = LayoutDirective("m", ((1, 2), (1, 3)), addr("B2"), None)
        assert elem_to_cell(d, (1, 1)) == addr("B2")
        assert elem_to_cell(d, (2, 3)) == addr("D3")

    def test_out_of_range_subscript(self):
        d = down("Year", 2000, 2001, "A2")
        with pytest.raises(LayoutError):
            elem_to_cell(d, (1999,))
        with pytest.raises(LayoutError):
            elem_to_cell(d, (2000, 1))

    def test_cell_to_elem_inverse(self):
        rng = random.Random(31)
        for _ in range(200):
            lo = rng.randint(1, 5)
            hi = lo + rng.randint(0, 6)
            d = LayoutDirective("x", ((lo, hi),),
                                CellAddr("Sheet1", rng.randint(1, 9),
                                         rng.randint(1, 9)),
                                rng.choice(["down", "right"]))
            k = rng.randint(lo, hi)
            assert cell_to_elem(d, elem_to_cell(d, (k,))) == ArrayElem("x", (k,))

    def test_cell_outside_footprint(self):
        assert cell_to_elem(down("Year", 2000, 2001, "A2"), addr("B2")) is None


class TestLayoutSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            LayoutSet([down("a", 1, 2, "A1"), down("a", 1, 2, "C1")])

    def test_overlapping_footprints_rejected(self):
        with pytest.raises(LayoutError):
            LayoutSet([down("a", 1, 3, "A1"), right("b", 1, 3, "A2")])

    def test_str_form(self):
        assert str(down("Year", 2000, 2001, "A2")) == \
            "layout Year[2000:2001] as A2 down"

    def test_empty_index_range_rejected(self):
        with pytest.raises(DomainError):
            down("a", 3, 2, "A1")

    def test_index_bound_past_the_readers_digits_rejected(self):
        # elem_at builds its elements unchecked, so the bounds are checked here
        down("a", 1, 10**18 - 1, "A1")
        for lo, hi in ((1, 10**18), (-(10**18), 1)):
            with pytest.raises(DomainError):
                down("a", lo, hi, "A1")
        with pytest.raises(DomainError):
            LayoutDirective("a", ((1, 2), (1, 10**18)), addr("A1"), None)


class TestCompile:
    def test_accounts_golden(self, accounts_s, accounts):
        assert compile_set(accounts_s) == accounts

    def test_here_resolves_against_lhs(self):
        spec = parse_document("""
        v[1] = 0
        v[2] = v[HERE-1]+1
        v[3] = v[HERE-1]+1
        layout v[1:3] as B1 down
        """)
        cells = compile_set(spec)
        assert cells.get(addr("B2")).rhs == parse_formula("B1+1")
        assert cells.get(addr("B3")).rhs == parse_formula("B2+1")

    def test_missing_directive(self):
        spec = make_set(("a[1]", "1"))
        with pytest.raises(LayoutError):
            compile_set(spec, LayoutSet([]))

    def test_collision(self):
        spec = make_set(("a[1]", "1"), ("b[1]", "2"))
        layouts = LayoutSet([down("a", 1, 1, "A1")])
        # both directives target A1 -> the footprints overlap
        with pytest.raises(LayoutError):
            LayoutSet([down("a", 1, 1, "A1"), down("b", 1, 1, "A1")])
        # a single directive reused via HERE cannot collide, but two arrays
        # with disjoint footprints never land on the same cell; collisions
        # only arise through duplicate subscripts, which EquationSet forbids.
        with pytest.raises(LayoutError):
            compile_set(spec, layouts)  # b has no directive

    def test_rejects_cell_lhs(self, accounts):
        with pytest.raises(LayoutError):
            compile_set(accounts, LayoutSet([]))

    def test_copies_are_grouped_without_relative_forms(self):
        # v[2..1000] share one tree: grouping the compiled column makes the
        # relative form of v[1]'s cell and of one copy, not of each cell
        rows = [f"v[{r}] = v[HERE-1]+1" for r in range(2, 1001)]
        spec = parse_document("\n".join(["v[1] = 0", *rows, "layout v[1:1000] as B1 down"]))
        cells = compile_set(spec)
        seen = []

        def counting(f, anchor):
            seen.append(anchor)
            return relative_form(f, anchor)

        with mock.patch("sheetalgebra.formula.relative_form", counting):
            groups = formula_groups(cells)
        assert len(seen) <= 2
        assert [len(eqs) for eqs in groups.values()] == [1, 999]
        assert list(groups.items()) == list(formula_groups(EquationSet(list(cells))).items())


class TestDecompile:
    def test_accounts_golden(self, accounts_s, accounts):
        layouts = LayoutSet(accounts_s.layouts)
        got = decompile_set(accounts, layouts)
        assert got == accounts_s

    def test_uncovered_cells_pass_through(self):
        cells = make_set(("A1", "5"), ("D9", "A1*2"))
        layouts = LayoutSet([down("x", 1, 1, "A1")])
        got = decompile_set(cells, layouts)
        assert got.get(ArrayElem("x", (1,))).rhs == Number(5.0)
        assert got.get(addr("D9")).rhs == parse_formula("x[1]*2", "canonical")

    def test_formula_with_here_passes_through(self):
        cells = parse_document("A1 = x[HERE-1]+B1\nA2 = B1*2\nB1 = 5")
        got = decompile_set(cells, LayoutSet([down("y", 1, 1, "B1")]))
        assert got.get(addr("A1")).rhs is cells.get(addr("A1")).rhs
        assert got.get(addr("A2")).rhs == parse_formula("y[1]*2", "canonical")
        assert got.get(ArrayElem("y", (1,))).rhs == Number(5.0)
        assert got.lhs_set() == {addr("A1"), addr("A2"), ArrayElem("y", (1,))}

    def test_round_trip_random(self):
        rng = random.Random(32)
        for _ in range(300):
            spec, layouts = rand_layout_spec(rng)
            cells = compile_set(spec, layouts)
            back = decompile_set(cells, layouts)
            assert set(back.equations()) == set(spec.equations())

    def test_round_trip_other_direction(self, accounts, accounts_s):
        layouts = LayoutSet(accounts_s.layouts)
        assert compile_set(decompile_set(accounts, layouts), layouts) == accounts
