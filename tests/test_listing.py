import random
import time
from unittest import mock

import pytest

from sheetalgebra import (
    CANONICAL,
    Binary,
    CellAddr,
    Equation,
    EquationSet,
    Number,
    RelRef,
    addr,
    diff,
    evaluate,
    parse_document,
    parse_formula,
    parse_listing,
    show,
    to_absolute,
)
from sheetalgebra import listing
from sheetalgebra.errors import FormulaSyntaxError
from sheetalgebra.formula import formula_groups
from sheetalgebra.model import MAX_EQUATIONS

from conftest import ACCOUNTS_S_TEXT, make_set, rand_cell_set


def counter_sheet():
    """A long counter column: A4 = 4, then A37, A70, ..., A829 each equal to
    the cell 33 rows above, plus one."""
    eqs = [Equation(addr("A4"), Number(4.0))]
    for row in range(37, 830, 33):
        eqs.append(Equation(CellAddr("Sheet1", 1, row),
                            Binary("+", RelRef(0, -33), Number(1.0))))
    return EquationSet(eqs)


def absolute_view(s):
    out = {}
    for eq in s:
        anchor = eq.lhs if isinstance(eq.lhs, CellAddr) else None
        rhs = to_absolute(eq.rhs, anchor) if anchor else eq.rhs
        out[eq.lhs] = rhs
    return out


class TestShow:
    def test_plain_lines(self, accounts):
        lines = show(accounts).splitlines()
        assert lines[0] == "A2 = 2000"
        assert "D2 = C2-B2" in lines

    def test_trailer_lines(self, accounts_s):
        text = show(accounts_s)
        assert "layout Year[2000:2001] as A2 down" in text
        assert text.splitlines()[0] == "Expenses[2000] = 1492"

    def test_round_trip_through_parse_document(self, accounts_s):
        assert parse_document(show(accounts_s)) == accounts_s

    def test_a_tree_shared_across_sheets_reads_as_copies(self):
        # one tree object on two sheets: on Other its reference carries a
        # prefix and is its own relative form, on Sheet1 it is neither
        cells = [addr("Other!C1"), addr("C1"), addr("C2"), addr("Other!C2")]
        tree = parse_formula("B1+RC[-1]", CANONICAL)
        shared = EquationSet([Equation(a, tree) for a in cells])
        copies = EquationSet([Equation(a, parse_formula("B1+RC[-1]", CANONICAL))
                              for a in cells])
        assert show(shared) == show(copies) == (
            "Other!C1 = Sheet1!B1+RC[-1]\nOther!C2 = Sheet1!B1+RC[-1]\n"
            "C1 = B1+RC[-1]\nC2 = B1+RC[-1]")
        assert show(shared, grouped=True) == show(copies, grouped=True)
        assert dict(formula_groups(shared)) == dict(formula_groups(copies))
        assert len(formula_groups(shared)) == 3

    def test_a_tree_along_a_row_is_printed_once(self):
        text = "\n".join(f"{c}{r} = {r}" if c == "A" else f"{c}{r} = RC[-1]+1"
                         for r in (1, 2, 3) for c in "ABCD")
        s = parse_document(text)
        with mock.patch("sheetalgebra.listing.print_formula",
                        side_effect=listing.print_formula) as printed:
            assert show(s) == text
        assert printed.call_count == 6  # per row: the constant, then the shared tree


class TestGrouped:
    def test_counter_region_line(self):
        text = show(counter_sheet(), grouped=True)
        assert "Sheet1[ {1} >< { 37..829 by 33 } ] = Sheet1[ HERE, HERE - 33 ]+1" \
            in text.splitlines()

    def test_singletons_stay_plain(self):
        text = show(counter_sheet(), grouped=True)
        assert "A4 = 4" in text.splitlines()

    def test_grouped_is_shorter(self):
        s = counter_sheet()
        assert len(show(s, grouped=True).splitlines()) < \
            len(show(s).splitlines())

    def test_step_one_run(self):
        s = make_set(("B2", "A2*2"), ("B3", "A3*2"), ("B4", "A4*2"))
        text = show(s, grouped=True)
        assert text.splitlines() == \
            ["Sheet1[ {2} >< { 2..4 } ] = Sheet1[ HERE - 1, HERE ]*2"]

    def test_copy_filled_range_is_one_region_line(self):
        s = make_set(*((f"D{r}", f"SUM(C{r - 5}:C{r})") for r in range(6, 79)),
                     *((f"C{r}", str(r)) for r in range(1, 79)))
        lines = show(s, grouped=True).splitlines()
        assert lines.count("Sheet1[ {4} >< { 6..78 } ] = SUM(R[-5]C[-1]:RC[-1])") == 1
        assert not [line for line in lines if line.startswith("D")]
        back = parse_listing("\n".join(lines))
        assert diff(back, s, "relative").empty
        assert evaluate(back) == evaluate(s)

    def test_rectangular_region(self):
        # each cell adds one to its left neighbour, so the whole 2x3 box is
        # a single relative formula
        pairs = [(f"{c}{r}", f"{p}{r}+1")
                 for c, p in (("C", "B"), ("D", "C")) for r in (2, 3, 4)]
        s = make_set(*pairs)
        text = show(s, grouped=True)
        assert len(text.splitlines()) == 1
        assert text.splitlines()[0].startswith("Sheet1[ { 3..4 } >< { 2..4 } ]")


class TestParseListing:
    def test_counter_round_trip(self):
        s = counter_sheet()
        assert parse_listing(show(s, grouped=True)) == s

    def test_region_line_expands(self):
        s = parse_listing("Sheet1[ { 2..3 } >< {5} ] = 7")
        assert s == make_set(("B5", "7"), ("C5", "7"))

    def test_a_region_line_past_the_equation_cap_is_refused_at_once(self):
        start = time.process_time()
        with pytest.raises(FormulaSyntaxError, match=r"at offset 0\)"):
            parse_listing("Sheet1[ {1..16384} >< {1..1048576} ] = 1")
        # the product of the axes' lengths counts, repeats too, at the
        # region line's offset
        rows = ", ".join(["1..1048576"] * 9)
        assert 2 * 9 * 1048576 > MAX_EQUATIONS
        with pytest.raises(FormulaSyntaxError, match=r"at most 1048576 .*at offset 7\)"):
            parse_listing(f"A1 = 2\nSheet1[ {{1, 2}} >< {{{rows}}} ] = 1")
        assert time.process_time() - start < 0.1

    def test_here_becomes_relative(self):
        s = parse_listing("Sheet1[ {2} >< { 2..3 } ] = Sheet1[ HERE - 1, HERE ]*2")
        assert s.get(addr("B2")).rhs == Binary("*", RelRef(-1, 0), Number(2.0))

    def test_plain_and_trailer_lines(self):
        s = parse_listing(ACCOUNTS_S_TEXT)
        assert len(s) == 8
        assert len(s.layouts) == 4

    def test_a1_copies_come_back_relative(self):
        # what the round trip keeps: each formula resolved at its cell, so
        # diff finds nothing; the copies' trees come back relative, so the
        # sets are not equal as written
        s = parse_document("C3 = 1\nC4 = 2\nC5 = 3\nE2 = 0\n"
                           "E3 = E2+C3\nE4 = E3+C4\nE5 = E4+C5")
        back = parse_listing(show(s, grouped=True))
        assert back.get(addr("E3")).rhs == Binary("+", RelRef(0, -1), RelRef(-2, 0))
        assert back != s
        assert diff(back, s).empty
        assert absolute_view(back) == absolute_view(s)

    def test_random_round_trip_absolute_view(self):
        # grouped listings re-expand to relative formulas; the sets must
        # agree cell by cell once offsets are resolved
        rng = random.Random(51)
        for _ in range(200):
            s = rand_cell_set(rng)
            back = parse_listing(show(s, grouped=True))
            assert absolute_view(back) == absolute_view(s)
