import random

import pytest

from sheetalgebra import (
    CellAddr,
    CellRange,
    ElemRef,
    EquationSet,
    Here,
    Rect,
    addr,
    col_to_letters,
    enumerate_range,
    letters_to_col,
    range_contains,
)
from sheetalgebra.errors import BoundednessError, ConflictError, DomainError

from conftest import eq


def brute_force_label(n):
    # enumerate A, B, ..., Z, AA, AB, ... until the n-th label
    import itertools
    import string

    labels = []
    for width in itertools.count(1):
        for combo in itertools.product(string.ascii_uppercase, repeat=width):
            labels.append("".join(combo))
            if len(labels) >= n:
                return labels[n - 1]


class TestColumnLetters:
    def test_first_letter(self):
        assert col_to_letters(1) == "A"

    def test_alphabet_length(self):
        assert col_to_letters(26) == "Z"

    def test_two_letters(self):
        # oracle: brute-force enumeration of the label sequence
        assert brute_force_label(27) == "AA"
        assert col_to_letters(27) == "AA"

    def test_matches_enumeration_oracle(self):
        for n in (2, 25, 28, 52, 53, 702, 703):
            assert col_to_letters(n) == brute_force_label(n)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            col_to_letters(0)
        with pytest.raises(DomainError):
            col_to_letters(-3)

    def test_round_trip_10000_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            n = rng.randint(1, 10_000_000)
            assert letters_to_col(col_to_letters(n)) == n


class TestCellAddr:
    def test_no_zero_coordinates(self):
        with pytest.raises(DomainError):
            CellAddr("Sheet1", 0, 1)
        with pytest.raises(DomainError):
            CellAddr("Sheet1", 1, 0)

    def test_addr_parsing(self):
        assert addr("D2") == CellAddr("Sheet1", 4, 2)
        assert addr("Sheet2!AA10") == CellAddr("Sheet2", 27, 10)


class TestEnumerateRange:
    def test_row_major(self):
        r = CellRange.box(addr("A1"), addr("B2"))
        assert enumerate_range(r) == [addr("A1"), addr("B1"), addr("A2"), addr("B2")]

    def test_single_column(self):
        r = CellRange.box(addr("B2"), addr("B3"))
        assert enumerate_range(r) == [addr("B2"), addr("B3")]

    def test_duplicate_removal(self):
        r = CellRange.cell(addr("A1")).union(CellRange.box(addr("A1"), addr("B1")))
        assert enumerate_range(r) == [addr("A1"), addr("B1")]

    def test_unbounded_raises(self):
        with pytest.raises(BoundednessError):
            enumerate_range(CellRange.columns(1, 3))

    def test_count_distinct_and_contained(self):
        rng = random.Random(7)
        for _ in range(50):
            c1, r1 = rng.randint(1, 10), rng.randint(1, 10)
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            box = CellRange.box(CellAddr("Sheet1", c1, r1),
                                CellAddr("Sheet1", c1 + m - 1, r1 + n - 1))
            cells = enumerate_range(box)
            assert len(cells) == m * n
            assert len(set(cells)) == m * n
            assert all(range_contains(box, a) for a in cells)


class TestRangeContains:
    def test_column_band_excludes(self):
        assert not range_contains(CellRange.columns(1, 3), addr("D2"))

    def test_extract_box_keeps_c2(self):
        assert range_contains(CellRange.box(addr("A1"), addr("D2")), addr("C2"))

    def test_non_contiguous(self):
        r = CellRange.columns(1, 1).union(CellRange.columns(3, 4))
        assert range_contains(r, addr("C5"))
        assert not range_contains(r, addr("B5"))

    def test_sheet_must_match(self):
        r = CellRange.box(addr("A1"), addr("D9"))
        assert not range_contains(r, addr("Other!B2"))


class TestEquationSet:
    def test_duplicate_identical_is_idempotent(self):
        s = EquationSet([eq("A1", "1"), eq("A1", "1")])
        assert len(s) == 1

    def test_duplicate_different_rejected(self):
        with pytest.raises(ConflictError):
            EquationSet([eq("A1", "1"), eq("A1", "2")])

    def test_canonical_order(self):
        s = EquationSet([eq("B1", "1"), eq("A2", "2"), eq("A1", "3")])
        assert [e.lhs for e in s] == [addr("A1"), addr("B1"), addr("A2")]

    def test_equations_is_a_fresh_list_in_canonical_order(self):
        s = EquationSet([eq("B1", "1"), eq("A1", "3")])
        first = s.equations()
        first.clear()
        assert [e.lhs for e in s.equations()] == [addr("A1"), addr("B1")]


class TestSubscripts:
    def test_subscript_the_reader_refuses_is_refused(self):
        # the reader takes at most 18 digits, so save never writes more
        ElemRef("x", (10**18 - 1, Here(-(10**18 - 1))))
        for subs in ((10**18,), (1, Here(10**18)), (-(10**18),)):
            with pytest.raises(DomainError):
                ElemRef("x", subs)


class TestRect:
    def test_empty_rectangle_rejected(self):
        with pytest.raises(DomainError):
            Rect("Sheet1", 3, 2, 1, 1)

    def test_unbounded_sides_match_everything(self):
        r = Rect("Sheet1", 2, 2, None, None)
        assert r.contains(addr("B999999"))
        assert not r.contains(addr("C1"))
