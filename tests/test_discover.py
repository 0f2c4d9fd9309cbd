import random
import time

import pytest

from sheetalgebra import (
    CellAddr,
    Number,
    Rect,
    addr,
    compile_set,
    decompile_set,
    discover_blocks,
    discover_groups,
    infer_labels,
    infer_subscripts,
    parse_document,
    parse_listing,
    propose_layout,
    show,
    union,
)
from sheetalgebra.errors import DomainError, OutOfGridError
from sheetalgebra.model import Equation, EquationSet

from conftest import make_set


class TestGroups:
    def test_copy_fill_grouped(self, accounts):
        groups = discover_groups(accounts)
        assert len(groups) == 1
        assert groups[0].canonical_relative == "RC[-1]-RC[-2]"
        assert groups[0].cells == (addr("D2"), addr("D3"))

    def test_constants_excluded(self):
        assert discover_groups(make_set(("A1", "1"), ("A2", "1"))) == []

    def test_groups_are_per_sheet_and_take_ranges(self):
        s = make_set(("B1", "A1*2"), ("B2", "A2*2"), ("Data!B1", "Data!A1*2"),
                     ("Data!B2", "Data!A2*2"), ("C3", "SUM(A1:A3)"), ("C4", "SUM(A2:A4)"))
        groups = discover_groups(s)
        assert [g.cells for g in groups] == [
            (addr("Data!B1"), addr("Data!B2")), (addr("B1"), addr("B2")),
            (addr("C3"), addr("C4"))]
        assert groups[2].canonical_relative == "SUM(R[-2]C[-2]:RC[-2])"

    def test_largest_first(self):
        s = make_set(("B1", "A1*2"), ("B2", "A2*2"), ("B3", "A3*2"),
                     ("C1", "B1+1"), ("C2", "B2+1"))
        groups = discover_groups(s)
        assert [len(g.cells) for g in groups] == [3, 2]


class TestBlocks:
    def test_accounts_with_labels(self, accounts, labels):
        blocks = discover_blocks(union(labels, accounts))
        # labels are text, so the data block is exactly A2:D3
        assert blocks == [Rect("Sheet1", 1, 4, 2, 3)]

    def test_two_separate_blocks(self):
        s = make_set(("A1", "1"), ("A2", "2"), ("D5", "3"), ("E5", "4"))
        assert discover_blocks(s) == [Rect("Sheet1", 1, 1, 1, 2),
                                      Rect("Sheet1", 4, 5, 5, 5)]

    def test_sum_range_extends_block(self):
        # B9 sums B2:B8 although rows 5..8 are blank, so the block grows to
        # include the summed region
        s = make_set(("B2", "1"), ("B3", "2"), ("B4", "3"),
                     ("B9", "SUM(B2:B8)"))
        assert discover_blocks(s) == [Rect("Sheet1", 2, 2, 2, 8),
                                      Rect("Sheet1", 2, 2, 9, 9)]

    @pytest.mark.parametrize("text, block", [
        ("B1 = x[HERE]", Rect("Sheet1", 2, 2, 1, 1)),
        ("A1 = RC[-1]", Rect("Sheet1", 1, 1, 1, 1)),
    ], ids=["here-marker", "off-the-grid"])
    def test_a_formula_without_sum_is_not_resolved(self, text, block):
        # so its fault does not raise here
        assert discover_blocks(parse_document(text)) == [block]

    @pytest.mark.parametrize("text, error", [
        ("B1 = SUM(A1:A2)+x[HERE]", DomainError),
        ("A1 = SUM(A2:A3)+RC[-1]", OutOfGridError),
        ("A1 = SUM(RC[-1]:RC)", OutOfGridError),
    ], ids=["here-marker", "off-the-grid", "range-off-the-grid"])
    def test_a_formula_calling_sum_is_resolved(self, text, error):
        with pytest.raises(error):
            discover_blocks(parse_document(text))

    def test_a_grown_box_is_merged_with_an_earlier_one(self):
        # the two SUM ranges make boxes that overlap only after a later
        # merge, so one sweep over the boxes is not enough
        s = parse_document("E6 = SUM(D2:F6)\nA5 = 45\nD1 = 95\n"
                           "F6 = SUM(A1:E3)\nE1 = 19")
        assert discover_blocks(s) == [Rect("Sheet1", 1, 6, 1, 6)]

    def test_checkerboard_of_isolated_cells(self):
        s = make_set(*[(CellAddr("Sheet1", c, r).a1(), "1")
                       for r in range(1, 121) for c in range(1, 121) if (c + r) % 2 == 0])
        start = time.process_time()
        blocks = discover_blocks(s)
        assert time.process_time() - start < 0.5
        assert len(blocks) == 7200
        assert all(b.col_lo == b.col_hi and b.row_lo == b.row_hi for b in blocks)

    def test_block_properties_random(self):
        rng = random.Random(33)
        for _ in range(100):
            eqs = {}
            for _ in range(rng.randint(1, 25)):
                a = CellAddr("Sheet1", rng.randint(1, 9), rng.randint(1, 9))
                eqs[a] = Equation(a, Number(float(rng.randint(0, 9))))
            s = EquationSet(eqs.values())
            blocks = discover_blocks(s)
            # every occupied cell lies in exactly one block
            for a in eqs:
                assert sum(b.contains(a) for b in blocks) == 1
            # blocks are pairwise disjoint
            for i, b1 in enumerate(blocks):
                for b2 in blocks[i + 1:]:
                    assert not (b1.col_lo <= b2.col_hi and b2.col_lo <= b1.col_hi
                                and b1.row_lo <= b2.row_hi and b2.row_lo <= b1.row_hi)


class TestLabels:
    def test_column_labels(self, accounts, labels):
        block = Rect("Sheet1", 1, 4, 2, 3)
        got = infer_labels(union(labels, accounts), block)
        assert got.columns[1] == ("Year", addr("A1"))
        assert got.columns[4] == ("Profit", addr("D1"))

    def test_sanitization(self):
        s = make_set(("B1", '"Net Profit (est.)"'), ("B2", "10"), ("B3", "20"))
        block = Rect("Sheet1", 2, 2, 2, 3)
        got = infer_labels(s, block)
        assert got.columns[2] == ("Net_Profit_est", addr("B1"))

    def test_fallback_names(self):
        s = make_set(("C5", "1"), ("C6", "2"))
        got = infer_labels(s, Rect("Sheet1", 3, 3, 5, 6))
        assert got.columns[3] == ("col_C", None)
        assert got.rows[5] == ("row_5", None)

    def test_label_two_rows_above(self):
        s = make_set(("B1", '"Total"'), ("B3", "1"), ("B4", "2"))
        got = infer_labels(s, Rect("Sheet1", 2, 2, 3, 4))
        assert got.columns[2] == ("Total", addr("B1"))

    def test_row_labels_left(self):
        s = make_set(("A2", '"Costs"'), ("B2", "1"), ("C2", "2"))
        got = infer_labels(s, Rect("Sheet1", 2, 3, 2, 2))
        assert got.rows[2] == ("Costs", addr("A2"))


class TestSubscripts:
    def test_left_column_progression(self):
        s = make_set(("A2", "2000"), ("A3", "2001"), ("A4", "2002"),
                     ("B2", "5"), ("B3", "6"), ("B4", "7"))
        cands = infer_subscripts(s, Rect("Sheet1", 2, 2, 2, 4))
        rows = [c for c in cands if c.axis == "rows"]
        assert rows[0].kind == "arithmetic"
        assert rows[0].values == (2000, 2001, 2002)
        assert rows[0].step == 1

    def test_month_run_above(self):
        s = make_set(("B1", '"Jan"'), ("C1", '"Feb"'), ("D1", '"Mar"'),
                     ("B2", "1"), ("C2", "2"), ("D2", "3"))
        cands = infer_subscripts(s, Rect("Sheet1", 2, 4, 2, 2))
        cols = [c for c in cands if c.axis == "cols"]
        assert cols[0].kind == "months"
        assert cols[0].values == ("jan", "feb", "mar")

    def test_own_first_column_used_when_no_margin(self, accounts):
        cands = infer_subscripts(accounts, Rect("Sheet1", 1, 4, 2, 3))
        rows = [c for c in cands if c.axis == "rows"]
        assert rows and rows[0].values == (2000, 2001)

    def test_non_progression_rejected(self):
        s = make_set(("A2", "5"), ("A3", "9"), ("A4", "2"),
                     ("B2", "1"), ("B3", "1"), ("B4", "1"))
        cands = infer_subscripts(s, Rect("Sheet1", 2, 2, 2, 4))
        assert all(c.cells[0] != addr("A2") for c in cands)


class TestProposeLayout:
    def test_accounts_proposal(self, accounts, labels):
        sheet = union(labels, accounts)
        proposal = propose_layout(sheet)
        texts = sorted(str(d) for d in proposal.directives)
        assert texts == [
            "layout Expenses[2000:2001] as B2 down",
            "layout Profit[2000:2001] as D2 down",
            "layout Sales[2000:2001] as C2 down",
            "layout Year[2000:2001] as A2 down",
        ]

    def test_proposal_decompiles_to_named_equations(self, accounts, labels,
                                                    accounts_s):
        sheet = union(labels, accounts)
        proposal = propose_layout(sheet)
        got = decompile_set(accounts, proposal.directives)
        assert set(got.equations()) == set(accounts_s.equations())

    def test_proposal_round_trips(self, accounts, labels):
        sheet = union(labels, accounts)
        proposal = propose_layout(sheet)
        named = decompile_set(accounts, proposal.directives)
        assert compile_set(named, proposal.directives) == accounts

    def test_horizontal_block(self):
        s = make_set(("A2", '"Costs"'),
                     ("B1", '"Jan"'), ("C1", '"Feb"'), ("D1", '"Mar"'),
                     ("B2", "10"), ("C2", "20"), ("D2", "30"))
        proposal = propose_layout(s)
        texts = sorted(str(d) for d in proposal.directives)
        assert texts == ["layout Costs[1:3] as B2 right"]

    def test_duplicate_labels_uniquified(self):
        s = make_set(("A1", '"x"'), ("B1", '"x"'),
                     ("A2", "1"), ("B2", "2"), ("A3", "3"), ("B3", "4"))
        proposal = propose_layout(s)
        names = sorted(d.array for d in proposal.directives)
        assert names == ["x", "x_2"]

    def test_text_only_sheet_is_empty_proposal(self, labels):
        assert len(propose_layout(labels).directives) == 0


@pytest.mark.parametrize("label, array", [
    ("RC", "RC_"), ("rc", "rc_"), ("True", "True_"), ("FALSE", "FALSE_"), ("R1C1", "R1C1_"),
    ("r2c3", "r2c3_"), ("name", "name_"), ("R", "R"), ("x", "x")])
def test_discovered_names_read_back(label, array):
    # RC[1] reads as a relative reference, True[1] and R1C1[1] do not read,
    # and name[1] = ... reads as a name statement
    sheet = make_set(("A1", f'"{label}"'), ("A2", "1"), ("A3", "A2+1"))
    d = decompile_set(sheet, propose_layout(sheet).directives)
    assert [str(x) for x in d.layouts] == [f"layout {array}[1:2] as A2 down"]
    assert parse_document(show(d)) == d
    assert parse_listing(show(d, grouped=True)) == d
