"""Acceptance gate: eleven end-to-end criteria, one test (and one printed
pass/fail line) each.  Run with `pytest tests/test_acceptance.py -v`.

Golden values marked [DERIVED] were computed by hand or by an independent
brute-force oracle before being frozen here.
"""

import random
import time

import pytest

from sheetalgebra import (
    CellAddr,
    CellError,
    CellRange,
    Equation,
    EquationSet,
    LayoutSet,
    Number,
    addr,
    col_to_letters,
    compile_set,
    decompile_set,
    diff,
    evaluate,
    extract,
    load,
    map_range,
    parse_document,
    parse_formula,
    parse_listing,
    print_formula,
    propose_layout,
    quotient,
    replicate,
    save,
    shift,
    show,
    simplify,
    stylecheck_unique,
    union,
)
from sheetalgebra.cli import main

from conftest import (
    ACCOUNTS_S_TEXT,
    ACCOUNTS_TEXT,
    LABELS_TEXT,
    TAX_TEXT,
    make_set,
    rand_cell_set,
    rand_array_set,
    rand_formula,
    rand_layout_spec,
    typed_values,
)


def report(n, label):
    print(f"PASS criterion {n}: {label}")


class TestAcceptance:
    def test_1_golden_operator_examples(self):
        start = time.perf_counter()
        accounts = parse_document(ACCOUNTS_TEXT)
        labels = parse_document(LABELS_TEXT)

        # label union: twelve equations, both label and data cells intact
        combined = union(labels, accounts)
        assert len(combined) == 12
        assert combined.get(addr("A1")).rhs == parse_formula('"Year"')
        assert combined.get(addr("D3")).rhs == parse_formula("C3-B3")

        # extract A1:D2 keeps exactly the row-2 equations
        assert extract(accounts, CellRange.box(addr("A1"), addr("D2"))) == \
            make_set(("A2", "2000"), ("B2", "1492"),
                     ("C2", "971"), ("D2", "C2-B2"))

        # mapping A1:A2 -> B2:B3 rotates a column onto new cells
        expenses3 = make_set(("A1", "700"), ("A2", "800"))
        assert map_range(expenses3,
                         CellRange.box(addr("A1"), addr("A2")),
                         CellRange.box(addr("B2"), addr("B3"))) == \
            make_set(("B2", "700"), ("B3", "800"))

        # replicate and quotient are mutual inverses on the worked example
        y = make_set(("y[1]", "1"))
        y2 = make_set(("y[1,2000]", "1"), ("y[1,2001]", "1"))
        assert replicate(y, 2000, 2001) == y2
        assert quotient(y2, 2000, 2001) == y

        # shift: lhs and every absolute reference move by the same offset.
        # The published example prints one output cell inconsistently with
        # that rule; this implementation applies the uniform translation, so
        # {D3=C3-B3, D2=C2-B2} shifted by (2,10) is {F13=E13-D13, F12=E12-D12}.
        shifted = shift(make_set(("D3", "C3-B3"), ("D2", "C2-B2")), 2, 10)
        assert shifted == make_set(("F13", "E13-D13"), ("F12", "E12-D12"))

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(1, f"golden operator examples ({elapsed:.3f}s)")

    def test_2_compile_decompile(self):
        spec = parse_document(ACCOUNTS_S_TEXT)
        cells = parse_document(ACCOUNTS_TEXT)
        layouts = LayoutSet(spec.layouts)

        assert compile_set(spec) == cells
        assert decompile_set(cells, layouts) == spec
        assert decompile_set(compile_set(spec), layouts) == spec
        assert compile_set(decompile_set(cells, layouts)) == cells

        rng = random.Random(101)
        for _ in range(500):
            s, ls = rand_layout_spec(rng)
            back = decompile_set(compile_set(s, ls), ls)
            assert set(back.equations()) == set(s.equations())
        report(2, "compile/decompile golden + 500 random roundtrips")

    def test_3_evaluation(self):
        s = union(parse_document(ACCOUNTS_TEXT), parse_document(TAX_TEXT))
        grid = evaluate(s)
        # [DERIVED] 971-1492, 1803-1560, and x0.33 by hand
        assert grid[addr("D2")] == pytest.approx(-521.0, abs=1e-9)
        assert grid[addr("D3")] == pytest.approx(243.0, abs=1e-9)
        assert grid[addr("E2")] == pytest.approx(-171.93, abs=1e-9)
        assert grid[addr("E3")] == pytest.approx(80.19, abs=1e-9)

        cyc = make_set(("A1", "B1+1"), ("B1", "A1"), ("C1", "5"),
                       ("D1", "C1*2"), ("E1", "A1+C1"))
        got = evaluate(cyc)
        assert got[addr("A1")] == CellError("CYCLE")
        assert got[addr("B1")] == CellError("CYCLE")
        assert got[addr("C1")] == 5.0
        assert got[addr("D1")] == 10.0
        assert got[addr("E1")] == CellError("CYCLE")  # propagated, not a member
        members = {a for a, v in got.items() if v == CellError("CYCLE")}
        assert members == {addr("A1"), addr("B1"), addr("E1")}
        report(3, "evaluation golden values within 1e-9 + cycle fixture")

    def test_4_algebraic_laws(self):
        rng = random.Random(102)
        empty = EquationSet([])

        def keyed_set():
            # value is a function of the cell, so any two sets agree on
            # their overlap and every union is defined
            cells = {CellAddr("Sheet1", rng.randint(1, 8), rng.randint(1, 8))
                     for _ in range(rng.randint(0, 10))}
            return EquationSet(
                [Equation(a, Number(float(a.col * 10 + a.row))) for a in cells])

        for _ in range(500):
            a, b, c = keyed_set(), keyed_set(), keyed_set()
            assert union(a, b) == union(b, a)
            assert union(union(a, b), c) == union(a, union(b, c))
            assert union(a, a) == a
            assert union(a, empty) == a == union(empty, a)

        for _ in range(500):
            s = rand_cell_set(rng)
            dx1, dy1 = rng.randint(0, 5), rng.randint(0, 5)
            dx2, dy2 = rng.randint(0, 5), rng.randint(0, 5)
            assert shift(shift(s, dx1, dy1), dx2, dy2) == \
                shift(s, dx1 + dx2, dy1 + dy2)
            assert shift(s, 0, 0) == s

        for _ in range(500):
            s = rand_cell_set(rng)
            split = rng.randint(1, 7)
            left = extract(s, CellRange.columns(1, split))
            right = extract(s, CellRange.columns(split + 1, 8))
            assert union(left, right) == s

        src = CellRange.box(addr("A1"), addr("H8"))
        dst = CellRange.box(addr("K11"), addr("R18"))
        for _ in range(500):
            s = rand_cell_set(rng)
            assert map_range(map_range(s, src, dst), dst, src) == s

        for _ in range(500):
            s = rand_array_set(rng)
            assert quotient(replicate(s, 1, 3), 1, 3) == s

        for _ in range(500):
            s = rand_cell_set(rng, evaluable=True)
            assert typed_values(simplify(s)) == typed_values(s)

        for _ in range(500):
            s = rand_cell_set(rng, evaluable=True)
            dx, dy = rng.randint(1, 4), rng.randint(1, 4)
            moved = evaluate(shift(s, dx, dy))
            for a, v in evaluate(s).items():
                assert moved[CellAddr(a.sheet, a.col + dx, a.row + dy)] == v
        report(4, "seven algebraic-law suites, 500 random cases each")

    def test_5_grouped_listing_scale(self):
        start = time.perf_counter()
        # 26 generations, 33 rows apart: a counter column plus 30 state
        # columns per generation (~800 formula cells)
        gen_rows = [4] + list(range(37, 830, 33))
        assert len(gen_rows) == 26
        eqs = [Equation(addr("A4"), Number(4.0))]
        counter = parse_formula("R[-33]C+1", "r1c1")
        rule = parse_formula("MOD(R[-33]C[-1]+R[-33]C,2)", "r1c1")
        for row in gen_rows[1:]:
            eqs.append(Equation(CellAddr("Sheet1", 1, row), counter))
        for col in range(2, 32):
            eqs.append(Equation(CellAddr("Sheet1", col, 4), Number(1.0)))
        for row in gen_rows[1:]:
            for col in range(2, 32):
                eqs.append(Equation(CellAddr("Sheet1", col, row), rule))
        sheet = EquationSet(eqs)
        n_formulas = sum(1 for eq in sheet
                         if not isinstance(eq.rhs, Number))
        assert 700 <= n_formulas <= 900

        listing = show(sheet, grouped=True)
        lines = listing.splitlines()
        assert len(lines) <= 20
        assert ("Sheet1[ {1} >< { 37..829 by 33 } ] = "
                "Sheet1[ HERE, HERE - 33 ]+1") in lines

        # re-expansion identity
        assert parse_listing(listing) == sheet

        # editing the state rule re-expands to a sheet differing in exactly
        # the grouped state cells
        old_body = "MOD(Sheet1[ HERE - 1, HERE - 33 ]+Sheet1[ HERE, HERE - 33 ],2)"
        assert any(old_body in line for line in lines)
        edited = parse_listing(listing.replace(old_body, old_body[:-2] + "3)"))
        changed = {lhs for lhs, _, _ in diff(sheet, edited).changed}
        state_cells = {CellAddr("Sheet1", col, row)
                       for row in gen_rows[1:] for col in range(2, 32)}
        assert changed == state_cells
        assert not diff(sheet, edited).added and not diff(sheet, edited).removed

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report(5, f"grouped listing of ~800-formula sheet, "
                  f"{len(lines)} lines ({elapsed:.3f}s)")

    def test_6_diff_and_stylecheck_workflows(self, tmp_path, capsys):
        accounts = parse_document(ACCOUNTS_TEXT)
        a = str(tmp_path / "a.exc")
        b = str(tmp_path / "b.exc")
        save(accounts, a)
        tampered = parse_document(ACCOUNTS_TEXT.replace("C3-B3", "C3+B3"))
        save(tampered, b)

        assert main(["diff", a, b]) == 1  # differences -> nonzero exit
        out = capsys.readouterr().out
        assert "changed: D3" in out
        assert "D2" not in out.replace("C2-B2", "")  # only D3 reported
        report_obj = diff(accounts, tampered)
        assert [lhs for lhs, _, _ in report_obj.changed] == [addr("D3")]
        assert main(["diff", a, a]) == 0

        violations = stylecheck_unique(accounts)
        assert len(violations) == 1
        assert set(violations[0].cells) == {addr("D2"), addr("D3")}
        assert stylecheck_unique(
            make_set(("A1", "1"), ("B1", "A1*2"), ("C1", "B1+A1"))) == []
        report(6, "diff tamper workflow + stylecheck violation groups")

    def test_7_structure_discovery(self):
        sheet = union(parse_document(LABELS_TEXT), parse_document(ACCOUNTS_TEXT))
        proposal = propose_layout(sheet)
        assert sorted(str(d) for d in proposal.directives) == [
            "layout Expenses[2000:2001] as B2 down",
            "layout Profit[2000:2001] as D2 down",
            "layout Sales[2000:2001] as C2 down",
            "layout Year[2000:2001] as A2 down",
        ]
        named = decompile_set(parse_document(ACCOUNTS_TEXT), proposal.directives)
        spec = parse_document(ACCOUNTS_S_TEXT)
        assert set(named.equations()) == set(spec.equations())
        report(7, "layout proposal golden + decompiled equations")

    def test_8_round_trips_and_scale(self, tmp_path):
        rng = random.Random(103)
        path = str(tmp_path / "t.exc")
        for _ in range(1000):
            s = rand_cell_set(rng)
            save(s, path)
            assert load(path) == s

        for _ in range(1000):
            f = rand_formula(rng, allow_rel=False)
            assert parse_formula(print_formula(f, "a1"), "a1") == f
            g = rand_formula(rng, allow_rel=True)
            assert parse_formula(print_formula(g, "r1c1"), "r1c1") == g

        lines = []
        for i in range(100_000):
            col = (i % 50) + 1
            row = (i // 50) + 1
            from sheetalgebra import col_to_letters

            cell = f"{col_to_letters(col)}{row}"
            if col == 1 or row == 1:
                lines.append(f"{cell} = {i % 97}")
            else:
                lines.append(
                    f"{cell} = {col_to_letters(col - 1)}{row}+"
                    f"{col_to_letters(col)}{row - 1}")
        text = "\n".join(lines)
        start = time.perf_counter()
        big = parse_document(text)
        shown = show(big)
        elapsed = time.perf_counter() - start
        assert len(big) == 100_000
        assert len(shown.splitlines()) == 100_000
        assert elapsed < 10.0
        report(8, f"1000 file + 2000 formula roundtrips; "
                  f"100k-equation parse+show in {elapsed:.2f}s")

    def test_9_running_sum_scale(self):
        # B{r} = SUM(A1:A{r}) over 8000 rows: an evaluator that reads every
        # range's cells again for each row needs about 40 s
        rows = 8000
        text = "\n".join(f"A{r} = {r}\nB{r} = SUM(A1:A{r})" for r in range(1, rows + 1))
        s = parse_document(text)
        start = time.perf_counter()
        grid = evaluate(s)
        elapsed = time.perf_counter() - start
        assert grid[addr(f"B{rows}")] == rows * (rows + 1) / 2
        assert all(grid[addr(f"B{r}")] == r * (r + 1) / 2 for r in range(1, rows + 1))
        assert elapsed < 5.0
        report(9, f"{rows}-row running SUM evaluated in {elapsed:.2f}s")

    def test_10_report_scale(self):
        # diff, stylecheck and a grouped listing of a 50k-equation copy-filled
        # grid against a second parse of its text: resolving every formula on
        # both sides and grouping the set once per report needs about 2.4 s
        lines = []
        for row in range(1, 1001):
            for col in range(1, 51):
                rhs = f"{(row * 50 + col) % 97}" if col == 1 or row == 1 else "RC[-1]+R[-1]C"
                lines.append(f"{col_to_letters(col)}{row} = {rhs}")
        text = "\n".join(lines)
        a, b = parse_document(text), parse_document(text)
        start = time.perf_counter()
        report_ = diff(a, b)
        violations = stylecheck_unique(b)
        listing = show(b, grouped=True)
        elapsed = time.perf_counter() - start
        assert len(b) == 50_000 and report_.empty
        assert len(violations) == 1 and len(violations[0].cells) == 49 * 999
        assert [line for line in listing.splitlines() if "HERE" in line] == \
            ["Sheet1[ { 2..50 } >< { 2..1000 } ] = Sheet1[ HERE - 1, HERE ]+Sheet1[ HERE, HERE - 1 ]"]
        assert elapsed < 1.5
        report(10, f"diff + stylecheck + grouped listing of 50k equations in {elapsed:.2f}s")

    def test_11_wide_discovery_scale(self):
        # 2,000 copy-filled columns of 10 rows, labels above and years on the
        # left: 2,001 proposed directives.  Comparing every pair of footprints
        # and scanning them all for each cell needs about 7 s
        cols, rows = 2000, 10
        labels = [f'{col_to_letters(c)}1 = "v{c}"' for c in range(2, cols + 2)]
        data = []
        for r in range(2, rows + 2):
            data.append(f"A{r} = {1998 + r}")
            data += [f"{col_to_letters(c)}{r} = {col_to_letters(c - 1)}{r}+1"
                     for c in range(2, cols + 2)]
        sheet = parse_document("\n".join(labels + data))
        cells = parse_document("\n".join(data))
        start = time.perf_counter()
        proposal = propose_layout(sheet)
        compiled = compile_set(decompile_set(cells, proposal.directives), proposal.directives)
        elapsed = time.perf_counter() - start
        assert len(proposal.directives) == cols + 1
        assert compiled == cells
        assert elapsed < 1.5
        report(11, f"{cols}-column sheet proposed, decompiled and compiled in {elapsed:.2f}s")
