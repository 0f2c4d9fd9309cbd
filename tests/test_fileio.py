import random

import pytest

from sheetalgebra import (
    AbsRef,
    CellError,
    CellRange,
    Equation,
    EquationSet,
    LayoutDirective,
    addr,
    evaluate,
    export_csv,
    load,
    parse_document,
    parse_formula,
    save,
    show,
)
from sheetalgebra.errors import DomainError, LoadError
from sheetalgebra.fileio import format_value

from conftest import make_set, rand_cell_set


class TestParseDocument:
    def test_comment_and_separators(self):
        s = parse_document("# header\nA1 = 1, B1 = 2; C1 = A1+B1.")
        assert len(s) == 3

    def test_name_statement(self):
        s = parse_document("A1 = SUM(costs)\nname B2:B9 as costs")
        assert s.names == {"costs": CellRange.box(addr("B2"), addr("B9"))}

    def test_column_name_range(self):
        s = parse_document("name B as all_costs")
        assert s.names["all_costs"] == CellRange.columns(2, 2)

    def test_layout_orientation_words(self):
        s = parse_document("layout a[1:2] as A1 downwards\n"
                           "layout b[1:2] as B1 rightwards")
        assert s.layouts[0].orientation == "down"
        assert s.layouts[1].orientation == "right"

    def test_default_orientation_is_down(self):
        s = parse_document("layout a[1:2] as A1")
        assert s.layouts[0].orientation == "down"

    @pytest.mark.parametrize("s", [
        parse_document("layout X[1:2,1:3] as A1 right"),
        EquationSet(layouts=[LayoutDirective("X", ((1, 2), (1, 3)), addr("A1"))]),
    ], ids=["read-right", "built-down"])
    def test_two_dimensional_layout_round_trips(self, s, tmp_path):
        # a 2-D directive prints no orientation, so it must have none
        assert str(s.layouts[0]) == "layout X[1:2,1:3] as A1"
        assert parse_document(show(s)) == s
        path = str(tmp_path / "x.exc")
        save(s, path)
        assert load(path) == s

    def test_sheet_qualified_cells(self):
        s = parse_document("Data!B2 = Data!A2*2")
        assert addr("Data!B2") in s.lhs_set()


class TestLoadSave:
    def test_round_trip(self, tmp_path, accounts_s):
        path = str(tmp_path / "accounts.exc")
        save(accounts_s, path)
        assert load(path) == accounts_s

    def test_round_trip_random(self, tmp_path):
        rng = random.Random(61)
        path = str(tmp_path / "t.exc")
        for _ in range(100):
            s = rand_cell_set(rng)
            save(s, path)
            assert load(path) == s

    def test_saved_file_starts_with_comment(self, tmp_path, accounts):
        path = str(tmp_path / "a.exc")
        save(accounts, path)
        first = open(path, encoding="utf-8").readline()
        assert first.startswith("#")

    def test_binary_formats_rejected(self, tmp_path):
        for ext in (".xls", ".xlsx"):
            with pytest.raises(LoadError) as exc:
                load(str(tmp_path / f"book{ext}"))
            assert "unsupported" in str(exc.value)

    def test_wrong_extension_rejected(self, tmp_path):
        with pytest.raises(LoadError):
            load(str(tmp_path / "book.txt"))

    def test_save_refuses_what_load_refuses_and_writes_nothing(self, tmp_path):
        s = make_set(("A1", "1"))
        for name, message in (("x.txt", "expected a .exc file"),
                              ("y.xlsx", "binary spreadsheet formats are unsupported"),
                              ("z.XLS", "binary spreadsheet formats are unsupported")):
            path = str(tmp_path / name)
            with pytest.raises(LoadError) as saved:
                save(s, path)
            with pytest.raises(LoadError) as loaded:
                load(path)
            assert message in str(saved.value)
            assert str(saved.value) == str(loaded.value)
        assert list(tmp_path.iterdir()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load(str(tmp_path / "absent.exc"))

    def test_a_file_not_in_utf8_is_a_load_error(self, tmp_path):
        path = tmp_path / "latin.exc"
        path.write_bytes("A1 = \"café\"\n".encode("latin-1"))
        with pytest.raises(LoadError, match="latin.exc: 'utf-8' codec can't decode"):
            load(str(path))

    def test_a_file_that_cannot_be_written_is_a_load_error(self, tmp_path):
        (tmp_path / "d.exc").mkdir()
        with pytest.raises(LoadError, match="d.exc: Is a directory"):
            save(make_set(("A1", "1")), str(tmp_path / "d.exc"))
        with pytest.raises(LoadError, match="d.exc: Is a directory"):
            export_csv(evaluate(make_set(("A1", "1"))), str(tmp_path / "d.exc"))
        with pytest.raises(LoadError, match="d.exc: Is a directory"):
            load(str(tmp_path / "d.exc"))

    def test_syntax_error_mentions_path(self, tmp_path):
        path = tmp_path / "bad.exc"
        path.write_text("A1 = = 1")
        with pytest.raises(LoadError) as exc:
            load(str(path))
        assert "bad.exc" in str(exc.value)


class TestSheetPrefix:
    def test_reference_to_another_sheet_keeps_its_prefix(self, tmp_path):
        s = EquationSet([
            Equation(addr("Data!A1"), AbsRef(addr("B1"))),
            Equation(addr("Data!A2"), parse_formula("SUM(B1:B2)+Data!B1")),
            Equation(addr("B1"), parse_formula("Data!A1")),
        ])
        assert show(s).splitlines() == [
            "Data!A1 = Sheet1!B1", "Data!A2 = SUM(Sheet1!B1:B2)+B1", "B1 = Data!A1"]
        assert parse_document(show(s)) == s
        path = str(tmp_path / "sheets.exc")
        save(s, path)
        assert load(path) == s


class TestFormatValue:
    def test_formats(self):
        assert format_value(None) == ""
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(True) == "TRUE"
        assert format_value(False) == "FALSE"
        assert format_value(CellError("DIV0")) == "#DIV0!"
        assert format_value("hi") == "hi"


class TestExportCsv:
    def test_grid_layout(self, tmp_path, accounts):
        path = tmp_path / "out.csv"
        export_csv(evaluate(accounts), str(path))
        rows = path.read_bytes().decode().split("\r\n")
        assert rows[0] == "2000,1492,971,-521"
        assert rows[1] == "2001,1560,1803,243"

    def test_comma_in_text_quoted(self, tmp_path):
        s = make_set(("A1", '"a,b"'), ("B1", "1"))
        path = tmp_path / "q.csv"
        export_csv(evaluate(s), str(path))
        assert path.read_bytes().decode().split("\r\n")[0] == '"a,b",1'

    def test_holes_are_empty_fields(self, tmp_path):
        s = make_set(("A1", "1"), ("C2", "2"))
        path = tmp_path / "h.csv"
        export_csv(evaluate(s), str(path))
        rows = path.read_bytes().decode().split("\r\n")
        assert rows[0] == "1,,"
        assert rows[1] == ",,2"

    def test_sparse_box_bytes(self, tmp_path):
        # the box is C3:E6: gaps are empty fields, and each kind of value
        # prints as format_value gives it, -0.0 as 0
        grid = {addr("C3"): 1.5, addr("E3"): True, addr("D5"): CellError("DIV0"),
                addr("C6"): 'say "a,b"', addr("D6"): -0.0, addr("E6"): "x"}
        path = tmp_path / "s.csv"
        export_csv(grid, str(path))
        assert path.read_bytes() == b'1.5,,TRUE\r\n,,\r\n,#DIV0!,\r\n"say ""a,b""",0,x\r\n'

    def test_empty_grid_is_an_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        export_csv({}, str(path))
        assert path.read_bytes() == b""

    def test_multi_sheet_rejected(self, tmp_path):
        s = make_set(("A1", "1"))
        grid = evaluate(s)
        grid[addr("Other!A1")] = 2.0
        with pytest.raises(DomainError):
            export_csv(grid, str(tmp_path / "m.csv"))
