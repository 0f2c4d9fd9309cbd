import os
import subprocess
import sys

import pytest

import sheetalgebra
from sheetalgebra import parse_document, save
from sheetalgebra.cli import main

from conftest import ACCOUNTS_S_TEXT, ACCOUNTS_TEXT, LABELS_TEXT


@pytest.fixture
def accounts_file(tmp_path):
    path = str(tmp_path / "accounts.exc")
    save(parse_document(ACCOUNTS_TEXT), path)
    return path


class TestShow:
    def test_show(self, accounts_file, capsys):
        assert main(["show", accounts_file]) == 0
        out = capsys.readouterr().out
        assert "D2 = C2-B2" in out

    def test_show_grouped(self, accounts_file, capsys):
        assert main(["show", "--grouped", accounts_file]) == 0
        out = capsys.readouterr().out
        assert "><" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["show", str(tmp_path / "none.exc")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_values(self, accounts_file, capsys):
        assert main(["eval", accounts_file]) == 0
        out = capsys.readouterr().out
        assert "D2 = -521" in out
        assert "D3 = 243" in out

    def test_csv(self, accounts_file, tmp_path, capsys):
        out_csv = str(tmp_path / "v.csv")
        assert main(["eval", accounts_file, "--csv", out_csv]) == 0
        assert open(out_csv).read().startswith("2000,1492,971,-521")

    def test_long_chain(self, tmp_path, capsys):
        path = str(tmp_path / "chain.exc")
        save(parse_document("A1 = 1\nB1 = " + "+".join(["A1"] * 5000)), path)
        assert main(["eval", path]) == 0
        assert "B1 = 5000" in capsys.readouterr().out.splitlines()

    def test_array_set_with_layouts_compiles(self, tmp_path, capsys):
        path = str(tmp_path / "spec.exc")
        save(parse_document(ACCOUNTS_S_TEXT), path)
        assert main(["eval", path]) == 0
        assert "D2 = -521" in capsys.readouterr().out


class TestDiff:
    def test_no_differences(self, accounts_file, capsys):
        assert main(["diff", accounts_file, accounts_file]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_differences_exit_1(self, accounts_file, tmp_path, capsys):
        tampered = parse_document(ACCOUNTS_TEXT.replace("C2-B2", "C2+B2"))
        other = str(tmp_path / "tampered.exc")
        save(tampered, other)
        assert main(["diff", accounts_file, other]) == 1
        assert "changed: D2" in capsys.readouterr().out

    def test_relative_mode(self, accounts_file, tmp_path, capsys):
        relative = parse_document(
            ACCOUNTS_TEXT.replace("C2-B2", "RC[-1]-RC[-2]")
            .replace("C3-B3", "RC[-1]-RC[-2]"))
        other = str(tmp_path / "rel.exc")
        save(relative, other)
        assert main(["diff", accounts_file, other]) == 0


class TestStylecheck:
    def test_violation_reported(self, accounts_file, capsys):
        assert main(["stylecheck", accounts_file]) == 0
        out = capsys.readouterr().out
        assert "RC[-1]-RC[-2]" in out

    def test_clean_sheet(self, tmp_path, capsys):
        path = str(tmp_path / "clean.exc")
        save(parse_document("A1 = 1\nB1 = A1*2"), path)
        assert main(["stylecheck", path]) == 0
        assert "no violations" in capsys.readouterr().out


class TestDiscover:
    def test_directives_and_equations(self, tmp_path, capsys):
        path = str(tmp_path / "labelled.exc")
        save(parse_document(LABELS_TEXT + ACCOUNTS_TEXT), path)
        assert main(["discover", path]) == 0
        out = capsys.readouterr().out
        assert "layout Profit[2000:2001] as D2 down" in out
        assert "Profit[2000] = Sales[2000]-Expenses[2000]" in out


class TestRun:
    def test_script(self, tmp_path, capsys):
        script = tmp_path / "s.sheet"
        script.write_text("let a = { A1 = 1, B1 = A1+1 }.\n"
                          "evaluate(a).\n")
        assert main(["run", str(script)]) == 0
        assert "B1 = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("script, printed", [
        ("show({ A1 = 1 }).", "A1 = 1\n"),
        ("stylecheck({ A1 = 1, B1 = A1*2 }).", "no violations\n"),
        ('lookup({ A1 = 1, B1 = RC[-1]*2 }, "B1", "absolute").', "A1*2\n"),
    ])
    def test_final_value_prints_once(self, tmp_path, capsys, script, printed):
        path = tmp_path / "s.sheet"
        path.write_text(script + "\n")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == printed

    def test_script_error_exit_1(self, tmp_path, capsys):
        script = tmp_path / "bad.sheet"
        script.write_text("{ A1 = 1 } \\/ { A1 = 2 }.\n")
        assert main(["run", str(script)]) == 1
        assert "error:" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestEntryPoint:
    """The module run as a program, in its own process."""

    def sheetalg(self, *args):
        src = os.path.dirname(os.path.dirname(sheetalgebra.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run([sys.executable, "-m", "sheetalgebra.cli", *args],
                              capture_output=True, text=True, env=env, timeout=60)

    def test_show_exits_0(self, accounts_file):
        done = self.sheetalg("show", accounts_file)
        assert done.returncode == 0
        assert "D2 = C2-B2" in done.stdout

    def test_diff_with_changes_exits_1(self, accounts_file, tmp_path):
        other = str(tmp_path / "tampered.exc")
        save(parse_document(ACCOUNTS_TEXT.replace("C2-B2", "C2+B2")), other)
        done = self.sheetalg("diff", accounts_file, other)
        assert done.returncode == 1
        assert "changed: D2" in done.stdout
