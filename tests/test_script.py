import io
import time

import pytest

from sheetalgebra import (
    Interpreter,
    addr,
    eval_script,
    parse_document,
    parse_script,
    repl,
)
from sheetalgebra.errors import FormulaSyntaxError, ScriptError
from sheetalgebra.script import format_script_value

from conftest import ACCOUNTS_TEXT, make_set


def run(src, base_dir="."):
    out = io.StringIO()
    interp = Interpreter(base_dir, out)
    return interp.run(src), interp, out


ACCOUNTS_LITERAL = ("{ A2 = 2000, A3 = 2001, B2 = 1492, B3 = 1560, "
                    "C2 = 971, C3 = 1803, D2 = C2-B2, D3 = C3-B3 }")


class TestParser:
    def test_statements_end_with_dot(self):
        statements = parse_script("let x = 1. x.")
        assert [st.kind for st in statements] == ["let", "expr"]
        assert statements[1].index == 2

    def test_missing_dot(self):
        with pytest.raises(FormulaSyntaxError):
            parse_script("let x = 1")

    def test_empty_statement(self):
        with pytest.raises(FormulaSyntaxError):
            parse_script(". .")

    def test_postfix_binds_tighter_than_union(self):
        # a \/ b shift (1,0) parses as a \/ (b shift (1,0))
        from sheetalgebra.script import Op, Var

        (st,) = parse_script("a \\/ b shift (1,0).")
        assert st.expr == Op("\\/", (Var("a"), Op("shift", (Var("b"),), (1, 0))), ())

    def test_postfix_chain(self):
        from sheetalgebra.script import Var

        (st,) = parse_script("a @ A1:B2 shift (1,2) times 1:3 quotient 1:3.")
        chain = []
        node = st.expr
        while not isinstance(node, Var):
            chain.append((node.name, node.params))
            (node,) = node.operands
        assert node == Var("a")
        assert [name for name, _ in chain] == ["quotient", "times", "shift", "@"]
        assert [params for _, params in chain[:3]] == [(1, 3), (1, 3), (1, 2)]
        assert str(chain[3][1][0]) == "A1:B2"


class TestInterpreter:
    def test_let_and_union(self, accounts):
        value, _, _ = run(f"let accounts = {ACCOUNTS_LITERAL}."
                          "accounts \\/ { E2 = D2*0.33, E3 = D3*0.33 }.")
        assert len(value) == 10
        assert value.get(addr("A2")) == accounts.get(addr("A2"))

    def test_rebinding_most_recent_wins(self):
        value, _, _ = run("let x = 1. let x = 2. x.")
        assert value == 2

    def test_union_conflict_is_script_error(self):
        with pytest.raises(ScriptError):
            run("{ A1 = 1 } \\/ { A1 = 2 }.")

    def test_error_carries_statement_index(self):
        with pytest.raises(ScriptError) as exc:
            run("let x = { A1 = 1 }. x quotient 1:2.")
        assert exc.value.statement == 2

    @pytest.mark.parametrize("statement, message", [
        ("1 shift (1,0).", "shift expects an equation set, got int"),
        ("{ A1 = 1 } \\/ 2.", "\\/ expects an equation set, got int"),
        ("x \\/ s.", "\\/ expects an equation set, got float"),
        ('"s" @ A1:B2.', "@ expects an equation set, got str"),
        ("1 mapping A1 to B1.", "mapping expects an equation set, got int"),
        ("s @ A1 shift (0,1) \\/ x.", "\\/ expects an equation set, got float"),
        ("x times 1:2.", "times expects an equation set, got float"),
        ("(1) quotient 1:2.", "quotient expects an equation set, got int"),
    ])
    def test_set_operator_refuses_a_non_set_operand(self, statement, message):
        with pytest.raises(ScriptError) as exc:
            run(f"let s = {{ A1 = 1 }}. let x = 2.5. {statement} s.")
        assert exc.value.statement == 3
        assert str(exc.value) == f"statement 3: {message}"

    def test_unbound_name(self):
        with pytest.raises(ScriptError):
            run("nope.")

    def test_shift_and_extract(self):
        value, _, _ = run(f"let a = {ACCOUNTS_LITERAL}. a @ D:D shift (1,0).")
        assert value.lhs_set() == {addr("E2"), addr("E3")}

    def test_mapping(self):
        value, _, _ = run("{ A1 = 10, A2 = 20 } mapping A1:A2 to B2:B3.")
        assert value == make_set(("B2", "10"), ("B3", "20"))

    def test_times_quotient(self):
        value, _, _ = run("{ y[1] = 1 } times 2000:2001.")
        assert value == make_set(("y[1,2000]", "1"), ("y[1,2001]", "1"))
        value, _, _ = run("{ y[1,2000] = 1, y[1,2001] = 1 } quotient 2000:2001.")
        assert value == make_set(("y[1]", "1"))

    def test_times_past_the_equation_cap_is_refused_at_once(self):
        start = time.process_time()
        with pytest.raises(ScriptError, match="makes more than 1048576"):
            run("{ y[1] = 1 } times 1:999999999999999999.")
        with pytest.raises(ScriptError, match="makes more than 1048576"):
            run("{ x[1] = 1 } times 1:9999999.")
        value, _, _ = run("{ } times 1:999999999999999999.")  # no copies to make
        assert time.process_time() - start < 0.1
        assert len(value) == 0

    def test_evaluate_builtin(self):
        value, _, _ = run(f"evaluate({ACCOUNTS_LITERAL}).")
        assert value[addr("D2")] == -521.0

    def test_evaluate_compiles_array_sets(self):
        value, _, _ = run("""
        evaluate({ v[1] = 5, v[2] = v[1]+1, layout v[1:2] as B1 down }).
        """)
        assert value[addr("B2")] == 6.0

    def test_lookup_builtin(self):
        value, _, _ = run(f'let a = {ACCOUNTS_LITERAL}. lookup(a, "D2", "raw").')
        assert value == "C2-B2"

    def test_replace_builtin(self):
        value, _, _ = run(
            f'let a = {ACCOUNTS_LITERAL}. lookup(replace(a, "C2-B2", "0"), "D2", "raw").')
        assert value == "0"

    def test_show_builtin_prints(self):
        _, _, out = run("show({ A1 = 1 }).")
        assert out.getvalue().strip() == "A1 = 1"

    def test_load_save_round_trip(self, tmp_path):
        src = f"""
        let a = {ACCOUNTS_LITERAL}.
        save(a, "a.exc").
        diff(a, load("a.exc")).
        """
        value, _, _ = run(src, base_dir=str(tmp_path))
        assert value.empty

    def test_propose_and_decompile(self, tmp_path):
        from conftest import LABELS_TEXT

        doc = parse_document(LABELS_TEXT + ACCOUNTS_TEXT)
        from sheetalgebra import save

        save(doc, str(tmp_path / "acc.exc"))
        value, _, _ = run(
            'let s = load("acc.exc").'
            "decompile(s, propose_layout(s)).", base_dir=str(tmp_path))
        assert "Profit" in {d.array for d in value.layouts}

    @pytest.mark.parametrize("statement, message", [
        ("load().", "load takes 1 argument, got 0"),
        ("show().", "show takes 1 to 2 arguments, got 0"),
        ("evaluate().", "evaluate takes 1 argument, got 0"),
        ("diff(s).", "diff takes 2 arguments, got 1"),
        ("lookup(s).", "lookup takes 2 to 3 arguments, got 1"),
        ("save(s).", "save takes 2 arguments, got 1"),
        ("export_csv(1).", "export_csv takes 2 arguments, got 1"),
        ('show(s, "groupd").', "show expects one of 'grouped', True, False, got 'groupd'"),
        ("show(s, 7).", "show expects one of 'grouped', True, False, got 7"),
        ("show(s, 1).", "show expects one of 'grouped', True, False, got 1"),
        ('lookup(s, "A1", "raw", 5).', "lookup takes 2 to 3 arguments, got 4"),
        ("evaluate(s, 99).", "evaluate takes 1 argument, got 2"),
        ("load(5).", "load expects a path, got int"),
        ('export_csv(s, "v.csv").', "export_csv expects an evaluated grid, got EquationSet"),
        ("lookup(s, 5).", "lookup expects a reference, got int"),
        ("compile(s, 3).", "compile expects layouts, got int"),
        ("shift(s, 1, 0).", "unknown function 'shift'"),
    ])
    def test_a_wrong_builtin_call_is_a_script_error(self, statement, message):
        with pytest.raises(ScriptError) as exc:
            run(f"let s = {{ A1 = 1 }}. {statement}")
        assert str(exc.value) == f"statement 2: {message}"

    def test_replace_takes_numbers(self):
        value, _, _ = run('lookup(replace({ A1 = 2, B1 = A1*0.2 }, 0.2, 0.25), "B1", "raw").')
        assert value == "A1*0.25"

    def test_show_takes_the_options_the_cli_gives(self):
        s = parse_document("A1 = 1\nA2 = 1")
        texts = []
        for option in ("grouped", True, False):
            out = io.StringIO()
            assert Interpreter(".", out).call("show", [s, option]) is None
            texts.append(out.getvalue())
        assert texts[0] == texts[1] != texts[2] == "A1 = 1\nA2 = 1\n"

    def test_eval_script_returns_env(self):
        value, env = eval_script(parse_script("let x = 3. x."))
        assert value == 3
        assert env["x"] == 3


class TestFormatting:
    def test_numbers(self):
        assert format_script_value(3.0) == "3"
        assert format_script_value(True) == "TRUE"
        assert format_script_value(None) == ""

    def test_set_truncated_at_40_lines(self):
        s = make_set(*[(f"A{r}", str(r)) for r in range(1, 61)])
        text = format_script_value(s)
        lines = text.splitlines()
        assert len(lines) == 41
        assert lines[-1] == "... (20 more lines)"

    def test_grid(self):
        from sheetalgebra import evaluate

        text = format_script_value(evaluate(make_set(("A1", "1/0"))))
        assert text == "A1 = #DIV0!"


class TestRepl:
    def run_repl(self, text):
        out = io.StringIO()
        repl(io.StringIO(text), out)
        return out.getvalue()

    def test_single_statement(self):
        out = self.run_repl("1.5.\n")
        assert "1.5" in out

    def test_buffers_until_dot(self):
        out = self.run_repl("let x = { A1 = 1,\nA2 = 2 }.\nx.\n")
        assert "| " in out  # continuation prompt
        assert "A1 = 1" in out

    def test_error_recovery(self):
        out = self.run_repl("nope.\nlet x = 4.\nx.\n")
        assert "error:" in out
        assert "4" in out

    def test_a_wrong_call_does_not_end_the_session(self):
        out = self.run_repl("load().\nlet x = 4.\nx.\n").splitlines()
        assert out[0] == "> error: statement 1: load takes 1 argument, got 0"
        assert out[1:] == ["> 4", "> 4", "> "]  # the let's value, then x

    def test_a_file_that_cannot_be_written_does_not_end_the_session(self, tmp_path,
                                                                    monkeypatch):
        (tmp_path / "d.exc").mkdir()
        monkeypatch.chdir(tmp_path)
        out = self.run_repl('save({ A1 = 1 }, "d.exc").\nlet x = 4.\nx.\n').splitlines()
        assert out[0].startswith("> error: statement 1: ")
        assert "d.exc" in out[0]
        assert out[1:] == ["> 4", "> 4", "> "]

    def test_saving_under_a_name_load_refuses_does_not_end_the_session(self, tmp_path,
                                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = self.run_repl('save({ A1 = 1 }, "x.txt").\nlet x = 4.\nx.\n').splitlines()
        assert out[0].startswith("> error: statement 1: ")
        assert out[0].endswith("x.txt: expected a .exc file")
        assert out[1:] == ["> 4", "> 4", "> "]
        assert list(tmp_path.iterdir()) == []

    def test_an_unknown_character_completes_the_statement(self):
        out = self.run_repl("1 + `\n2.\n").splitlines()
        assert out[0].startswith("> error: unknown token")
        assert out[1:] == ["> 2", "> "]

    def test_bindings_persist(self):
        out = self.run_repl("let x = 5.\nx.\n")
        assert "5" in out

    def test_show_prints_its_listing_once(self):
        assert self.run_repl("show({ A1 = 1 }).\n").count("A1 = 1") == 1

    def test_clean_stylecheck_prints_no_violations(self):
        assert "no violations" in self.run_repl("stylecheck({ A1 = 1, B1 = A1*2 }).\n")

    def test_looked_up_formula_prints_as_text(self):
        out = self.run_repl('lookup({ A1 = 1, B1 = RC[-1]*2 }, "B1", "absolute").\n')
        assert out.splitlines()[0] == "> A1*2"
