"""The scripting language: statements end with `.`, every command is an
expression, `let` binds names (most recent binding wins).

    let accounts = { A2 = 2000, A3 = 2001, D2 = C2-B2 }.
    accounts \\/ { E2 = D2*0.33 } shift (1,0).

Postfix operators on equation sets: `shift (dx,dy)`, `@ RANGE`,
`mapping RANGE to RANGE`, `times lo:hi`, `quotient lo:hi`; `\\/` is union.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from . import algebra
from .discover import LayoutProposal, propose_layout
from .errors import (
    FormulaSyntaxError,
    ScriptError,
    SheetError,
)
from .evaluator import evaluate
from .fileio import export_csv, format_value, load, save
from .formula import CANONICAL, canonical_text, parse_formula
from .grammar import (
    ID,
    NUM,
    OP,
    STR,
    EntryReader,
    TokenStream,
    read_int,
    read_lhs,
    read_number,
    read_range,
    tokenize,
    unquote_string,
)
from .layout import LayoutSet, compile_set, decompile_set
from .listing import show
from .model import EquationSet


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Op:
    """A set operator: its name as written, its set operands, then the
    integers or ranges written after it."""
    name: str
    operands: tuple
    params: tuple


@dataclass(frozen=True)
class FnCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class Statement:
    kind: str  # "let" or "expr"
    name: str | None
    expr: object
    index: int


# Each set operator to its algebra function, which takes the operator's set
# operands and then its params.
_OPS = {"\\/": algebra.union, "@": algebra.extract, "shift": algebra.shift,
        "mapping": algebra.map_range, "times": algebra.replicate,
        "quotient": algebra.quotient}


class ScriptParser:
    def __init__(self, stream: TokenStream):
        self.s = stream

    def script(self) -> list[Statement]:
        statements = []
        while not self.s.at_eof:
            statements.append(self.statement(len(statements) + 1))
        return statements

    def statement(self, index: int) -> Statement:
        kind, text, pos = self.s.peek()
        if kind == OP and text == ".":
            raise FormulaSyntaxError("empty statement", pos)
        if (kind == ID and text == "let" and self.s.peek(1)[0] == ID
                and self.s.peek(2)[1] == "="):
            self.s.next()
            name = self.s.expect_id()[1]
            self.s.expect_op("=")
            self.s.more()
            expr = self.expression()
            self.s.expect_op(".")
            return Statement("let", name, expr, index)
        expr = self.expression()
        self.s.expect_op(".")
        return Statement("expr", None, expr, index)

    def expression(self):
        left = self.postfix()
        while self.s.accept_op("\\/"):
            left = Op("\\/", (left, self.postfix()), ())
        return left

    def postfix(self):
        node = self.primary()
        while True:
            text = self.s.peek()[1]
            if text not in _OPS or text == "\\/":
                return node
            self.s.next()
            if text == "@":
                params = (read_range(self.s),)
            elif text == "shift":
                self.s.expect_op("(")
                dx = read_int(self.s)
                self.s.expect_op(",")
                params = (dx, read_int(self.s))
                self.s.expect_op(")")
            elif text == "mapping":
                src = read_range(self.s)
                self.s.expect_word("to")
                params = (src, read_range(self.s))
            else:  # times, quotient
                lo = read_int(self.s)
                self.s.expect_op(":")
                params = (lo, read_int(self.s))
            node = Op(text, (node,), params)

    def primary(self):
        kind, text, pos = self.s.peek()
        if kind == OP and text == "{":
            return Lit(self._set_literal())
        if kind == STR:
            self.s.next()
            return Lit(unquote_string(text))
        if kind == NUM or (kind == OP and text == "-" and self.s.peek(1)[0] == NUM):
            sign = -1 if self.s.accept_op("-") else 1
            v = sign * read_number(self.s)
            return Lit(int(v) if v == int(v) else v)
        if kind == OP and text == "(":
            self.s.next()
            inner = self.s.nested(self.expression)
            self.s.expect_op(")")
            return inner
        if kind == ID:
            self.s.next()
            if self.s.at_op("("):
                self.s.next()
                args = []
                if not self.s.at_op(")"):
                    while True:
                        args.append(self.s.nested(self.expression))
                        if not self.s.accept_op(","):
                            break
                self.s.expect_op(")")
                return FnCall(text, tuple(args))
            return Var(text)
        raise FormulaSyntaxError(f"unexpected {text or 'end of input'!r}", pos)

    def _set_literal(self) -> EquationSet:
        self.s.expect_op("{")
        reader = EntryReader(self.s)
        while not self.s.at_op("}"):
            reader.entry()
            if not self.s.accept_op(","):
                break
        self.s.expect_op("}")
        return reader.equation_set()


def parse_script(src: str) -> list[Statement]:
    with TokenStream(src) as stream:
        return ScriptParser(stream).script()


# ---------------------------------------------------------------------------
# Interpreter


def _parse_ref(text: str):
    with TokenStream(text) as stream:
        ref = read_lhs(stream)
        if not stream.at_eof:
            raise FormulaSyntaxError(f"trailing input in reference {text!r}")
    return ref


def _as_formula(v):
    if isinstance(v, str):
        return parse_formula(v, CANONICAL)
    return v


def diff_report_text(report: algebra.DiffReport) -> str:
    if report.empty:
        return "no differences"
    lines = [f"removed: {lhs}" for lhs in report.removed]
    lines += [f"added: {lhs}" for lhs in report.added]
    lines += [f"changed: {lhs}: {canonical_text(old)} -> {canonical_text(new)}"
              for lhs, old, new in report.changed]
    return "\n".join(lines)


def violations_text(violations) -> str:
    if not violations:
        return "no violations"
    return "\n".join(
        f"{v.sheet}: {v.canonical_formula} at "
        + ", ".join(str(c) for c in v.cells)
        for v in violations)


def proposal_text(proposal: LayoutProposal) -> str:
    return "\n".join(str(d) for d in proposal.directives)


def grid_text(grid: dict) -> str:
    items = sorted(grid.items(), key=lambda kv: (kv[0].sheet, kv[0].row, kv[0].col))
    return "\n".join(f"{a} = {format_value(v)}" for a, v in items)


MAX_SET_LINES = 40


def format_script_value(v) -> str:
    if isinstance(v, EquationSet):
        lines = show(v).splitlines()
        if len(lines) > MAX_SET_LINES:
            extra = len(lines) - MAX_SET_LINES
            lines = lines[:MAX_SET_LINES] + [f"... ({extra} more lines)"]
        return "\n".join(lines) if lines else "{ }"
    if isinstance(v, algebra.DiffReport):
        return diff_report_text(v)
    if isinstance(v, LayoutProposal):
        return proposal_text(v)
    if isinstance(v, dict):
        return grid_text(v)
    if isinstance(v, list):
        if v and all(hasattr(item, "canonical_formula") for item in v):
            return violations_text(v)
        return "\n".join(format_script_value(item) for item in v)
    return format_value(v)


class Interpreter:
    def __init__(self, base_dir: str = ".", out=None):
        self.env: dict[str, object] = {}
        self.base_dir = base_dir
        self.out = out if out is not None else sys.stdout

    def _layouts_arg(self, args, s):
        v = args[1] if len(args) > 1 else s
        if isinstance(v, LayoutProposal):
            return v.directives
        if isinstance(v, EquationSet):
            return LayoutSet(v.layouts)
        if isinstance(v, LayoutSet):
            return v
        raise ScriptError("expected layouts (a set with layout statements or a proposal)")

    # -- builtin functions --------------------------------------------------

    def _path(self, p: str) -> str:
        if os.path.isabs(p):
            return p
        return os.path.join(self.base_dir, p)

    def _want_set(self, v, fn):
        if not isinstance(v, EquationSet):
            raise ScriptError(f"{fn} expects an equation set, got {type(v).__name__}")
        return v

    def call(self, name: str, args: list):
        if name == "load":
            (path,) = args
            return load(self._path(path))
        if name == "save":
            s, path = args
            save(self._want_set(s, "save"), self._path(path))
            return s
        if name == "show":
            s = self._want_set(args[0], "show")
            grouped = len(args) > 1 and args[1] in (True, "grouped")
            text = show(s, grouped=grouped)
            print(text, file=self.out)
            return text
        if name == "lookup":
            s = self._want_set(args[0], "lookup")
            ref = _parse_ref(args[1]) if isinstance(args[1], str) else args[1]
            repr_ = args[2] if len(args) > 2 else algebra.RELATIVE
            return algebra.lookup(s, ref, repr_)
        if name == "replace":
            s = self._want_set(args[0], "replace")
            return algebra.replace(s, _as_formula(args[1]), _as_formula(args[2]))
        if name == "simplify":
            return algebra.simplify(self._want_set(args[0], "simplify"))
        if name == "evaluate":
            s = self._want_set(args[0], "evaluate")
            if s.all_array_lhs() and s.layouts:
                s = compile_set(s)
            return evaluate(s)
        if name in ("compile", "decompile"):
            s = self._want_set(args[0], name)
            return (compile_set if name == "compile" else decompile_set)(
                s, self._layouts_arg(args, s))
        if name == "propose_layout":
            return propose_layout(self._want_set(args[0], "propose_layout"))
        if name == "diff":
            return algebra.diff(self._want_set(args[0], "diff"),
                                self._want_set(args[1], "diff"))
        if name == "stylecheck":
            return algebra.stylecheck_unique(self._want_set(args[0], "stylecheck"))
        if name == "export_csv":
            grid, path = args
            if not isinstance(grid, dict):
                raise ScriptError("export_csv expects an evaluated grid")
            export_csv(grid, self._path(path))
            return path
        raise ScriptError(f"unknown function {name!r}")

    # -- evaluation ---------------------------------------------------------

    def eval(self, expr):
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in self.env:
                raise ScriptError(f"unbound name {expr.name!r}")
            return self.env[expr.name]
        if isinstance(expr, Op):
            return _OPS[expr.name](*[self._want_set(self.eval(x), expr.name)
                                     for x in expr.operands], *expr.params)
        if isinstance(expr, FnCall):
            args = [self.eval(a) for a in expr.args]
            return self.call(expr.name, args)
        raise ScriptError(f"cannot evaluate {expr!r}")

    def exec_statement(self, st: Statement):
        try:
            value = self.eval(st.expr)
        except SheetError as exc:
            raise ScriptError(str(exc), st.index) from exc
        if st.kind == "let":
            self.env[st.name] = value
        return value

    def run(self, src: str):
        value = None
        for st in parse_script(src):
            value = self.exec_statement(st)
        return value


def eval_script(statements, env=None, base_dir=".", out=None):
    interp = Interpreter(base_dir, out)
    interp.env.update(env or {})
    value = None
    for st in statements:
        value = interp.exec_statement(st)
    return value, interp.env


def run_script_file(path: str, out=None):
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    interp = Interpreter(os.path.dirname(os.path.abspath(path)), out)
    return interp.run(src)


# ---------------------------------------------------------------------------
# REPL


def _statement_complete(buffer: str) -> bool:
    try:
        tokens = tokenize(buffer)
    except FormulaSyntaxError:
        return True  # let the parser report it
    depth = 0
    for kind, text, _ in tokens:
        if kind == OP:
            if text in "([{":
                depth += 1
            elif text in ")]}":
                depth -= 1
            elif text == "." and depth == 0:
                return True
    return False


def repl(stdin=None, stdout=None):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    interp = Interpreter(os.getcwd(), stdout)
    buffer = ""
    prompt = "> "
    print(prompt, end="", file=stdout, flush=True)
    for line in stdin:
        buffer += line
        if not _statement_complete(buffer):
            print("| ", end="", file=stdout, flush=True)
            continue
        try:
            for st in parse_script(buffer):
                value = interp.exec_statement(st)
                text = format_script_value(value)
                if text:
                    print(text, file=stdout)
        except SheetError as exc:
            print(f"error: {exc}", file=stdout)
        buffer = ""
        print(prompt, end="", file=stdout, flush=True)
    print("", file=stdout)
