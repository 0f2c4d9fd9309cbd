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
from .fileio import export_csv, format_value, load, opened, save
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
from .model import ArrayElem, CellAddr, EquationSet, Formula, Number


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


MAX_SET_LINES = 40


def format_script_value(v) -> str:
    """The one text of a value, as the REPL, `run` and the CLI print it."""
    if isinstance(v, EquationSet):
        lines = show(v).splitlines()
        if len(lines) > MAX_SET_LINES:
            extra = len(lines) - MAX_SET_LINES
            lines = lines[:MAX_SET_LINES] + [f"... ({extra} more lines)"]
        return "\n".join(lines) if lines else "{ }"
    if isinstance(v, Formula):
        return canonical_text(v)
    if isinstance(v, algebra.DiffReport):
        lines = [f"removed: {lhs}" for lhs in v.removed]
        lines += [f"added: {lhs}" for lhs in v.added]
        lines += [f"changed: {lhs}: {canonical_text(old)} -> {canonical_text(new)}"
                  for lhs, old, new in v.changed]
        return "\n".join(lines) or "no differences"
    if isinstance(v, LayoutProposal):
        return "\n".join(str(d) for d in v.directives)
    if isinstance(v, dict):  # an evaluated grid
        return "\n".join(f"{a} = {format_value(v[a])}"
                         for a in sorted(v, key=lambda a: (a.sheet, a.row, a.col)))
    if isinstance(v, list):
        if all(isinstance(item, algebra.StyleViolation) for item in v):
            return "\n".join(f"{x.sheet}: {x.canonical_formula} at "
                             + ", ".join(str(c) for c in x.cells)
                             for x in v) or "no violations"
        return "\n".join(format_script_value(item) for item in v)
    return format_value(v)


# The kinds of a builtin's arguments, each named as a wrong call names it.  A
# tuple of values is an option: one of them, compared by type and value.
SET, PATH, REF, FORMULA, GRID, LAYOUTS = (
    "an equation set", "a path", "a reference", "a formula", "an evaluated grid", "layouts")
_TAKES = {SET: EquationSet, PATH: str, REF: (str, CellAddr, ArrayElem),
          FORMULA: (str, int, float, Formula), GRID: dict,
          LAYOUTS: (LayoutProposal, EquationSet, LayoutSet)}


def _arg(fn: str, kind, v):
    """Argument `v` of builtin or set operator `fn`, as its kind takes it."""
    if isinstance(kind, tuple):
        if not any(type(v) is type(o) and v == o for o in kind):
            raise ScriptError(f"{fn} expects one of {', '.join(map(repr, kind))}, got {v!r}")
        return v
    if not isinstance(v, _TAKES[kind]) or isinstance(v, bool):
        raise ScriptError(f"{fn} expects {kind}, got {type(v).__name__}")
    if kind is REF and isinstance(v, str):
        return _parse_ref(v)
    if kind is FORMULA and not isinstance(v, Formula):
        return parse_formula(v, CANONICAL) if isinstance(v, str) else Number(v)
    if kind is LAYOUTS and not isinstance(v, LayoutSet):
        return v.directives if isinstance(v, LayoutProposal) else LayoutSet(v.layouts)
    return v


# Each builtin: its function, which takes the interpreter and then the
# arguments as their kinds take them; the kind of each argument; and how many
# a call must give.  Paths are read from the interpreter's base_dir, and
# layouts left out are the set's own.
_BUILTINS = {
    "load": (lambda i, path: load(os.path.join(i.base_dir, path)), (PATH,), 1),
    "save": (lambda i, s, path: save(s, os.path.join(i.base_dir, path)) or s, (SET, PATH), 2),
    "export_csv": (lambda i, grid, path: export_csv(  # gives the path as written
        grid, os.path.join(i.base_dir, path)) or path, (GRID, PATH), 2),
    "show": (lambda i, s, how=False: print(show(s, grouped=how in (True, "grouped")),
                                           file=i.out), (SET, ("grouped", True, False)), 1),
    "lookup": (lambda i, *a: algebra.lookup(*a),
               (SET, REF, ("raw", "relative", "absolute", "substituted")), 2),
    "replace": (lambda i, *a: algebra.replace(*a), (SET, FORMULA, FORMULA), 3),
    "simplify": (lambda i, s: algebra.simplify(s), (SET,), 1),
    "evaluate": (lambda i, s: evaluate(
        compile_set(s) if s.all_array_lhs() and s.layouts else s), (SET,), 1),
    "compile": (lambda i, *a: compile_set(*a), (SET, LAYOUTS), 1),
    "decompile": (lambda i, *a: decompile_set(*a), (SET, LAYOUTS), 1),
    "propose_layout": (lambda i, s: propose_layout(s), (SET,), 1),
    "diff": (lambda i, a, b: algebra.diff(a, b), (SET, SET), 2),
    "stylecheck": (lambda i, s: algebra.stylecheck_unique(s), (SET,), 1),
}


class Interpreter:
    def __init__(self, base_dir: str = ".", out=None):
        self.env: dict[str, object] = {}
        self.base_dir = base_dir
        self.out = out if out is not None else sys.stdout

    def call(self, name: str, args: list):
        """Builtin `name` on `args`; a wrong call is a ScriptError that names it."""
        if name not in _BUILTINS:
            raise ScriptError(f"unknown function {name!r}")
        fn, kinds, required = _BUILTINS[name]
        if not required <= len(args) <= len(kinds):
            most = f" to {len(kinds)}" if required < len(kinds) else ""
            raise ScriptError(f"{name} takes {required}{most} argument"
                              f"{'s' if len(kinds) > 1 else ''}, got {len(args)}")
        return fn(self, *[_arg(name, kind, v) for kind, v in zip(kinds, args)])

    # -- evaluation ---------------------------------------------------------

    def eval(self, expr):
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in self.env:
                raise ScriptError(f"unbound name {expr.name!r}")
            return self.env[expr.name]
        if isinstance(expr, Op):
            return _OPS[expr.name](*[_arg(expr.name, SET, self.eval(x))
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
    with opened(path) as fh:
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
