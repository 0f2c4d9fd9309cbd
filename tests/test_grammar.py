"""The shared readers: bounded inputs fail as syntax errors at every entry
point, every range the printer writes reads back, and no module reaches
into another module's private names."""

import ast
import io
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sheetalgebra import (
    A1,
    CANONICAL,
    R1C1,
    ArrayElem,
    Call,
    CellAddr,
    CellRange,
    Equation,
    EquationSet,
    RangeArg,
    Rect,
    addr,
    eval_script,
    evaluate,
    load,
    parse_document,
    parse_formula,
    parse_listing,
    parse_script,
    print_formula,
    save,
    show,
)
from sheetalgebra.errors import DomainError, FormulaSyntaxError, SheetError
from sheetalgebra.fileio import format_value
from sheetalgebra.grammar import EntryReader, TokenStream, tokenize
from sheetalgebra.model import MAX_NESTING
from sheetalgebra.script import format_script_value

SRC = Path(__file__).resolve().parents[1] / "src" / "sheetalgebra"


BOUNDED_CASES = [  # (reader, text, offset of the error)
    (parse_formula, "1e400", 0),
    (parse_document, "A1 = 1e400", 5),
    (parse_script, "1e400.", 0),
    (parse_formula, "x[2.5]", 2),
    (parse_formula, "SUM(2:4.5)", 6),
    (parse_formula, "ZZZZZZZZZZZZZ1", 0),
    (parse_formula, "XFE1", 0),
    (parse_formula, "A1048577", 0),
    (partial(parse_formula, dialect=R1C1), "R1C16385", 0),
    (parse_formula, "SUM(A:XFE)", 6),
    (parse_listing, "Sheet1[ {1} >< { 1..5 by 0 } ] = 1", 17),
    (parse_document, "layout a[1e400:2] as A1", 9),
    (parse_document, "x[1e400] = 1", 2),
    (parse_formula, "x[1e400]", 2),
    (partial(parse_formula, dialect=R1C1), "R[1e400]C", 2),
    (partial(parse_formula, dialect=R1C1), "Sheet2!RC[1]", 7),
    (partial(parse_formula, dialect=CANONICAL), "Sheet2!R[-1]C", 7),
    (parse_formula, "Sheet2!x[1]", 7),
    (parse_formula, "Sheet2!foo", 7),
    (parse_formula, "Sheet2!RC", 7),
    (partial(parse_formula, dialect=R1C1), "Sheet2!R[1]", 7),
    (parse_formula, "Sheet2!SUM(1)", 7),
    (parse_formula, "SUM(1e400:2)", 4),
    (parse_listing, "Sheet1[ {1e400} >< {1} ] = 1", 9),
    (parse_script, "x shift (1e400, 0).", 9),
    (parse_formula, "(" * 164 + "1" + ")" * 164, 65),
    (parse_formula, "SUM(" * 123 + "1" + ")" * 123, 260),
    (parse_formula, "^".join(["2"] * 500), 130),
    (parse_script, "(" * 400 + "1" + ")" * 400 + ".", 65),
]


@pytest.mark.parametrize("read, text, offset", BOUNDED_CASES,
                         ids=[t for _, t, _ in BOUNDED_CASES])
def test_bounded_readers_raise_syntax_errors(read, text, offset):
    with pytest.raises(FormulaSyntaxError) as caught:
        read(text)
    assert caught.value.pos == offset


@pytest.mark.parametrize("read, text", [
    (parse_formula, "(" * MAX_NESTING + "1" + ")" * MAX_NESTING),
    (parse_formula, "SUM(" * MAX_NESTING + "1" + ")" * MAX_NESTING),
    (parse_formula, "^".join(["2"] * (MAX_NESTING + 1))),
    (parse_formula, "-" * MAX_NESTING + "A1"),
    (parse_script, "(" * MAX_NESTING + "1" + ")" * MAX_NESTING + "."),
], ids=["parentheses", "calls", "power", "minus", "script"])
def test_nesting_up_to_the_limit_reads(read, text):
    read(text)


@pytest.mark.parametrize("text, tokens", [
    ("A1 = 1 # x", [("id", "A1", 0), ("op", "=", 3), ("num", "1", 5), ("eof", "", 10)]),
    ("A1 = 1 \t\n ", [("id", "A1", 0), ("op", "=", 3), ("num", "1", 5), ("eof", "", 10)]),
    ('B1 = "a # b"#c', [("id", "B1", 0), ("op", "=", 3), ("str", '"a # b"', 5), ("eof", "", 14)]),
    ("A1 = 1 # one\nB1 = 2", [("id", "A1", 0), ("op", "=", 3), ("num", "1", 5),
                              ("id", "B1", 13), ("op", "=", 16), ("num", "2", 18),
                              ("eof", "", 19)]),
], ids=["comment-at-end", "trailing-whitespace", "hash-in-string", "comment-between"])
def test_tokens_and_offsets(text, tokens):
    assert tokenize(text) == tokens


# -- an unknown character is the first error, wherever it stands --------------

UNKNOWN = ["$", "?", "~", "&", "%", "|", "`", "\\", "'"]
TEXT_PARTS = [
    "A1 = ", "A2 = ", "Sheet2!B1 = ", "x[1] = ", "let y = ", "Sheet1[ {1} >< { 1..3 } ] = ",
    "RC[-1]+R[-1]C", "RC[-1]+1", "SUM(A1:B2)", "SUM(", "x[HERE-1]", '"a$b"', "1e400", "XFE1",
    "1", "+", "-", "=", "(", ")", "[", "]", "{", "}", ",", ";", ".", ":", "!",
    " ", "\n", "# $ in a comment\n", "layout a[1:2] as A1", "name A1:B2 as c",
]


@given(st.lists(st.sampled_from(TEXT_PARTS), max_size=12),
       st.sampled_from(UNKNOWN),
       st.lists(st.sampled_from(TEXT_PARTS + UNKNOWN), max_size=12))
@example(["A1 = RC[-1]+R[-1]C\nA2 = RC[-1]+R[-1]C\nA3 = 1"], "$", [" 2$"])  # after a hit line
@example(["A1 = 1+"], "$", [])
@example(["let y = {A1 = 1", "\n", "A2 = 1", "\n"], "?", ["}."])
def test_an_unknown_character_is_the_first_error(head, unknown, tail):
    text = "".join(head) + unknown + "".join(tail)
    with pytest.raises(FormulaSyntaxError) as scanned:
        tokenize(text)
    expected = str(scanned.value), scanned.value.pos
    assert expected[1] == len("".join(head))  # the first unknown character
    for read in (parse_document, parse_listing, parse_script, parse_formula):
        with pytest.raises(SheetError) as caught:
            read(text)
        assert (type(caught.value), str(caught.value), caught.value.pos) == (
            FormulaSyntaxError, *expected), read.__name__


# -- every reader is total: a SheetError, or a value that prints -------------

SOUP = [  # integers of at most two digits, so that no text asks for long work
    "A1", "B2", "C3", "A1:B2", "A1:XFD1048576", "A:A", "B:C", "2:3", "Sheet2!A1", "R1C1",
    "RC[-1]", "R[1]C", "x", "x[1]", "x[HERE-1]", "costs", "SUM(", "IF(", "MOD(", "AND(",
    "MAX(", "(", ")", ",", ";", ":", "=", "+", "-", "*", "/", "^", "<", "<>", "0", "1",
    "12", "2.5", '"t"', "TRUE", "{", "}", "[", "]", ".", "let", "s", "mapping", "to",
    "shift", "(1,0)", "@", "times", "quotient", "1:12", "\\/", "name", "as", "layout",
    "down", "right", "Sheet1[", "><", "{1..5}", "..", "by", "evaluate(", "simplify(",
    "show(", "diff(", "load(", "lookup(", "replace(", "compile(", "propose_layout(",
    "stylecheck(", "\n",
]


def _prints_set(s):
    show(s)
    show(s, grouped=True)
    try:
        values = evaluate(s)
    except SheetError:
        return
    for v in values.values():
        format_value(v)


def _prints_formula(f):
    print_formula(f)
    _prints_set(EquationSet([Equation(addr("Z99"), f)]))


@given(st.lists(st.sampled_from(SOUP), max_size=16).map(" ".join))
@settings(max_examples=300, deadline=None)
@example("{ A1 = 1 } mapping A1:XFD1048576 to A1:XFD1048576.")
@example("{ x[1] = 1 } times 1:12 times 1:12.")
@example("A1 = SUM(A1:XFD1048576)")
@example("show().")
@example("load().")
@example("lookup({ A1 = 1 }).")
def test_every_reader_gives_an_error_or_a_value_that_prints(text):
    readers = [(parse_document, _prints_set), (parse_listing, _prints_set)]
    readers += [(partial(parse_formula, dialect=d), _prints_formula) for d in (A1, R1C1, CANONICAL)]
    readers.append((lambda t: eval_script(parse_script(t), out=io.StringIO())[0],
                    format_script_value))
    for read, prints in readers:
        try:
            value = read(text)
        except SheetError:
            continue
        prints(value)


@pytest.mark.parametrize("build", [
    lambda: addr("XFE1"),
    lambda: addr("A1048577"),
    lambda: CellAddr("Sheet1", 16385, 1),
    lambda: Rect("Sheet1", 1, 16385, None, None),
    lambda: Rect("Sheet1", None, None, 1048577, 1048577),
    lambda: ArrayElem("x", (10**19,)),
], ids=["addr-col", "addr-row", "CellAddr", "Rect-col", "Rect-row", "ArrayElem"])
def test_the_model_refuses_what_the_reader_refuses(build):
    with pytest.raises(DomainError):
        build()


# -- every range print_range writes reads back ------------------------------

sheets = st.sampled_from(["Sheet1", "Sheet2"])
cols = st.integers(min_value=1, max_value=16384)
rows = st.integers(min_value=1, max_value=1048576)


def _span(a, b):
    return min(a, b), max(a, b)


rects = st.one_of(
    st.builds(lambda sh, c1, c2, r1, r2: Rect(sh, *_span(c1, c2), *_span(r1, r2)),
              sheets, cols, cols, rows, rows),
    st.builds(lambda sh, c1, c2: Rect(sh, *_span(c1, c2), None, None), sheets, cols, cols),
    st.builds(lambda sh, r1, r2: Rect(sh, None, None, *_span(r1, r2)), sheets, rows, rows),
)
ranges = st.lists(rects, min_size=1, max_size=3).map(lambda rs: CellRange(tuple(rs)))


@given(ranges)
@example(CellRange.rows(2, 3, "Sheet2"))
@example(CellRange((Rect("Sheet1", 1, 1, 1, 1), Rect("Sheet1", 2, 2, 2, 2))))
@example(CellRange((Rect("Sheet1", 1, 2, 1, 3),)))
def test_sum_over_range_round_trips(rng):
    f = Call("SUM", (RangeArg(rng),))
    for dialect in (A1, R1C1, CANONICAL):
        assert parse_formula(print_formula(f, dialect), dialect) == f
    s = EquationSet([Equation(CellAddr("Sheet1", 1, 1), f)])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "r.exc")
        save(s, path)
        assert load(path) == s


# -- a repeated formula text is read once per call ----------------------------


class _FreshReader(EntryReader):
    """The reference: every right-hand side scanned and read afresh, nothing
    kept."""

    def _rhs(self, sheet):
        self.s.more()
        self.formula.sheet = sheet
        return self.formula.expression()


def _read(reader, text):
    """The equations in the order read, or the error's class, message and
    offset."""
    try:
        with TokenStream(text) as stream:
            r = reader(stream)
            r.document()
    except SheetError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return r.equations


SHARED_POOL = [  # formula texts; some run on to the next line
    "RC[-1]+R[-1]C", "RC[-1]+1", "RC[-1]+1\n+2", "B1", "Sheet2!B1", "SUM(R[-1]C:RC)",
    "x", "x\n[1]", "x\n=1", "Sheet2", "Sheet2\n!B1", '"a"', '"a\nb"', '"a\nc"',
    "-2^2", "TRUE", "1 # one", "RC # left", "R[1]",
]
BROKEN_POOL = ["1+", "(RC", "x[", "Sheet2!", "SUM(A1:", "XFE1"]
SEPARATORS = ["\n", "\n\n", " ", ", ", "; ", ". ", ",\n"]

# (lhs sheet, or an array's name; formula text; what follows it)
shared_entries = st.lists(st.tuples(st.sampled_from(["Sheet1", "Sheet2", "y", "C"]),
                                    st.sampled_from(SHARED_POOL + BROKEN_POOL),
                                    st.sampled_from(SEPARATORS)),
                          min_size=1, max_size=12)


def _entry_lines(entries):
    lines = []
    for i, (sheet, text, sep) in enumerate(entries, 1):
        lhs = f"{sheet}[{i}]" if len(sheet) == 1 else f"{sheet}!A{i}"
        lines.append(f"{lhs} = {text}{chr(10) if '#' in text else sep}")
    return "".join(lines)


@given(shared_entries)
@example([("Sheet1", "RC[-1]+1", ", "), ("Sheet1", "RC[-1]+1", "; "),
          ("Sheet1", "RC[-1]+1", ". "), ("Sheet1", "RC[-1]+1", "\n")] * 2)  # separators
@example([("Sheet1", "1 # one", "\n")] * 3)  # a comment at the end of the line
@example([("Sheet1", "RC[-1]+1", "\n"), ("Sheet1", "RC[-1]+1\n+2", "\n")])  # continued
@example([("Sheet1", '"a\nb"', "\n"), ("Sheet1", '"a\nc"', "\n")])  # string over a newline
@example([("Sheet1", "x", "\n"), ("Sheet1", "x\n[1]", "\n")])
@example([("Sheet1", "Sheet2", "\n"), ("Sheet1", "Sheet2\n!B1", "\n")])
@example([("Sheet1", "B1", "\n"), ("Sheet2", "B1", "\n"), ("y", "B1", "\n")])  # two sheets
@example([("Sheet1", "R[1]", "\n"), ("Sheet1", "R[1]", "\n"), ("C", "1", "\n")])  # R[1]C
@example([("Sheet1", "RC[-1]+1", "\n"), ("Sheet1", "1+", "\n"), ("Sheet1", "1+", "\n")])
def test_repeated_formula_texts_read_as_fresh(entries):
    text = _entry_lines(entries)
    got = _read(EntryReader, text)
    assert got == _read(_FreshReader, text)
    # each entry is one equation unless a text is broken or R[1] runs into C[i]
    if isinstance(got, list) and len(got) == len(entries) and not any(
            t in BROKEN_POOL for _, t, _ in entries):
        assert [eq.rhs for eq in got] == [
            parse_formula(t, CANONICAL, "Sheet1" if len(sheet) == 1 else sheet)
            for sheet, t, _ in entries]


def test_repeated_texts_share_one_tree():
    eqs = _read(EntryReader, "A1 = RC[-1]+1\nA2 = RC[-1]+1 # two\nA3 = RC[-1]+1\n"
                             "A4 = RC[-1]+1\n+2\nSheet2!A5 = RC[-1]+1")
    a1, a2, a3, a4, a5 = [eq.rhs for eq in eqs]
    assert a1 is a3 and a2 is not a1 and a4 is not a1 and a5 is not a1


def test_a_line_of_many_entries_keeps_only_its_last_formula():
    # were each entry kept with the rest of its line, the kept text would grow
    # with the square of the line's length
    text = ", ".join(f"A{i} = {i}" for i in range(1, 2001)) + "\nB1 = 7\n"
    reader = EntryReader(TokenStream(text))
    assert len(reader.document()) == 2001
    assert len(reader._kept) == 2  # "2000" and "7"


def test_texts_of_equal_hash_are_told_apart_by_their_text(monkeypatch):
    # the reader keeps a text's hash only, so a hit is checked against the
    # source: the same text, ending its line there, on the same sheet
    import sheetalgebra.grammar as grammar

    monkeypatch.setattr(grammar, "hash", lambda text: 0, raising=False)
    text = ("A1 = B1+22\nA2 = C1+3\nA3 = B1+2\nA4 = B1+22\nA5 = B1+2\n"
            "Sheet2!A6 = B1+2\nA7 = B1+2\nA8 = B1+2\n")
    eqs = _read(EntryReader, text)
    assert eqs == _read(_FreshReader, text)
    assert eqs[7].rhs is eqs[6].rhs and eqs[3].rhs is not eqs[0].rhs


def _perfbench_grid(rows=100, cols=50):
    """Constants in the first row and column, `RC[-1]+R[-1]C` elsewhere."""
    return "\n".join(f"{CellAddr('Sheet1', c, r).a1()} = "
                     + (str((7 * r + c) % 97) if r == 1 or c == 1 else "RC[-1]+R[-1]C")
                     for r in range(1, rows + 1) for c in range(1, cols + 1))


@pytest.mark.parametrize("read", [parse_document, parse_listing])
def test_a_copy_filled_grid_shares_its_trees(read):
    s = read(_perfbench_grid())
    assert len(s) == 5000
    assert len({id(eq.rhs) for eq in s}) <= 100


def test_a_repeated_right_hand_side_makes_no_tokens(monkeypatch):
    import sheetalgebra.grammar as grammar

    regex, made = grammar._TOKEN_RE, [0]

    class Counting:  # the token regex, counting each token it makes
        def finditer(self, src, pos=0):
            for m in regex.finditer(src, pos):
                made[0] += 1
                yield m

        def match(self, src, pos=0):
            made[0] += 1
            return regex.match(src, pos)

    monkeypatch.setattr(grammar, "_TOKEN_RE", Counting())
    s = parse_document("".join(f"X{n} = RC[-1]+R[-1]C\n" for n in range(1, 1001)))
    assert len(s) == 1000 and len({id(eq.rhs) for eq in s}) == 1
    # read afresh, a line makes 14 tokens; looked up, the two on its left,
    # the first on its right, and the next line's first to check the hit
    assert made[0] <= 4 * 1000 + 14


def test_no_tree_is_kept_between_reads():
    text = _perfbench_grid(rows=5, cols=5)
    a, b = parse_document(text), parse_document(text)
    assert a == b
    assert not {id(eq.rhs) for eq in a} & {id(eq.rhs) for eq in b}


# -- module boundaries ------------------------------------------------------


def test_no_module_imports_a_private_name_of_another():
    found = []
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("sheetalgebra")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_the_library_imports_only_the_standard_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_only_the_layout_module_reads_a_directives_shape():
    # which cell a subscript lands on is decided in layout.py alone
    found = [f"{path.name}:{node.lineno}: .{node.attr}"
             for path in sorted(SRC.glob("*.py")) if path.name != "layout.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and node.attr in ("orientation", "arity", "index_box")]
    assert found == []
