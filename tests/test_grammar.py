"""The shared readers: bounded inputs fail as syntax errors at every entry
point, every range the printer writes reads back, and no module reaches
into another module's private names."""

import ast
import os
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given
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
    load,
    parse_document,
    parse_formula,
    parse_listing,
    parse_script,
    print_formula,
    save,
)
from sheetalgebra.errors import DomainError, FormulaSyntaxError
from sheetalgebra.grammar import tokenize
from sheetalgebra.model import MAX_NESTING

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


def test_only_the_layout_module_reads_a_directives_shape():
    # which cell a subscript lands on is decided in layout.py alone
    found = [f"{path.name}:{node.lineno}: .{node.attr}"
             for path in sorted(SRC.glob("*.py")) if path.name != "layout.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute)
             and node.attr in ("orientation", "arity", "index_box")]
    assert found == []
