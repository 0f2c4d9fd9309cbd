import math
import random
import time

import pytest

from sheetalgebra import (
    AbsRef,
    Binary,
    Call,
    CellAddr,
    CellError,
    CellRange,
    ElemRef,
    Equation,
    EquationSet,
    Here,
    NameRef,
    Neg,
    Number,
    RelRef,
    addr,
    build_deps,
    evaluate,
    evaluate_cell,
    parse_document,
    union,
)
from sheetalgebra.algebra import simplify_formula
from sheetalgebra.evaluator import _Graph
from sheetalgebra.errors import DomainError, OutOfGridError, SubstitutionError
from sheetalgebra.fileio import format_value

from conftest import make_set, rand_cell_set, typed_values


def value_of(text):
    """The typed value of one formula written in A1."""
    return typed_values(make_set(("A1", text)))[addr("A1")]


class TestBuildDeps:
    def test_direct_refs(self, accounts):
        deps = build_deps(accounts)
        assert deps[addr("D2")] == {addr("C2"), addr("B2")}
        assert deps[addr("A2")] == set()

    def test_range_args_expand(self):
        s = make_set(("A1", "1"), ("A2", "2"), ("A3", "SUM(A1:A2)"))
        assert build_deps(s)[addr("A3")] == {addr("A1"), addr("A2")}

    def test_ranges_hold_only_defined_cells(self):
        s = make_set(("A1", "1"), ("A3", "3"), ("B1", "SUM(A1:A9)"))
        assert build_deps(s)[addr("B1")] == {addr("A1"), addr("A3")}

    def test_every_cell_is_a_cell_addr(self):
        s = parse_document("A1 = 1\nA2 = R[-1]C+Z99\nB3 = SUM(R[-2]C[-1]:R[-1]C[-1])+RC[-1]")
        grid = evaluate(s)
        assert all(isinstance(a, CellAddr) for a in grid)
        for a in grid:
            assert format_value(evaluate_cell(s, a)) == format_value(grid[a])
        deps = build_deps(s)
        assert deps[addr("B3")] == {addr("A1"), addr("A2"), addr("A3")}
        assert all(isinstance(a, CellAddr) for a in deps)
        assert all(isinstance(p, CellAddr) for ps in deps.values() for p in ps)

    def test_relative_refs_resolved_first(self):
        s = make_set(("B5", "R[-1]C+1", "r1c1"))
        assert build_deps(s)[addr("B5")] == {addr("B4")}


class TestGoldenValues:
    def test_profit(self, accounts):
        # oracle: 971-1492 and 1803-1560 by hand
        grid = evaluate(accounts)
        assert grid[addr("D2")] == pytest.approx(-521.0, abs=1e-9)
        assert grid[addr("D3")] == pytest.approx(243.0, abs=1e-9)

    def test_tax(self, accounts, tax):
        grid = evaluate(union(accounts, tax))
        assert grid[addr("E2")] == pytest.approx(-521 * 0.33, abs=1e-9)
        assert grid[addr("E3")] == pytest.approx(243 * 0.33, abs=1e-9)
        assert grid[addr("E2")] == pytest.approx(-171.93, abs=1e-9)
        assert grid[addr("E3")] == pytest.approx(80.19, abs=1e-9)

    def test_evaluate_cell(self, accounts):
        assert evaluate_cell(accounts, addr("D3")) == 243.0


class TestErrors:
    def test_div0(self):
        s = make_set(("A1", "1/0"), ("A2", "A1+1"))
        grid = evaluate(s)
        assert grid[addr("A1")] == CellError("DIV0")
        assert grid[addr("A2")] == CellError("DIV0")  # errors propagate

    def test_text_in_arithmetic(self):
        s = make_set(("A1", '"hi"'), ("A2", "A1*2"))
        assert evaluate(s)[addr("A2")] == CellError("VALUE")

    def test_error_display(self):
        assert str(CellError("DIV0")) == "#DIV0!"

    def test_non_finite_results_are_num(self):
        s = make_set(("A1", "1e308"), ("A2", "A1*10"), ("A3", "A2-A2"),
                     ("A4", "MOD(1e308,1e-10)"), ("A5", "SUM(1e308,1e308)"),
                     ("A6", "0-1e308*10"), ("A7", "MAX(1e308*10,1)"),
                     ("A8", "10^400"), ("A9", "EXP(1000)"), ("A10", "1e308/1e-10"))
        grid = evaluate(s)
        assert grid[addr("A1")] == 1e308
        for a in ("A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10"):
            assert grid[addr(a)] == CellError("NUM"), a
        assert {format_value(v) for a, v in grid.items() if a != addr("A1")} == {"#NUM!"}

    @pytest.mark.parametrize("text, tag", [
        ("MOD(1,0)", "DIV0"), ("0^-1", "DIV0"),
        ('MOD("a",1)', "VALUE"), ("MOD(1)", "VALUE"), ("ABS(1,2)", "VALUE"),
        ("NOT(1,2)", "VALUE"), ("IF(1)", "VALUE"), ("FOO(1)", "VALUE"),
        ("SQRT(-1)", "VALUE"), ("LN(0)", "VALUE"), ("(-8)^(1/3)", "VALUE"),
        ("IF(1/0,1,2)", "DIV0"), ("IF(0,1,1/0)", "DIV0"), ("AND(TRUE,1/0)", "DIV0"),
        # the left operand's error comes first, text reading as #VALUE!
        ('"a"+1/0', "VALUE"), ('1/0+"a"', "DIV0"),
        ('"a"<1', "VALUE"), ("X[1]", "REF"),
    ])
    def test_error_rules(self, text, tag):
        assert value_of(text) == (CellError, CellError(tag))


class TestCycles:
    def test_two_cell_cycle(self):
        s = make_set(("A1", "B1"), ("B1", "A1"))
        grid = evaluate(s)
        assert grid[addr("A1")] == CellError("CYCLE")
        assert grid[addr("B1")] == CellError("CYCLE")

    def test_self_reference(self):
        s = make_set(("A1", "A1+1"))
        assert evaluate(s)[addr("A1")] == CellError("CYCLE")

    def test_off_cycle_cells_still_evaluate(self):
        s = make_set(("A1", "B1+1"), ("B1", "A1"), ("C1", "5"), ("D1", "C1*2"))
        grid = evaluate(s)
        assert grid[addr("A1")] == CellError("CYCLE")
        assert grid[addr("D1")] == 10.0

    def test_downstream_of_cycle_sees_error(self):
        s = make_set(("A1", "B1"), ("B1", "A1"), ("C1", "A1+1"))
        assert evaluate(s)[addr("C1")] == CellError("CYCLE")


class TestSemantics:
    def test_empty_reference_reads_zero(self):
        s = make_set(("A1", "Z9"), ("A2", "Z9+1"))
        grid = evaluate(s)
        assert grid[addr("A1")] == 0.0
        assert grid[addr("A2")] == 1.0

    def test_sum_skips_empty(self):
        s = make_set(("A1", "1"), ("A3", "3"), ("B1", "SUM(A1:A9)"))
        assert evaluate(s)[addr("B1")] == 4.0

    def test_sum_unbounded_column(self):
        s = make_set(("A1", "1"), ("A2", "2"), ("B1", "SUM(A:A)"))
        assert evaluate(s)[addr("B1")] == 3.0

    def test_overlapping_rectangles_count_a_cell_once(self):
        s = make_set(("A1", "1"), ("A2", "2"), ("A3", "4"), ("B1", "SUM((A1:A2,A2:A3))"))
        assert evaluate(s)[addr("B1")] == 7.0

    def test_sum_over_the_whole_grid_reads_defined_cells(self):
        s = make_set(("A1", "1"), ("C7", "2"), ("XFD1048576", "4"),
                     ("Sheet2!B2", "SUM(Sheet1!A1:XFD1048576)"))
        assert evaluate(s)[addr("Sheet2!B2")] == 7.0

    def test_booleans(self):
        s = make_set(("A1", "2>1"), ("A2", "IF(A1,10,20)"),
                     ("A3", "AND(TRUE,1)"), ("A4", "NOT(0)"))
        grid = evaluate(s)
        assert grid[addr("A1")] is True
        assert grid[addr("A2")] == 10.0
        assert grid[addr("A3")] is True
        assert grid[addr("A4")] is True

    def test_functions(self):
        s = make_set(("A1", "ABS(0-3)"), ("A2", "SQRT(9)"), ("A3", "EXP(0)"),
                     ("A4", "LN(1)"), ("A5", "MOD(7,3)"), ("A6", "MOD(0-7,3)"),
                     ("A7", "MIN(3,1,2)"), ("A8", "MAX(3,1,2)"))
        grid = evaluate(s)
        assert grid[addr("A1")] == 3.0
        assert grid[addr("A2")] == 3.0
        assert grid[addr("A3")] == 1.0
        assert grid[addr("A4")] == 0.0
        assert grid[addr("A5")] == 1.0
        assert grid[addr("A6")] == 2.0  # sign follows the divisor
        assert grid[addr("A7")] == 1.0
        assert grid[addr("A8")] == 3.0

    def test_power(self):
        s = make_set(("A1", "2^10"), ("A2", "2^0.5"))
        grid = evaluate(s)
        assert grid[addr("A1")] == 1024.0
        assert grid[addr("A2")] == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("text, value", [
        ("MIN()", 0.0), ("SUM(EMPTY(),1)", 1.0), ("MOD(-7,3)", 2.0),
        ("IF(FALSE,1)", False), ("AND()", True), ("OR(0,EMPTY())", False),
        ('NOT("")', True), ('"a"<"b"', True), ("EMPTY()=0", True),
        ('"a"=1', False), ("-TRUE", -1.0),
    ])
    def test_value_rules(self, text, value):
        assert value_of(text) == (type(value), value)

    def test_number_of_an_int_is_a_float(self):
        f = Binary("+", Number(1), Number(1.0))
        assert f == Binary("+", Number(1.0), Number(1.0))
        assert typed_values(EquationSet([Equation(addr("A1"), f)]))[addr("A1")] == (float, 2.0)
        assert simplify_formula(f) == Number(2.0)

    def test_string_equality(self):
        s = make_set(("A1", '"x"'), ("A2", 'A1="x"'))
        assert evaluate(s)[addr("A2")] is True

    def test_rejects_array_lhs(self):
        with pytest.raises(DomainError):
            evaluate(make_set(("y[1]", "1")))
        with pytest.raises(DomainError):
            evaluate_cell(make_set(("y[1]", "1")), addr("A1"))


def running_sum(n, seed=7):
    """A{r} random floats of mixed magnitude, B{r} = SUM(A1:A{r}), and
    the left fold of the A column at every row."""
    rng = random.Random(seed)
    xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12) for _ in range(n)]
    text = "\n".join(f"A{r} = {x!r}\nB{r} = SUM(A1:A{r})" for r, x in enumerate(xs, 1))
    folds, acc = [], 0.0
    for x in xs:
        acc += x
        folds.append(acc)
    return parse_document(text), folds


class TestRangeNodes:
    """Each distinct range is one node of the evaluation graph, holding the
    aggregate state SUM, MIN and MAX read; a range extends the longest one
    with its start, so a running sum folds each row once."""

    def test_sum_is_a_left_fold(self):
        # compensated summation would give 1.0
        assert value_of("SUM(1e16,1,-1e16)") == (float, 0.0)
        s = make_set(("A1", "1e16"), ("A2", "1"), ("A3", "-1e16"), ("B1", "SUM(A1:A3)"))
        assert typed_values(s)[addr("B1")] == (float, 0.0)

    def test_running_sum_is_the_left_fold_at_every_row(self):
        s, folds = running_sum(3000)
        got = typed_values(s)
        for r, acc in enumerate(folds, 1):
            kind, v = got[addr(f"B{r}")]
            assert kind is float and v.hex() == acc.hex(), r

    def test_one_cell_agrees_with_the_whole_sheet(self):
        s, folds = running_sum(500, seed=3)
        assert evaluate_cell(s, addr("B500")).hex() == evaluate(s)[addr("B500")].hex() \
            == folds[-1].hex()

    def test_build_deps_lists_the_cells_of_every_range(self):
        s, _ = running_sum(60)
        deps = build_deps(s)
        assert len(deps) == 120
        for r in range(1, 61):
            assert deps[addr(f"A{r}")] == set()
            assert deps[addr(f"B{r}")] == {addr(f"A{i}") for i in range(1, r + 1)}

    def test_first_error_in_row_major_order_wins_across_chained_ranges(self):
        s = make_set(("A1", "1"), ("A2", "1/0"), ("A3", "2"), ("A4", '"t"'),
                     *[(f"B{r}", f"SUM(A1:A{r})") for r in range(1, 5)],
                     *[(f"C{r}", f"MAX(A3:A{r})") for r in range(3, 5)],
                     ("D1", "5"), ("E1", "1/0"), ("D2", '"t"'),
                     ("F1", "MIN(D1:E1)"), ("F2", "MIN(D1:E2,1)"))
        got = typed_values(s)
        div0, value = (CellError, CellError("DIV0")), (CellError, CellError("VALUE"))
        assert [got[addr(f"B{r}")] for r in range(1, 5)] == [(float, 1.0), div0, div0, div0]
        assert [got[addr(f"C{r}")] for r in (3, 4)] == [(float, 2.0), value]
        # row-major: E1's error comes before D2's text
        assert got[addr("F1")] == got[addr("F2")] == div0

    def test_a_range_on_a_cycle_still_folds_its_cells(self):
        s = make_set(("A1", "1/0"), ("A3", "SUM(A1:A3)"), ("B1", "SUM(A1:A3)"))
        got = typed_values(s)
        assert got[addr("A3")] == (CellError, CellError("CYCLE"))
        assert got[addr("B1")] == (CellError, CellError("DIV0"))
        for a in ("A3", "B1"):
            assert evaluate_cell(s, addr(a)) == got[addr(a)][1]

    @pytest.mark.parametrize("text, value", [
        ("MOD(A1:A2)", CellError("VALUE")), ("IF(A1:A2)", CellError("VALUE")),
        ("ABS(A1:A1)", CellError("VALUE")), ("NOT(A1:A2)", CellError("VALUE")),
        ("IF(1,2,A1:A2)", CellError("VALUE")),
        ("SUM(A1:A2)", 10.0), ("MAX(0,A1:A2,A2:A2)", 7.0), ("MIN(A1:A2,A2:A2)", 3.0),
        ("AND(A1:A2)", True), ("OR(A1:A2,0)", True),
    ])
    def test_a_range_is_one_argument(self, text, value):
        s = make_set(("A1", "7"), ("A2", "3"), ("B1", text))
        assert typed_values(s)[addr("B1")] == (type(value), value)


    def test_running_and_is_linear(self):
        # each AND reads the truth state of the range it extends
        s = parse_document("\n".join(f"A{r} = 1\nB{r} = AND(A1:A{r})" for r in range(1, 4001)))
        start = time.process_time()
        grid = evaluate(s)
        assert time.process_time() - start < 0.2
        assert grid[addr("B4000")] is True

    def test_and_or_over_ranges_agree_with_python(self):
        pool = {"0": 0.0, "1": 1.0, "-2.5": -2.5, '""': "", '"t"': "t", "EMPTY()": None,
                "FALSE": False, "TRUE": True, "1/0": CellError("DIV0"),
                '"a"+1': CellError("VALUE")}
        rng = random.Random(5)
        for trial in range(20):
            n = 60
            texts = [rng.choice(list(pool)) if rng.random() < 0.3 else
                     rng.choice(["1", '"t"', "TRUE"]) for _ in range(n)]
            if trial % 2:  # no error, so the truth of every value counts
                texts = [t if not isinstance(pool[t], CellError) else "0" for t in texts]
            values = [pool[t] for t in texts]
            pairs = [(f"A{r}", t) for r, t in enumerate(texts, 1)]
            for r in range(1, n + 1):
                pairs += [(f"B{r}", f"AND(A1:A{r})"), (f"C{r}", f"OR(A1:A{r})"),
                          (f"D{r}", f"OR(FALSE,A{r}:A{n})"), (f"E{r}", f"AND(A{r}:A{n},TRUE)")]
            got = evaluate(make_set(*pairs))

            def reference(func, vs):
                for v in vs:
                    if isinstance(v, CellError):
                        return v
                return (all if func == "AND" else any)(map(bool, vs))

            for r in range(1, n + 1):
                assert got[addr(f"B{r}")] == reference("AND", values[:r]), r
                assert got[addr(f"C{r}")] == reference("OR", values[:r]), r
                assert got[addr(f"D{r}")] == reference("OR", [False] + values[r - 1:]), r
                assert got[addr(f"E{r}")] == reference("AND", values[r - 1:] + [True]), r
                assert type(got[addr(f"B{r}")]) is type(reference("AND", values[:r]))


class TestTemplates:
    """A formula tree is compiled once into a template; each cell that
    holds it resolves only the template's relative leaves and ranges."""

    def test_one_template_per_tree_object(self):
        text = "B1 = 0\n" + "\n".join(f"A{r} = {r}\nB{r} = RC[-1]+R[-1]C" for r in range(2, 1001))
        s = parse_document("A1 = 1\n" + text)
        trees = {id(eq.rhs) for eq in s}
        assert len({id(s.get(addr(f"B{r}")).rhs) for r in range(2, 1001)}) == 1
        g = _Graph(s)
        grid = g.evaluate(g.formulas)
        assert len(g.templates) == len(trees) == 1002  # A1:A1000, B1 and one for B2:B1000
        assert set(g.templates) == trees
        assert grid[addr("B1000")] == sum(range(2, 1001))

    def test_a_tree_without_relative_leaves_shares_its_program(self):
        s = parse_document("A1 = 2\nB1 = A1*3\nB2 = A1*3\nB3 = A1*3\nC1 = RC[-1]+1\nC2 = RC[-1]+1")
        g = _Graph(s)
        grid = g.evaluate(g.formulas)
        b1, b2, b3, c1, c2 = (g.precedents(addr(a)) for a in ("B1", "B2", "B3", "C1", "C2"))
        assert b1 is b2 is b3
        assert c1 is not c2
        assert [grid[addr(a)] for a in ("B3", "C1", "C2")] == [6.0, 7.0, 7.0]


TWO_CELLS = {"x": CellRange.box(addr("A1"), addr("A2"))}
HERE_REF = ElemRef("x", (Here(0),))

FAULTS = [
    pytest.param(make_set(("A1", "R[-1]C", "r1c1")), "A1", OutOfGridError,
                 id="relative-ref-off-grid"),
    pytest.param(make_set(("A1", "1"), ("B2", "SUM(R[-1]C[-1]:R[-2]C[-1])", "r1c1")), "B2",
                 OutOfGridError, id="relative-range-off-grid"),
    pytest.param(make_set(("A1", "1"), ("A2", "2"), ("B1", "x+1"), names=TWO_CELLS),
                 "B1", SubstitutionError, id="range-name-outside-call"),
    pytest.param(EquationSet([Equation(addr("B1"), HERE_REF)]), "B1",
                 DomainError, id="here-marker"),
    # two faults in one formula raise in the order resolving it finds them:
    # a HERE marker, then an offset off the grid, then a range outside a call
    pytest.param(make_set(("B1", "x+R[-5]C", "r1c1"), names=TWO_CELLS), "B1",
                 OutOfGridError, id="off-grid-before-range-name"),
    pytest.param(EquationSet([Equation(addr("B1"), Binary("+", RelRef(0, -5), HERE_REF))]),
                 "B1", DomainError, id="here-marker-before-off-grid"),
    pytest.param(EquationSet([Equation(addr("B1"), Binary("+", NameRef("x"), HERE_REF))],
                             TWO_CELLS), "B1", DomainError, id="here-marker-before-range-name"),
    # the same pairs with their terms swapped: the order is by kind of
    # fault, not by where the fault stands
    pytest.param(make_set(("B1", "R[-5]C+x", "r1c1"), names=TWO_CELLS), "B1",
                 OutOfGridError, id="off-grid-before-range-name-swapped"),
    pytest.param(EquationSet([Equation(addr("B1"), Binary("+", HERE_REF, RelRef(0, -5)))]),
                 "B1", DomainError, id="here-marker-before-off-grid-swapped"),
]


class TestErrorContract:
    """A faulty formula raises the same class from evaluate and evaluate_cell;
    with two faults, the class of the one resolving the formula meets first."""

    @pytest.mark.parametrize("s, target, error", FAULTS)
    def test_fault_raises(self, s, target, error):
        with pytest.raises(error) as whole:
            evaluate(s)
        assert whole.type is error
        with pytest.raises(error) as one:
            evaluate_cell(s, addr(target))
        assert one.type is error

    def test_off_grid_message_names_the_cell(self):
        with pytest.raises(OutOfGridError, match=r"at B2: col=1 row=0"):
            evaluate(make_set(("B2", "SUM(R[-1]C[-1]:R[-2]C[-1])", "r1c1")))
        # two offsets off the grid: the leftmost one is named
        with pytest.raises(OutOfGridError, match=r"at A1: col=1 row=0"):
            evaluate(make_set(("A1", "R[-1]C+R[-2]C", "r1c1")))

    def test_deep_chain_evaluates(self):
        # 5000 terms: a tree five times deeper than the default recursion
        # limit lets a recursive walk reach
        s = make_set(("A1", "+".join(["1"] * 5000)))
        assert evaluate(s)[addr("A1")] == 5000.0
        assert evaluate_cell(s, addr("A1")) == 5000.0

    def test_deep_nesting_evaluates(self):
        # 3000 nested Neg and ABS nodes over a reference, deeper than the
        # readers read, so built with the constructors
        f = AbsRef(addr("A1"))
        for i in range(3000):
            f = Neg(f) if i % 2 else Call("ABS", (f,))
        s = EquationSet([Equation(addr("A1"), Number(2.0)), Equation(addr("B1"), f)])
        assert evaluate(s)[addr("B1")] == -2.0
        assert evaluate_cell(s, addr("B1")) == -2.0


class TestOrderIndependence:
    """Values do not depend on evaluation order: evaluate_cell walks the
    graph from one cell, in another order than the whole-sheet pass."""

    def test_one_cell_agrees_with_the_whole_sheet(self):
        rng = random.Random(41)
        for _ in range(200):
            s = rand_cell_set(rng, evaluable=True)
            grid = evaluate(s)
            for eq in s:
                assert evaluate_cell(s, eq.lhs) == grid[eq.lhs]

    def test_one_cell_agrees_on_cyclic_sets(self):
        s = make_set(("A1", "B1"), ("B1", "A1"), ("C1", "A1+1"), ("D1", "7"))
        grid = evaluate(s)
        for a in ("A1", "B1", "C1", "D1"):
            assert evaluate_cell(s, addr(a)) == grid[addr(a)]
