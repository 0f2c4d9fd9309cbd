import random

import pytest

from sheetalgebra import (
    A1,
    CANONICAL,
    R1C1,
    AbsRef,
    Binary,
    Bool,
    Call,
    CellRange,
    NameRef,
    Number,
    RangeArg,
    RelRef,
    Text,
    addr,
    canonical_text,
    parse_formula,
    print_formula,
    substitute_names,
    to_absolute,
)
from sheetalgebra.errors import (
    AnchorError,
    DomainError,
    FormulaSyntaxError,
    OutOfGridError,
    SubstitutionError,
)
from sheetalgebra.formula import relative_form

from conftest import rand_formula


class TestParse:
    def test_subtraction_a1(self):
        f = parse_formula("C2-B2")
        assert f == Binary("-", AbsRef(addr("C2")), AbsRef(addr("B2")))

    def test_relative_r1c1(self):
        f = parse_formula("R[-33]C+1", R1C1)
        assert f == Binary("+", RelRef(0, -33), Number(1.0))

    def test_times_constant(self):
        f = parse_formula("D2*0.33")
        assert f == Binary("*", AbsRef(addr("D2")), Number(0.33))

    def test_precedence(self):
        f = parse_formula("1+2*3")
        assert f == Binary("+", Number(1.0), Binary("*", Number(2.0), Number(3.0)))

    def test_power_right_assoc(self):
        f = parse_formula("2^3^2")
        assert f == Binary("^", Number(2.0), Binary("^", Number(3.0), Number(2.0)))

    def test_power_binds_tighter_than_unary_minus(self):
        f = parse_formula("0-2^2")  # rhs is -(2^2), not (-2)^2
        assert f.right == Binary("^", Number(2.0), Number(2.0))

    def test_comparison(self):
        f = parse_formula("A1<=3")
        assert f == Binary("<=", AbsRef(addr("A1")), Number(3.0))

    def test_function_case_insensitive(self):
        assert parse_formula("sum(A1,B1)") == parse_formula("SUM(A1,B1)")

    def test_range_only_in_call(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("A1:B2+1")

    def test_sheet_prefix(self):
        f = parse_formula("Data!B3")
        assert f == AbsRef(addr("Data!B3"))

    def test_booleans_and_strings(self):
        assert parse_formula("TRUE") == Bool(True)
        assert parse_formula('"a ""b"""') == Text('a "b"')

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("1+*2")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")

    def test_r1c1_absolute(self):
        assert parse_formula("R2C3", R1C1) == AbsRef(addr("C2"))

    def test_a1_refs_are_absolute(self):
        f = parse_formula("A1+B2", A1)
        assert all(not isinstance(n, RelRef) for n in [f.left, f.right])


class TestPrint:
    def test_relative_r1c1(self):
        f = Binary("+", RelRef(0, -33), Number(1.0))
        assert print_formula(f, R1C1) == "R[-33]C+1"

    def test_absolute_a1(self):
        f = Binary("*", AbsRef(addr("D2")), Number(0.33))
        assert print_formula(f, A1) == "D2*0.33"

    def test_relative_in_a1_needs_anchor(self):
        f = Binary("+", RelRef(0, -33), Number(1.0))
        with pytest.raises(AnchorError):
            print_formula(f, A1)
        # anchor row 37 - 33 = 4, cross-checked by the to_absolute oracle
        assert print_formula(f, A1, anchor=addr("A37")) == "A4+1"
        assert to_absolute(f, addr("A37")) == parse_formula("A4+1")

    def test_minimal_parentheses(self):
        assert canonical_text(parse_formula("(1+2)*3")) == "(1+2)*3"
        assert canonical_text(parse_formula("1+(2*3)")) == "1+2*3"

    def test_canonical_mixes_dialects(self):
        f = Binary("-", AbsRef(addr("C2")), RelRef(-2, 0))
        assert canonical_text(f) == "C2-RC[-2]"


class TestRoundTrip:
    def test_a1_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            f = rand_formula(rng, allow_rel=False)
            text = print_formula(f, A1)
            assert parse_formula(text, A1) == f

    def test_r1c1_random(self):
        rng = random.Random(12)
        for _ in range(1000):
            f = rand_formula(rng, allow_rel=True)
            text = print_formula(f, R1C1)
            assert parse_formula(text, R1C1) == f

    def test_canonical_random(self):
        rng = random.Random(13)
        for _ in range(500):
            f = rand_formula(rng, allow_rel=True)
            text = canonical_text(f)
            assert parse_formula(text, CANONICAL) == f

    @pytest.mark.parametrize("dialect", [A1, R1C1, CANONICAL])
    def test_negative_zero(self, dialect):
        for f in (Number(-0.0), Binary("-", AbsRef(addr("A1")), Number(-0.0)),
                  Binary("*", Number(-0.0), Number(2.0))):
            text = print_formula(f, dialect)
            assert parse_formula(text, dialect) == f, text

    def test_raw_comparison_agrees_with_structural(self):
        # canonical text equality == structural equality, for printable trees
        rng = random.Random(14)
        fs = [rand_formula(rng, allow_rel=True) for _ in range(200)]
        for a in fs[:40]:
            for b in fs[:40]:
                assert (canonical_text(a) == canonical_text(b)) == (a == b)


class TestToAbsolute:
    def test_resolves_offsets(self):
        f = Binary("+", RelRef(0, -33), Number(1.0))
        assert to_absolute(f, addr("A37")) == Binary("+", AbsRef(addr("A4")), Number(1.0))

    def test_identity_on_absolute(self):
        f = parse_formula("C2-B2")
        assert to_absolute(f, addr("Z99")) is not None
        assert to_absolute(f, addr("Z99")) == f

    def test_out_of_grid(self):
        with pytest.raises(OutOfGridError):
            to_absolute(RelRef(-1, 0), addr("A5"))

    @pytest.mark.parametrize("text", ["R[-5]C+X[HERE]", "X[HERE]+R[-5]C", "SUM(R[-5]C:RC)+X[HERE+1]"])
    def test_here_is_refused_before_an_earlier_offset_off_the_grid(self, text):
        # whether the offset off the grid stands before or after the marker,
        # the marker is the error reported
        with pytest.raises(DomainError, match="HERE"):
            to_absolute(parse_formula(text, CANONICAL), addr("A1"))


class TestToRelative:
    def test_offsets_from_anchor(self):
        f = parse_formula("C2-B2")
        assert relative_form(f, addr("D2")) == Binary("-", RelRef(-1, 0), RelRef(-2, 0))

    def test_constants_unchanged(self):
        assert relative_form(Number(7.0), addr("Q5")) == Number(7.0)

    def test_shift_invariance(self):
        a = relative_form(parse_formula("D13-C13"), addr("F13"))
        b = relative_form(parse_formula("D3-C3"), addr("F3"))
        assert a == b

    def test_cross_sheet_stays_absolute(self):
        f = parse_formula("Other!A1+SUM(Other!A1:A2)")
        assert relative_form(f, addr("B2")) == f

    def test_round_trip_random(self):
        rng = random.Random(15)
        for _ in range(500):
            f = rand_formula(rng, allow_rel=False)
            anchor = addr(f"G{rng.randint(20, 40)}")
            assert to_absolute(relative_form(f, anchor), anchor) == f


class TestSubstituteNames:
    def test_single_cell_name(self):
        names = {"rate": CellRange.cell(addr("B1"))}
        assert substitute_names(NameRef("rate"), names) == AbsRef(addr("B1"))

    def test_multi_cell_name_in_call(self):
        rng = CellRange.box(addr("B2"), addr("B9"))
        out = substitute_names(Call("SUM", (NameRef("costs"),)), {"costs": rng})
        assert out == Call("SUM", (RangeArg(rng),))

    def test_single_cell_is_read_off_the_bounds(self):
        b1 = CellRange.cell(addr("B1"))
        assert b1.union(b1).is_single_cell()
        assert not b1.union(CellRange.cell(addr("B2"))).is_single_cell()
        assert not CellRange.box(addr("B1"), addr("B2")).is_single_cell()
        assert not CellRange.columns(2, 2).is_single_cell()
        assert not CellRange.box(addr("A1"), addr("XFD1048576")).is_single_cell()

    def test_unknown_name_passes_through(self):
        assert substitute_names(NameRef("unknown"), {}) == NameRef("unknown")

    def test_multi_cell_outside_call_rejected(self):
        rng = CellRange.box(addr("B2"), addr("B9"))
        for f in (Binary("+", NameRef("costs"), Number(1.0)), NameRef("costs")):
            with pytest.raises(SubstitutionError):
                substitute_names(f, {"costs": rng})

    def test_substitution_preserves_evaluation(self):
        # oracle: evaluating SUM over the named range equals evaluating the
        # substituted range on the same grid
        from sheetalgebra import EquationSet, Equation, evaluate

        rng = CellRange.box(addr("B2"), addr("B4"))
        filled = [Equation(addr(f"B{r}"), Number(float(r))) for r in (2, 3, 4)]
        base = EquationSet(filled + [Equation(addr("A1"), Call("SUM", (NameRef("costs"),)))],
                           names={"costs": rng})
        subst = EquationSet(
            filled + [Equation(addr("A1"), Call("SUM", (RangeArg(rng),)))])
        assert evaluate(base)[addr("A1")] == evaluate(subst)[addr("A1")] == 9.0


class TestNegativePowerBase:
    def test_parenthesized_and_read_back(self):
        f = Binary("^", Number(-2.0), Number(2.0))
        assert canonical_text(f) == "(-2)^2"
        for dialect in (A1, R1C1, CANONICAL):
            assert parse_formula(print_formula(f, dialect), dialect) == f


class TestRelativeRange:
    TEXT = "SUM(R[-5]C[-1]:RC[-1])"

    def test_r1c1_and_canonical_read_and_write_it(self):
        for dialect in (R1C1, CANONICAL):
            f = parse_formula(self.TEXT, dialect)
            assert print_formula(f, dialect) == self.TEXT

    def test_a1_resolves_it_at_the_anchor(self):
        f = parse_formula(self.TEXT, R1C1)
        assert print_formula(f, A1, anchor=addr("D6")) == "SUM(C1:C6)"
        assert to_absolute(f, addr("D6")) == parse_formula("SUM(C1:C6)")
        with pytest.raises(AnchorError):
            print_formula(f, A1)
        with pytest.raises(FormulaSyntaxError):
            parse_formula(self.TEXT, A1)

    def test_relative_form_of_a_bounded_range(self):
        f = parse_formula("SUM(C1:C6)+SUM(C:C)+SUM(Sheet2!C1:C6)")
        rel = relative_form(f, addr("D6"))
        assert canonical_text(rel) == "SUM(R[-5]C[-1]:RC[-1])+SUM(C:C)+SUM(Sheet2!C1:C6)"
        assert to_absolute(rel, addr("D6")) == f

    def test_column_rc_is_not_read_as_relative(self):
        f = parse_formula("SUM(RC:RD)+SUM(RC:RC)")
        for dialect in (A1, R1C1, CANONICAL):
            assert parse_formula(print_formula(f, dialect), dialect) == f
