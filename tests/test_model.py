import copy
import math
import pickle
import random

import pytest

from sheetalgebra import (
    AbsRef,
    ArrayElem,
    Binary,
    Bool,
    Call,
    CellAddr,
    CellRange,
    ElemRef,
    Empty,
    Equation,
    EquationSet,
    Here,
    NameRef,
    Neg,
    Number,
    RangeArg,
    Rect,
    RelRef,
    Text,
    addr,
    col_to_letters,
    letters_to_col,
    parse_document,
)
from sheetalgebra.errors import ConflictError, DomainError
from sheetalgebra.formula import formula_groups
from sheetalgebra.model import map_leaves

from conftest import eq


def brute_force_label(n):
    # enumerate A, B, ..., Z, AA, AB, ... until the n-th label
    import itertools
    import string

    labels = []
    for width in itertools.count(1):
        for combo in itertools.product(string.ascii_uppercase, repeat=width):
            labels.append("".join(combo))
            if len(labels) >= n:
                return labels[n - 1]


class TestColumnLetters:
    def test_first_letter(self):
        assert col_to_letters(1) == "A"

    def test_alphabet_length(self):
        assert col_to_letters(26) == "Z"

    def test_two_letters(self):
        # oracle: brute-force enumeration of the label sequence
        assert brute_force_label(27) == "AA"
        assert col_to_letters(27) == "AA"

    def test_matches_enumeration_oracle(self):
        for n in (2, 25, 28, 52, 53, 702, 703):
            assert col_to_letters(n) == brute_force_label(n)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            col_to_letters(0)
        with pytest.raises(DomainError):
            col_to_letters(-3)

    def test_round_trip_10000_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            n = rng.randint(1, 10_000_000)
            assert letters_to_col(col_to_letters(n)) == n

    def test_letters_either_case_and_only_ascii(self):
        assert letters_to_col("xfd") == letters_to_col("XFD") == 16384
        for text in ("", "A1", "é", "Aé"):
            with pytest.raises(DomainError):
                letters_to_col(text)


class TestCellAddr:
    def test_no_zero_coordinates(self):
        with pytest.raises(DomainError):
            CellAddr("Sheet1", 0, 1)
        with pytest.raises(DomainError):
            CellAddr("Sheet1", 1, 0)

    def test_addr_parsing(self):
        assert addr("D2") == CellAddr("Sheet1", 4, 2)
        assert addr("Sheet2!AA10") == CellAddr("Sheet2", 27, 10)


class TestRangeContains:
    def test_column_band_excludes(self):
        assert not CellRange.columns(1, 3).contains(addr("D2"))

    def test_extract_box_keeps_c2(self):
        assert CellRange.box(addr("A1"), addr("D2")).contains(addr("C2"))

    def test_non_contiguous(self):
        r = CellRange.columns(1, 1).union(CellRange.columns(3, 4))
        assert r.contains(addr("C5"))
        assert not r.contains(addr("B5"))

    def test_sheet_must_match(self):
        r = CellRange.box(addr("A1"), addr("D9"))
        assert not r.contains(addr("Other!B2"))


class TestEquationSet:
    def test_duplicate_identical_is_idempotent(self):
        s = EquationSet([eq("A1", "1"), eq("A1", "1")])
        assert len(s) == 1

    def test_duplicate_different_rejected(self):
        with pytest.raises(ConflictError):
            EquationSet([eq("A1", "1"), eq("A1", "2")])

    def test_conflict_names_both_formulas(self):
        with pytest.raises(ConflictError, match=r"^conflicting equations for B1: SUM\(A1\) vs A1\*2$"):
            parse_document("A1 = 1\nB1 = SUM(A1)\nB1 = A1*2")

    def test_canonical_order(self):
        s = EquationSet([eq("B1", "1"), eq("A2", "2"), eq("A1", "3")])
        assert [e.lhs for e in s] == [addr("A1"), addr("B1"), addr("A2")]

    def test_equations_is_a_fresh_list_in_canonical_order(self):
        s = EquationSet([eq("B1", "1"), eq("A1", "3")])
        first = s.equations()
        first.clear()
        assert [e.lhs for e in s.equations()] == [addr("A1"), addr("B1")]


class TestCallEquality:
    @pytest.mark.parametrize("other", ["MAX(A1)", "SUM(A1,A1)"])
    def test_function_name_and_arity_count(self, other):
        a = parse_document("A1 = 1\nB1 = SUM(A1)")
        b = parse_document(f"A1 = 1\nB1 = {other}")
        fa, fb = a.get(addr("B1")).rhs, b.get(addr("B1")).rhs
        assert not fa == fb and fa != fb
        assert len({fa, fb}) == 2
        assert hash(fa) == hash(parse_document("B1 = SUM(A1)").get(addr("B1")).rhs)
        assert not a == b and a != b
        assert a == parse_document("A1 = 1\nB1 = SUM(A1)")


class TestSubscripts:
    def test_subscript_the_reader_refuses_is_refused(self):
        # the reader takes at most 18 digits, so save never writes more
        ElemRef("x", (10**18 - 1, Here(-(10**18 - 1))))
        ArrayElem("x", (10**18 - 1, -(10**18 - 1)))
        for subs in ((10**18,), (1, Here(10**18)), (-(10**18),)):
            with pytest.raises(DomainError):
                ElemRef("x", subs)
        for subs in ((10**18,), (1, -(10**18)), ()):
            with pytest.raises(DomainError):
                ArrayElem("x", subs)

    def test_unknown_operator_is_refused(self):
        with pytest.raises(DomainError):
            Binary("?", Number(1.0), Number(2.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_refused(self, value):
        with pytest.raises(DomainError):
            Number(value)

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 10 ** 5000, "1", None],
                             ids=["10**400", "-10**400", "10**5000", "text", "None"])
    def test_number_of_no_finite_int_or_float_is_refused(self, value):
        with pytest.raises(DomainError):
            Number(value)

    def test_number_of_an_int_a_float_or_a_bool(self):
        assert [Number(v).value for v in (3, -2.5, True, 2 ** 1023)] == [3.0, -2.5, 1.0, 2.0 ** 1023]


def chain(n, last=1.0):
    """1+2+...+(n-1)+last, a flat chain of n terms."""
    f = Number(1.0)
    for i in range(2, n):
        f = Binary("+", f, Number(float(i)))
    return Binary("+", f, Number(last))


NODES = [
    Number(-0.0), Text("x"), Bool(False), Empty(), AbsRef(addr("Other!B2")), RelRef(-1, 2),
    ElemRef("x", (1, Here(-1))), NameRef("rate"), Neg(RelRef(0, 1)),
    Binary("*", Number(2.0), Call("SUM", (RangeArg(CellRange.columns(1, 2)), Number(1.0)))),
    ArrayElem("x", (1, 2)), Equation(addr("A1"), Binary("^", RelRef(0, -1), Number(2.0))),
]


class TestNodeIdentity:
    """A node is a tuple of its fields, but equals only a node of its own type."""

    @pytest.mark.parametrize("a, b", [
        (Text("x"), NameRef("x")),
        (AbsRef(addr("A1")), (addr("A1"),)),
        (Bool(True), Number(1.0)),
        (Number(0.0), Number(-0.0)),
        (ArrayElem("x", (1,)), ("x", (1,))),
    ])
    def test_equal_fields_of_another_type_differ(self, a, b):
        assert tuple(a) == tuple(b)
        assert not a == b and a != b
        assert not b == a and b != a
        assert len({a: 1, b: 2}) == 2

    def test_types_stay_apart_in_formula_groups(self):
        rhs = [Text("x"), NameRef("x"), Bool(True), Number(1.0), Number(0.0), Number(-0.0)]
        s = EquationSet([Equation(CellAddr("Sheet1", 1, row), f)
                         for row, f in enumerate(rhs * 2, 1)])
        groups = formula_groups(s)
        assert sorted(type(rel).__name__ for _, rel in groups) == \
            ["Bool", "NameRef", "Number", "Number", "Number", "Text"]
        assert all(len(eqs) == 2 for eqs in groups.values())

    def test_long_chain_compares_and_hashes(self):
        a, b, c = chain(3000), chain(3000), chain(3000, last=-1.0)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
        assert Equation(addr("A1"), a) == Equation(addr("A1"), b)
        assert Equation(addr("A1"), a) != Equation(addr("A1"), c)

    @pytest.mark.parametrize("a, b, equal", [
        (Number(0.0), Number(-0.0), False),
        (Number(-0.0), Number(-0.0), True),
        (Number(1.0), Number(1), True),
        (Number(1.0), Bool(True), False),
        (Text("x"), NameRef("x"), False),
        (Empty(), Empty(), True),
        (AbsRef(addr("A1")), AbsRef(addr("A1")), True),
        (RelRef(0, 1), RelRef(1, 0), False),
        (Neg(Number(0.0)), Neg(Number(-0.0)), False),
        (Binary("+", RelRef(0, 1), Number(0.0)), Binary("+", RelRef(0, 1), Number(0.0)), True),
        (Binary("+", RelRef(0, 1), Number(0.0)), Binary("+", RelRef(0, 1), Number(-0.0)), False),
        (Binary("+", Text("x"), Number(1.0)), Binary("-", Text("x"), Number(1.0)), False),
        (Call("SUM", (Neg(Number(0.0)), Text("x"))), Call("SUM", (Neg(Number(0.0)), Text("x"))), True),
        (Call("SUM", (Neg(Number(0.0)), Text("x"))), Call("SUM", (Neg(Number(-0.0)), Text("x"))), False),
        (Call("SUM", (Text("x"),)), Call("SUM", (NameRef("x"),)), False),
        (chain(500), chain(500), True),
        (chain(500), chain(500, last=-1.0), False),
        (Equation(addr("A1"), Number(0.0)), Equation(addr("A1"), Number(-0.0)), False),
        (ArrayElem("x", (1,)), ArrayElem("x", (1,)), True),
    ])
    def test_not_equal_is_the_negation_of_equal(self, a, b, equal):
        assert (a == b) is equal and (b == a) is equal
        assert (a != b) is not equal and (b != a) is not equal

    @pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
    def test_copies_keep_type_and_equality(self, node):
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
            assert type(twin) is type(node)
            assert twin == node and not twin != node
            assert hash(twin) == hash(node)


class TestMapLeaves:
    TREE = Binary("+", Neg(Call("SUM", (AbsRef(addr("A1")), Call("PI", ())))),
                  Binary("*", RelRef(0, -1), Number(2.0)))

    def test_fn_sees_only_nodes_without_children(self):
        seen = []
        map_leaves(self.TREE, lambda node: seen.append(node) or node)
        assert seen == [AbsRef(addr("A1")), Call("PI", ()), RelRef(0, -1), Number(2.0)]

    def test_no_change_gives_the_same_object(self):
        assert map_leaves(self.TREE, lambda node: node) is self.TREE

    def test_only_the_ancestors_of_a_changed_leaf_are_new(self):
        new = map_leaves(self.TREE, lambda node: Number(3.0) if node == Number(2.0) else node)
        assert new == Binary("+", self.TREE.left, Binary("*", RelRef(0, -1), Number(3.0)))
        assert new is not self.TREE and new.right is not self.TREE.right
        assert new.left is self.TREE.left and new.right.left is self.TREE.right.left


class TestRect:
    def test_empty_rectangle_rejected(self):
        with pytest.raises(DomainError):
            Rect("Sheet1", 3, 2, 1, 1)

    def test_unbounded_sides_match_everything(self):
        r = Rect("Sheet1", 2, 2, None, None)
        assert r.contains(addr("B999999"))
        assert not r.contains(addr("C1"))
