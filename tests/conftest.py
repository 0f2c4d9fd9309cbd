import random

import pytest

from sheetalgebra import (
    AbsRef,
    ArrayElem,
    Binary,
    CellAddr,
    Equation,
    EquationSet,
    Number,
    RelRef,
    addr,
    evaluate,
    parse_document,
    parse_formula,
)

ACCOUNTS_TEXT = """
A2 = 2000
A3 = 2001
B2 = 1492
B3 = 1560
C2 = 971
C3 = 1803
D2 = C2-B2
D3 = C3-B3
"""

LABELS_TEXT = """
A1 = "Year"
B1 = "Expenses"
C1 = "Sales"
D1 = "Profit"
"""

TAX_TEXT = """
E2 = D2*0.33
E3 = D3*0.33
"""

ACCOUNTS_S_TEXT = """
Year[2000] = 2000
Year[2001] = 2001
Expenses[2000] = 1492
Expenses[2001] = 1560
Sales[2000] = 971
Sales[2001] = 1803
Profit[2000] = Sales[2000]-Expenses[2000]
Profit[2001] = Sales[2001]-Expenses[2001]
layout Year[2000:2001] as A2 down
layout Expenses[2000:2001] as B2 down
layout Sales[2000:2001] as C2 down
layout Profit[2000:2001] as D2 down
"""


@pytest.fixture
def accounts():
    return parse_document(ACCOUNTS_TEXT)


@pytest.fixture
def labels():
    return parse_document(LABELS_TEXT)


@pytest.fixture
def tax():
    return parse_document(TAX_TEXT)


@pytest.fixture
def accounts_s():
    return parse_document(ACCOUNTS_S_TEXT)


def eq(lhs_text, rhs_text, dialect="a1"):
    if "[" in lhs_text:
        name, subs = lhs_text.split("[", 1)
        subs = tuple(int(x) for x in subs.rstrip("]").split(","))
        lhs = ArrayElem(name, subs)
    else:
        lhs = addr(lhs_text)
    return Equation(lhs, parse_formula(rhs_text, dialect))


def make_set(*pairs, names=None, layouts=()):
    return EquationSet([eq(*p) for p in pairs], names, layouts)


def typed_values(s: EquationSet) -> dict:
    """The values of s, each with its type: True == 1.0, so a truth value
    turned into a number would pass a comparison of the values alone."""
    return {a: (type(v), v) for a, v in evaluate(s).items()}


# ---------------------------------------------------------------------------
# Random generators for property and acceptance tests


def rand_formula(rng: random.Random, depth=3, max_col=12, max_row=12,
                 allow_rel=False):
    """Random formula over numbers, cell references and arithmetic."""
    if depth <= 0 or rng.random() < 0.35:
        kind = rng.randrange(3 if allow_rel else 2)
        if kind == 0:
            return Number(float(rng.randint(-50, 50)))
        if kind == 1:
            return AbsRef(CellAddr("Sheet1", rng.randint(1, max_col),
                                   rng.randint(1, max_row)))
        return RelRef(rng.randint(-3, 3), rng.randint(-3, 3))
    op = rng.choice(["+", "-", "*", "+", "-"])
    return Binary(op,
                  rand_formula(rng, depth - 1, max_col, max_row, allow_rel),
                  rand_formula(rng, depth - 1, max_col, max_row, allow_rel))


def rand_acyclic_formula(rng: random.Random, cell: CellAddr, depth=2):
    """Formula for `cell` referencing only strictly higher rows, so any set
    built this way is acyclic and fully evaluable."""
    if depth <= 0 or cell.row == 1 or rng.random() < 0.4:
        if cell.row > 1 and rng.random() < 0.5:
            return AbsRef(CellAddr(cell.sheet, rng.randint(1, 8),
                                   rng.randint(1, cell.row - 1)))
        return Number(float(rng.randint(-20, 20)))
    op = rng.choice(["+", "-", "*"])
    return Binary(op, rand_acyclic_formula(rng, cell, depth - 1),
                  rand_acyclic_formula(rng, cell, depth - 1))


def rand_cell_set(rng: random.Random, max_cells=8, evaluable=True) -> EquationSet:
    n = rng.randint(1, max_cells)
    cells = set()
    while len(cells) < n:
        cells.add(CellAddr("Sheet1", rng.randint(1, 8), rng.randint(1, 8)))
    out = []
    for cell in sorted(cells):
        if evaluable:
            rhs = rand_acyclic_formula(rng, cell)
        else:
            rhs = rand_formula(rng)
        out.append(Equation(cell, rhs))
    return EquationSet(out)


def rand_layout_spec(rng: random.Random):
    """Random named-array spec plus directives whose footprints cover every
    cell the compiled sheet mentions.  Returns (spec, layouts)."""
    from sheetalgebra import ElemRef
    from sheetalgebra.layout import DOWN, RIGHT, LayoutDirective, LayoutSet

    arrays = []
    for i, name in enumerate(["a", "b", "c", "d"][: rng.randint(1, 4)]):
        lo = rng.randint(1, 3)
        hi = lo + rng.randint(1, 3)
        orient = rng.choice([DOWN, RIGHT])
        # down arrays in their own column, right arrays in their own row,
        # far enough apart that footprints can never collide
        if orient == DOWN:
            anchor = CellAddr("Sheet1", 2 * i + 1, 20)
        else:
            anchor = CellAddr("Sheet1", 20, 2 * i + 1)
        arrays.append((name, lo, hi, anchor, orient))

    layouts = LayoutSet(
        [LayoutDirective(name, ((lo, hi),), anchor, orient)
         for name, lo, hi, anchor, orient in arrays])

    eqs = []
    for name, lo, hi, _, _ in arrays:
        for k in range(lo, hi + 1):
            if rng.random() < 0.5 or len(arrays) == 1:
                rhs = Number(float(rng.randint(0, 99)))
            else:
                other, olo, ohi, _, _ = rng.choice(arrays)
                rhs = Binary("+", ElemRef(other, (rng.randint(olo, ohi),)),
                             Number(float(rng.randint(0, 9))))
            eqs.append(Equation(ArrayElem(name, (k,)), rhs))
    return EquationSet(eqs), layouts


def rand_array_set(rng: random.Random, max_eqs=6) -> EquationSet:
    names = ["a", "b", "c"]
    lhs_pool = set()
    n = rng.randint(1, max_eqs)
    while len(lhs_pool) < n:
        lhs_pool.add(ArrayElem(rng.choice(names), (rng.randint(1, 4),)))
    lhs_list = sorted(lhs_pool)

    def rhs(lhs):
        if rng.random() < 0.5:
            return Number(float(rng.randint(0, 9)))
        other = rng.choice(lhs_list)
        from sheetalgebra import ElemRef

        return Binary("+", ElemRef(other.name, other.subs),
                      Number(float(rng.randint(0, 9))))

    return EquationSet([Equation(lhs, rhs(lhs)) for lhs in lhs_list])
