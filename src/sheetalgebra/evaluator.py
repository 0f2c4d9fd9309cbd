"""A simple spreadsheet engine: dependency analysis, cycle detection, and
numeric evaluation of cell equation sets.

Values are plain Python objects: float, str, bool, None (empty), or
CellError.  Errors propagate through arithmetic; a result past the float
range is CellError("NUM"); cells on a dependency cycle evaluate to
CellError("CYCLE") while off-cycle cells still evaluate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .errors import DomainError
from .formula import substitute_names, to_absolute
from .model import (
    MAX_COL,
    MAX_ROW,
    AbsRef,
    Binary,
    Bool,
    Call,
    CellAddr,
    ElemRef,
    Empty,
    EquationSet,
    Formula,
    NameRef,
    Neg,
    Number,
    RangeArg,
    RelRef,
    Text,
    walk,
)

DIV0, CYCLE, VALUE, REF, NUM = "DIV0", "CYCLE", "VALUE", "REF", "NUM"
_col = attrgetter("col")


@dataclass(frozen=True)
class CellError:
    tag: str

    def __str__(self):
        return f"#{self.tag}!"


class _Graph:
    """A sheet as an evaluation graph, built once per call.  Each formula is
    resolved once (relative references made absolute, names substituted),
    each distinct range is read once as the defined cells it holds, and each
    cell's precedents are listed once.  All three happen on first use, so a
    walk from one cell touches only the cells it depends on."""

    def __init__(self, s: EquationSet):
        self.rhs = {}
        self.formulas = {}
        self.ranges = {}
        self.deps = {}
        self.names = s.names
        # sheet -> (sorted rows, row -> its cells sorted by column); the
        # canonical order of s is by sheet, row and column, so appending in
        # that order keeps both sorted
        self.index = {}
        for eq in s:
            a = eq.lhs
            if not isinstance(a, CellAddr):
                raise DomainError("evaluation expects cell left-hand sides")
            self.rhs[a] = eq.rhs
            rows, by_row = self.index.setdefault(a.sheet, ([], {}))
            if a.row not in by_row:
                rows.append(a.row)
                by_row[a.row] = []
            by_row[a.row].append(a)

    def formula(self, a: CellAddr) -> Formula:
        f = self.formulas.get(a)
        if f is None:
            f = self.formulas[a] = substitute_names(to_absolute(self.rhs[a], a), self.names)
        return f

    def range_cells(self, rng) -> list:
        """The defined cells of a range, rectangle by rectangle and row-major
        within each, each cell once."""
        cells = self.ranges.get(rng)
        if cells is None:
            cells = []
            for rect in rng.rects:
                rows, by_row = self.index.get(rect.sheet, ((), {}))
                lo = bisect_left(rows, rect.row_lo or 1)
                hi = bisect_right(rows, rect.row_hi or MAX_ROW)
                for r in rows[lo:hi]:
                    line = by_row[r]
                    c_lo = bisect_left(line, rect.col_lo or 1, key=_col)
                    c_hi = bisect_right(line, rect.col_hi or MAX_COL, key=_col)
                    cells.extend(line[c_lo:c_hi])
            cells = self.ranges[rng] = list(dict.fromkeys(cells))
        return cells

    def precedents(self, a: CellAddr) -> list:
        """Every cell a's formula references, and the defined cells of its
        ranges."""
        refs = self.deps.get(a)
        if refs is None:
            refs = self.deps[a] = []
            for node in walk(self.formula(a)):
                if isinstance(node, AbsRef):
                    refs.append(node.addr)
                elif isinstance(node, RangeArg):
                    refs.extend(self.range_cells(node.range))
        return refs

    def components(self, roots):
        """Strongly connected components of the defined cells reachable from
        roots, by iterative Tarjan.  Each comes after every component it
        reads, so this is also an evaluation order."""
        index, low = {}, {}
        stack, on_stack = [], set()
        for root in roots:
            if root in index or root not in self.rhs:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(self.precedents(root)))]
            while work:
                node, it = work[-1]
                for child in it:
                    if child not in self.rhs:
                        continue
                    if child not in index:
                        index[child] = low[child] = len(index)
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self.precedents(child))))
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        comp = [stack.pop()]
                        while comp[-1] != node:
                            comp.append(stack.pop())
                        on_stack.difference_update(comp)
                        yield comp

    def evaluate(self, roots) -> dict:
        """Values of the cells reachable from roots.  Cells on a cycle are
        #CYCLE!; the others are computed after their precedents."""
        grid = {}
        for comp in self.components(roots):
            a = comp[0]
            if len(comp) > 1 or a in self.precedents(a):
                for b in comp:
                    grid[b] = CellError(CYCLE)
            else:
                grid[a] = _eval_formula(self.formula(a), self, grid)
        return grid


def build_deps(s: EquationSet) -> dict:
    """Dependency graph: cell -> set of cells its formula references,
    including the defined cells inside range arguments."""
    g = _Graph(s)
    return {a: set(g.precedents(a)) for a in g.rhs}


def _to_number(v):
    if isinstance(v, CellError):
        return v
    if v is None:
        return 0.0
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    return CellError(VALUE)


def _arith(op: str, lv, rv):
    a, b = _to_number(lv), _to_number(rv)
    if isinstance(a, CellError):
        return a
    if isinstance(b, CellError):
        return b
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return CellError(DIV0)
            return a / b
        v = a ** b
        if isinstance(v, complex):
            return CellError(VALUE)
        return float(v)
    except ZeroDivisionError:
        return CellError(DIV0)
    except OverflowError:
        return CellError(NUM)
    except ValueError:
        return CellError(VALUE)


def _finite(v):
    """An arithmetic result past the float range is #NUM!, never inf."""
    if isinstance(v, float) and not math.isfinite(v):
        return CellError(NUM)
    return v


def _compare(op: str, lv, rv):
    for v in (lv, rv):
        if isinstance(v, CellError):
            return v
    lv = 0.0 if lv is None else lv
    rv = 0.0 if rv is None else rv
    if op == "=":
        return lv == rv
    if op == "<>":
        return lv != rv
    if type(lv) is not type(rv):
        return CellError(VALUE)
    try:
        if op == "<":
            return lv < rv
        if op == "<=":
            return lv <= rv
        if op == ">":
            return lv > rv
        return lv >= rv
    except TypeError:
        return CellError(VALUE)


def _numeric_args(values, skip_empty=True):
    nums = []
    for v in values:
        if isinstance(v, CellError):
            return v
        if v is None and skip_empty:
            continue
        n = _to_number(v)
        if isinstance(n, CellError):
            return n
        nums.append(n)
    return nums


def _call(func, values):
    if func == "SUM":
        nums = _numeric_args(values)
        return nums if isinstance(nums, CellError) else float(sum(nums))
    if func in ("MIN", "MAX"):
        nums = _numeric_args(values)
        if isinstance(nums, CellError):
            return nums
        if not nums:
            return 0.0
        return float(min(nums) if func == "MIN" else max(nums))
    if func in ("ABS", "SQRT", "EXP", "LN", "NOT"):
        if len(values) != 1:
            return CellError(VALUE)
        v = values[0]
        if isinstance(v, CellError):
            return v
        if func == "NOT":
            return not _truthy(v)
        n = _to_number(v)
        if isinstance(n, CellError):
            return n
        try:
            if func == "ABS":
                return abs(n)
            if func == "SQRT":
                return math.sqrt(n)
            if func == "EXP":
                return math.exp(n)
            return math.log(n)
        except OverflowError:
            return CellError(NUM)
        except ValueError:
            return CellError(VALUE)
    if func == "MOD":
        if len(values) != 2:
            return CellError(VALUE)
        a, b = (_to_number(v) for v in values)
        for v in (a, b):
            if isinstance(v, CellError):
                return v
        if b == 0:
            return CellError(DIV0)
        try:
            return a - b * math.floor(a / b)
        except OverflowError:
            return CellError(NUM)
    if func == "IF":
        if len(values) not in (2, 3):
            return CellError(VALUE)
        cond = values[0]
        if isinstance(cond, CellError):
            return cond
        if _truthy(cond):
            return values[1]
        return values[2] if len(values) == 3 else False
    if func in ("AND", "OR"):
        bools = []
        for v in values:
            if isinstance(v, CellError):
                return v
            bools.append(_truthy(v))
        return all(bools) if func == "AND" else any(bools)
    return CellError(VALUE)


def _truthy(v):
    if isinstance(v, bool):
        return v
    if v is None:
        return False
    if isinstance(v, float):
        return v != 0
    return bool(v)


def _eval_formula(f: Formula, g: _Graph, grid: dict):
    if isinstance(f, Number):
        return f.value
    if isinstance(f, Text):
        return f.value
    if isinstance(f, Bool):
        return f.value
    if isinstance(f, Empty):
        return None
    if isinstance(f, AbsRef):
        v = grid.get(f.addr)
        # a reference to an empty cell reads as 0, as in a spreadsheet
        return 0.0 if v is None else v
    if isinstance(f, (RelRef, ElemRef)):
        return CellError(REF)
    if isinstance(f, NameRef):
        return CellError(REF)
    if isinstance(f, Neg):
        v = _to_number(_eval_formula(f.operand, g, grid))
        return v if isinstance(v, CellError) else -v
    if isinstance(f, Binary):
        lv = _eval_formula(f.left, g, grid)
        rv = _eval_formula(f.right, g, grid)
        if f.op in ("+", "-", "*", "/", "^"):
            return _finite(_arith(f.op, lv, rv))
        return _compare(f.op, lv, rv)
    if isinstance(f, Call):
        values = []
        for arg in f.args:
            if isinstance(arg, RangeArg):
                values.extend(grid[a] for a in g.range_cells(arg.range))
            else:
                values.append(_eval_formula(arg, g, grid))
        return _finite(_call(f.func, values))
    if isinstance(f, RangeArg):
        return CellError(VALUE)
    raise DomainError(f"cannot evaluate node {f!r}")


def evaluate(s: EquationSet) -> dict:
    """Evaluate every cell in dependency order.  Returns a grid mapping each
    defined cell to its value."""
    g = _Graph(s)
    return g.evaluate(g.rhs)


def evaluate_cell(s: EquationSet, a: CellAddr):
    """The value of one cell, evaluating only the cells it depends on; None
    when a is not defined."""
    return _Graph(s).evaluate([a]).get(a)
