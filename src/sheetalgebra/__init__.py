"""Spreadsheets as sets of equations: composition operators, a
compiler/decompiler between named-array specifications and cell layouts,
structure discovery, an evaluator, and a scripting language."""

from .algebra import (
    ABSOLUTE,
    RAW,
    RELATIVE,
    SUBSTITUTED,
    DiffReport,
    StyleViolation,
    diff,
    extract,
    lookup,
    map_range,
    quotient,
    replace,
    replicate,
    shift,
    simplify,
    simplify_formula,
    stylecheck_unique,
    union,
)
from .discover import (
    FormulaGroup,
    LayoutProposal,
    discover_blocks,
    discover_groups,
    infer_labels,
    infer_subscripts,
    propose_layout,
)
from .errors import SheetError
from .evaluator import CellError, build_deps, evaluate, evaluate_cell
from .fileio import export_csv, load, parse_document, save
from .formula import (
    A1,
    CANONICAL,
    R1C1,
    canonical_text,
    parse_formula,
    print_formula,
    substitute_names,
    to_absolute,
)
from .layout import (
    LayoutDirective,
    LayoutSet,
    compile_set,
    decompile_set,
    elem_to_cell,
)
from .listing import parse_listing, show
from .model import (
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
    Formula,
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
)
from .script import Interpreter, eval_script, parse_script, repl

# the submodule grammar is loaded by the imports above but is not exported
__all__ = [name for name in dir() if not name.startswith("_") and name != "grammar"]
__version__ = "0.1.0"
