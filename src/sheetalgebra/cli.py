"""Command-line entry point.

Exit codes: 0 success, 1 script/data error (and for `diff`, differences
found), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import DiffReport
from .errors import SheetError
from .model import EquationSet
from .script import Interpreter, format_script_value, repl, run_script_file

# each file command's builtin
_BUILTINS = {"show": "show", "eval": "evaluate", "diff": "diff",
             "stylecheck": "stylecheck", "discover": "propose_layout"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetalg",
        description="Equation-set algebra for spreadsheets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a script and print its final value")
    p.add_argument("script")

    sub.add_parser("repl", help="interactive prompt")

    p = sub.add_parser("show", help="list a sheet's equations")
    p.add_argument("file")
    p.add_argument("--grouped", action="store_true",
                   help="merge cells sharing a relative formula into regions")

    p = sub.add_parser("eval", help="evaluate a sheet")
    p.add_argument("file")
    p.add_argument("--csv", metavar="OUT", help="write the value grid as CSV")

    p = sub.add_parser("diff", help="compare two sheets (exit 1 on differences)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("stylecheck",
                       help="report formulas copied more than once per sheet")
    p.add_argument("file")

    p = sub.add_parser("discover",
                       help="propose layouts and print the decompiled equations")
    p.add_argument("file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SheetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    """A file command loads its files, makes one builtin call and prints
    the value: `eval --csv` writes its grid to the file instead, and
    `discover` prints its proposal and then the set decompiled by it."""
    if args.command == "repl":
        repl()
        return 0
    interp = Interpreter(out=sys.stdout)
    if args.command == "run":
        value = run_script_file(args.script)
    else:
        files = (args.a, args.b) if args.command == "diff" else (args.file,)
        sets = [interp.call("load", [path]) for path in files]
        extra = [args.grouped] if args.command == "show" else []
        value = interp.call(_BUILTINS[args.command], sets + extra)
    if args.command == "eval" and args.csv:
        interp.call("export_csv", [value, args.csv])
        return 0
    text = format_script_value(value)
    if text:
        print(text)
    if args.command == "discover":
        d = interp.call("decompile", [sets[0], value])
        interp.call("show", [EquationSet(d, d.names)])  # its layouts are printed above
    return 1 if isinstance(value, DiffReport) and not value.empty else 0


if __name__ == "__main__":
    sys.exit(main())
