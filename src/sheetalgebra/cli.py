"""Command-line entry point.

Exit codes: 0 success, 1 script/data error (and for `diff`, differences
found), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SheetError
from .listing import show
from .script import (
    Interpreter,
    diff_report_text,
    format_script_value,
    grid_text,
    proposal_text,
    repl,
    run_script_file,
    violations_text,
)


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
    if args.command == "run":
        value = run_script_file(args.script)
        text = format_script_value(value)
        if text:
            print(text)
        return 0
    if args.command == "repl":
        repl()
        return 0

    interp = Interpreter(out=sys.stdout)

    def call(name, *call_args):
        return interp.call(name, list(call_args))

    if args.command == "show":
        call("show", call("load", args.file), args.grouped)
        return 0
    if args.command == "eval":
        grid = call("evaluate", call("load", args.file))
        if args.csv:
            call("export_csv", grid, args.csv)
        else:
            print(grid_text(grid))
        return 0
    if args.command == "diff":
        report = call("diff", call("load", args.a), call("load", args.b))
        print(diff_report_text(report))
        return 0 if report.empty else 1
    if args.command == "stylecheck":
        print(violations_text(call("stylecheck", call("load", args.file))))
        return 0
    if args.command == "discover":
        s = call("load", args.file)
        proposal = call("propose_layout", s)
        print(proposal_text(proposal))
        body = "\n".join(
            line for line in show(call("decompile", s, proposal)).splitlines()
            if not line.startswith("layout "))
        if body:
            print(body)
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
