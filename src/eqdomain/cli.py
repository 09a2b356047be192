"""Command-line interface: check tables, enumerate semigroups, verify the theorem.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 invalid input
(bad table, parse error, bad flags), 3 internal inconsistency (a failed
witness, an unverified identity, an exceeded closure budget, an
unexpected error while checking a table, or a worker process that died).
The commands raise their errors, and :func:`main` alone maps them to exit
codes.

This module holds the parser, :func:`main`, :func:`entry` and
``enumerate``; the other commands are in :mod:`eqdomain.commands`, which
``main`` imports only to run one of them, so that an ``enumerate`` start
compiles none of their code.

A report's JSON line is spliced from pieces that are each encoded once:
the text around the table, once per report ``shape`` (the key the report
was built from, which fixes everything in it but its table), and each
table row.  The line is byte for byte the encoding of the report's
record.  ``enumerate``'s JSON lines use the same rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial
from itertools import islice

from .enumeration import SOFT_ORDER_LIMIT, CorpusError, CorpusWarning, enumerate_tables, format_table
# Semigroup is bound here for perfbench/tracer.py, which wraps cli.Semigroup
from .semigroups import DEFAULT_BUDGET, BudgetExceeded, Semigroup, TableError  # noqa: F401

EXIT_OK = 0
EXIT_PIPE_CLOSED = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

_CLI_MODES = {"raw": "raw", "iso": "up_to_iso", "iso-anti": "up_to_iso_and_anti"}

# enumerate writes its tables in blocks of at most this many, one write call
# each, instead of a print per table
WRITE_BLOCK = 512

# The names that check and verify-theorem take from witnesses, and those
# that closure takes from terms and geometry (term-functions takes only
# term_functions).  Each command binds only its own, so that enumerate
# loads none of those modules, check and verify-theorem load neither the
# clone engine nor numpy, and term-functions does not load geometry.
_THEOREM_NAMES = ("WitnessNotFound", "check_semigroup")
_CLONE_NAMES = (
    "parse_equations", "term_functions", "PointSet", "algebraic_closure", "solution_set",
    "union_target_m3", "union_target_m4",
)


def _bind_checking(names):
    """Bind ``names`` in this module from the package, which loads the
    modules that declare them.

    A name already bound is kept, so a name rebound from outside (as
    perfbench/tracer.py rebinds ``check_semigroup``) stays rebound.  The
    commands call this before any worker forks, so the workers inherit the
    modules instead of compiling them again.
    """
    bound, package = globals(), sys.modules[__package__]
    for name in names:
        bound.setdefault(name, getattr(package, name))


def __getattr__(name):
    # ``cli.check_semigroup`` and the like, read from outside before bound
    if name in _THEOREM_NAMES + _CLONE_NAMES:
        _bind_checking((name,))
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_order(flag: str, order: int, allow_large: bool):
    if order > SOFT_ORDER_LIMIT and not allow_large:
        raise ValueError(
            f"{flag} {order} exceeds the soft limit {SOFT_ORDER_LIMIT}; "
            "pass --allow-large to proceed"
        )


# one encoder for every line: json.dumps with options builds a new one per call
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(obj) -> str:
    return _LINE_ENCODER.encode(obj)


def _json_doc(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


class _RowText(dict):
    """Each table row's JSON text, encoded on its first use."""

    def __missing__(self, row):
        text = self[row] = _LINE_ENCODER.encode(row)
        return text


# at most n^n rows per order: 3,045 among the order-5 tables
_ROW_TEXT = _RowText()


def _halves(record: dict) -> tuple[str, str]:
    """The JSON line of ``record``, whose ``table`` is None, cut where the
    rows of a table go."""
    halves = _json_line(record).split('"table":null')
    assert len(halves) == 2, halves
    return halves[0] + '"table":[', "]" + halves[1]


def _rows_text(table) -> str:
    return ",".join(map(_ROW_TEXT.__getitem__, table))


# --- enumerate ---------------------------------------------------------------


def cmd_enumerate(ns) -> int:
    _check_order("--order", ns.order, ns.allow_large)
    tables = enumerate_tables(ns.order, _CLI_MODES[ns.mode], allow_large=ns.allow_large)
    if ns.format == "json":
        head, tail = _halves({"order": ns.order, "table": None})
        texts = (head + _rows_text(S.table) + tail + "\n" for S in tables)
    else:
        # tables are separated by a blank line
        texts = (("\n\n" if i else "") + format_table(S) for i, S in enumerate(tables))
    count = 0
    while block := list(islice(texts, WRITE_BLOCK)):
        sys.stdout.write("".join(block))
        count += len(block)
    if ns.format == "text":
        print()
        print(f"\n# {count} tables of order {ns.order} ({ns.mode})", file=sys.stderr)
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdomain",
        description=(
            "Algebraic geometry over finite semigroups: check single tables, "
            "enumerate all tables of a small order, and verify that no "
            "nontrivial semigroup admits an algebraic union of two diagonals."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format (default json)"
    )
    # the other options, each a parent of only the commands that read it
    budget, strict, large = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    budget.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"cap on the size of the computed clone (default {DEFAULT_BUDGET})",
    )
    strict.add_argument("--strict", action="store_true", help="fail on any invalid corpus table")
    large.add_argument("--allow-large", action="store_true", help="lift the soft order/arity limits")
    one_table = [common, budget, strict, large]  # the parents of closure and term-functions

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check", parents=[common, budget, strict], help="verify one table (or a corpus) end to end"
    )
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser(
        "verify-theorem", parents=[common, budget, large], help="check every semigroup up to a maximum order"
    )
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("enumerate", parents=[common, large], help="stream all tables of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")

    p = sub.add_parser("closure", parents=one_table, help="algebraic closure of a point set over one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument(
        "--set",
        required=True,
        help="m3, m4, or @file with a JSON point set or an equations file",
    )
    p.add_argument("--arity", type=int, default=None)

    p = sub.add_parser("term-functions", parents=one_table, help="count the term functions of one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--arity", type=int, required=True)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if getattr(ns, "budget", 1) < 1:
            raise ValueError("--budget must be >= 1")
        if getattr(ns, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        if ns.command == "enumerate":
            return cmd_enumerate(ns)
        from . import commands  # the package resolves it as a module, searching no other

        return getattr(commands, "cmd_" + ns.command.replace("-", "_"))(ns)
    except BrokenPipeError:
        raise  # for entry: the reader closed stdout, exit 1
    except (ChildProcessError, BudgetExceeded) as e:  # pool.WorkerLost is a ChildProcessError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (OSError, CorpusError, TableError, ValueError) as e:  # TermSyntaxError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def _format_warning(format_other, message, category, *where):
    # a bad corpus table is named by its line, not by the library line that warned
    if issubclass(category, CorpusWarning):
        return f"warning: {message}\n"
    return format_other(message, category, *where)


def entry():
    """The console script and ``python -m eqdomain``: :func:`main`, then an
    exit without the interpreter's teardown.

    Once the output is flushed nothing is left to do: ``main`` has joined
    every worker it started, so the ``atexit`` handlers, the finalizers
    and the freeing of every module's objects would only delay the exit.
    An uncaught exception still exits the normal way, with its traceback.
    """
    warnings.formatwarning = partial(_format_warning, warnings.formatwarning)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (say, `| head`); what is still
        # buffered is dropped, since os._exit flushes nothing
        code = EXIT_PIPE_CLOSED
    try:
        sys.stderr.flush()
    except (OSError, ValueError):  # stderr closed too
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
