"""Command-line interface: check tables, enumerate semigroups, verify the theorem.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 invalid input
(bad table, parse error, bad flags), 3 internal inconsistency (a failed
witness, an unverified identity, an exceeded closure budget, or an
unexpected error while checking a table).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from itertools import chain, islice
from pathlib import Path

from .enumeration import (
    SOFT_ORDER_LIMIT,
    CorpusError,
    enumerate_tables,
    format_table,
    read_corpus,
)
from .geometry import PointSet, algebraic_closure, solution_set, union_target_m3, union_target_m4
from .semigroups import Semigroup, TableError
from .terms import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    TermSyntaxError,
    parse_equations,
    term_functions,
)
from .witnesses import WitnessNotFound, check_semigroup

EXIT_OK = 0
EXIT_PIPE_CLOSED = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

BUDGET_ENV_VAR = "EQDOMAIN_BUDGET"
DEFAULT_ARITY_LIMIT = 4

_CLI_MODES = {"raw": "raw", "iso": "up_to_iso", "iso-anti": "up_to_iso_and_anti"}

# tables per worker task in verify-theorem: 3,613 // 16 at order 4
THEOREM_CHUNK = 225

_trusted = Semigroup._trusted  # bound at import, as in enumeration


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR}={raw!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be >= 1")
    return value


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_doc(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# --- check -----------------------------------------------------------------


def _check_table(args):
    """The result record of one table.

    An unexpected exception becomes an ``error`` record that names it and
    the line that raised it, so one failing table does not end the run.
    """
    # rows come from read_corpus or enumerate_tables, both already validated
    rows, budget = args
    try:
        report = check_semigroup(_trusted(rows), budget=budget)
        return {"status": "ok", "report": report.to_jsonable()}
    except BudgetExceeded as e:
        detail = {"status": "budget_exceeded", "size": e.size}
    except WitnessNotFound as e:
        detail = {"status": "inconsistent", "error": str(e)}
    except Exception as e:
        import traceback

        where = traceback.extract_tb(e.__traceback__)[-1]
        place = f"{Path(where.filename).name}:{where.lineno} in {where.name}"
        detail = {"status": "error", "error": f"{type(e).__name__}: {e} ({place})"}
    return {"order": len(rows), "table": [list(r) for r in rows], **detail}


def _check_tables(args):
    return [_check_table(a) for a in args]


def _map_tables(tables, budget: int, jobs: int, chunk: int):
    """The result of each table, in table order, yielded as it arrives.

    ``tables`` may be any iterable, read as the results are wanted.  Under
    ``jobs`` workers the tables go out in chunks of ``chunk``, in order,
    and at most ``jobs + 1`` chunks are out at once: a reader slower than
    the workers holds them back instead of letting results pile up.
    """
    args = ((rows, budget) for rows in tables)
    if jobs <= 1:
        yield from map(_check_table, args)
        return
    from multiprocessing import Pool

    with Pool(jobs) as pool:
        pending = deque()
        while block := list(islice(args, chunk)):
            pending.append(pool.apply_async(_check_tables, (block,)))
            if len(pending) > jobs:
                yield from pending.popleft().get()
        while pending:
            yield from pending.popleft().get()


def _render_report_text(report: dict) -> str:
    lines = [f"order {report['order']}  table {report['table']}"]
    lines.append(f"  classification: {report['classification']}")
    if report["lemma"] is not None:
        lines.append(f"  case: {report['lemma']}  target: {report['target']}")
        elems = " ".join(f"{k}={v}" for k, v in report["elements"].items())
        lines.append(f"  elements: {elems}")
        for ident in report["verified_identities"]:
            mark = "ok " if ident["holds"] else "FAIL"
            lines.append(f"  [{mark}] {ident['name']}")
        lines.append(f"  probes inside {report['target']}: {report['probe_points']['inside']}")
        lines.append(f"  probes outside {report['target']}: {report['probe_points']['outside']}")
        lines.append(f"  separating point: {report['separating_point']}")
    verdict = "yes" if report["is_equational_domain"] else "no"
    lines.append(f"  equational domain: {verdict}")
    return "\n".join(lines)


def _render_result_text(result: dict) -> str:
    if result["status"] == "ok":
        return _render_report_text(result["report"])
    if result["status"] == "budget_exceeded":
        return (
            f"order {result['order']}  table {result['table']}\n"
            f"  closure budget exceeded at size {result['size']}"
        )
    return f"order {result['order']}  table {result['table']}\n  {result['status'].upper()}: {result['error']}"


def cmd_check(ns) -> int:
    try:
        semigroups = list(read_corpus(ns.file, strict=ns.strict))
    except (OSError, CorpusError, TableError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if not semigroups:
        print("error: no tables found in input", file=sys.stderr)
        return EXIT_INVALID
    jobs = min(ns.jobs, len(semigroups))
    chunk = max(1, len(semigroups) // (jobs * 8))
    results = list(_map_tables([S.table for S in semigroups], ns.budget, jobs, chunk))
    if ns.format == "json":
        if len(results) == 1 and results[0]["status"] == "ok":
            print(_json_doc(results[0]["report"]))
        elif len(results) == 1:
            print(_json_doc(results[0]))
        else:
            for result in results:
                print(_json_line(result["report"] if result["status"] == "ok" else result))
    else:
        print("\n".join(_render_result_text(r) for r in results))
    if any(r["status"] != "ok" for r in results):
        return EXIT_INCONSISTENT
    return EXIT_OK


# --- verify-theorem ---------------------------------------------------------


def cmd_verify_theorem(ns) -> int:
    if not 1 <= ns.max_order:
        print("error: --max-order must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    if ns.max_order > SOFT_ORDER_LIMIT and not ns.allow_large:
        print(
            f"error: --max-order {ns.max_order} exceeds the soft limit "
            f"{SOFT_ORDER_LIMIT}; pass --allow-large to proceed",
            file=sys.stderr,
        )
        return EXIT_INVALID
    mode = _CLI_MODES[ns.mode]
    tables = chain.from_iterable(
        enumerate_tables(order, mode, allow_large=ns.allow_large)
        for order in range(2, ns.max_order + 1)
    )
    per_order: dict[int, dict] = {}
    failures = checked = 0
    for result in _map_tables((S.table for S in tables), ns.budget, ns.jobs, THEOREM_CHUNK):
        record = result["report"] if result["status"] == "ok" else result
        if ns.format == "json":
            print(_json_line(record))
        checked += 1
        stats = per_order.setdefault(
            record["order"],
            {"tables": 0, "by_lemma": {}, "equational_domains": 0, "budget_exceeded": 0, "inconsistent": 0},
        )
        stats["tables"] += 1
        if result["status"] == "ok":
            report = result["report"]
            lemma = report["lemma"]
            stats["by_lemma"][lemma] = stats["by_lemma"].get(lemma, 0) + 1
            if report["is_equational_domain"] or report["separating_point"] is None:
                stats["equational_domains"] += 1
                failures += 1
        else:
            key = "budget_exceeded" if result["status"] == "budget_exceeded" else "inconsistent"
            stats[key] += 1
            failures += 1

    summary = {
        "command": "verify-theorem",
        "max_order": ns.max_order,
        "mode": ns.mode,
        "budget": ns.budget,
        "tables_checked": checked,
        "per_order": {str(order): per_order[order] for order in sorted(per_order)},
        "failures": failures,
        "all_non_domains_verified": failures == 0,
    }

    if ns.format == "json":
        print(_json_line(summary))
    else:
        for order in sorted(per_order):
            stats = per_order[order]
            by_lemma = " ".join(f"case {c}: {m}" for c, m in sorted(stats["by_lemma"].items()))
            print(f"order {order}: {stats['tables']} tables  ({by_lemma})")
            if stats["budget_exceeded"] or stats["inconsistent"]:
                print(
                    f"  budget exceeded: {stats['budget_exceeded']}, "
                    f"inconsistent: {stats['inconsistent']}"
                )
        if ns.max_order < 2:
            print("no nontrivial semigroups at order 1; nothing to check")
        verdict = "verified" if failures == 0 else f"FAILED for {failures} tables"
        print(f"no equational domains among {checked} nontrivial tables: {verdict}")
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


# --- enumerate ---------------------------------------------------------------


def cmd_enumerate(ns) -> int:
    if ns.order > SOFT_ORDER_LIMIT and not ns.allow_large:
        print(
            f"error: --order {ns.order} exceeds the soft limit {SOFT_ORDER_LIMIT}; "
            "pass --allow-large to proceed",
            file=sys.stderr,
        )
        return EXIT_INVALID
    mode = _CLI_MODES[ns.mode]
    count = 0
    for S in enumerate_tables(ns.order, mode, allow_large=ns.allow_large):
        if ns.format == "json":
            print(_json_line({"order": S.order, "table": [list(r) for r in S.table]}))
        else:
            # blocks are separated by a blank line
            print(("\n\n" if count else "") + format_table(S), end="")
        count += 1
    if ns.format == "text":
        print()
        print(f"\n# {count} tables of order {ns.order} ({ns.mode})", file=sys.stderr)
    return EXIT_OK


# --- closure / term-functions -------------------------------------------------


def _load_single_table(path: str, strict: bool) -> Semigroup:
    semigroups = list(read_corpus(path, strict=strict))
    if len(semigroups) != 1:
        raise CorpusError(f"expected exactly one table in {path}, found {len(semigroups)}")
    return semigroups[0]


def _check_arity(arity: int, allow_large: bool):
    if arity > DEFAULT_ARITY_LIMIT and not allow_large:
        raise ValueError(
            f"arity {arity} exceeds the default limit {DEFAULT_ARITY_LIMIT}; "
            "pass --allow-large to proceed"
        )


def _load_point_set(
    spec: str, S: Semigroup, arity: int | None, allow_large: bool
) -> tuple[PointSet, str]:
    if spec == "m3":
        return union_target_m3(S), "m3"
    if spec == "m4":
        return union_target_m4(S), "m4"
    if not spec.startswith("@"):
        raise ValueError(f"--set must be m3, m4 or @<file>, got {spec!r}")
    path = Path(spec[1:])
    text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        # not JSON: an equations file, one equation per line
        if arity is None:
            raise ValueError("--arity is required with an equations file") from None
        _check_arity(arity, allow_large)
        system = parse_equations(text, arity)
        return solution_set(S, system), f"@{path.name}"
    n, k = PointSet.jsonable_shape(obj, n=S.order, k=arity)
    _check_arity(k, allow_large)
    return PointSet.from_jsonable(obj, n=n, k=k), f"@{path.name}"


def cmd_closure(ns) -> int:
    try:
        S = _load_single_table(ns.file, ns.strict)
        forced = {"m3": 3, "m4": 4}.get(ns.set)
        if forced is not None and ns.arity is not None and ns.arity != forced:
            print(f"error: --set {ns.set} fixes --arity {forced}", file=sys.stderr)
            return EXIT_INVALID
        arity = forced if forced is not None else ns.arity
        Y, label = _load_point_set(ns.set, S, arity, ns.allow_large)
    except (OSError, CorpusError, TableError, TermSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        cert = algebraic_closure(S, Y, budget=ns.budget)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    algebraic = cert.closure == Y
    separating = None if algebraic else cert.closure.difference(Y).least_point()
    out = {
        "order": S.order,
        "arity": Y.k,
        "set": label,
        "input_size": len(Y),
        "closure_size": len(cert.closure),
        "closure": [list(p) for p in cert.closure],
        "agreement_constraints": len(cert.agreeing_pairs),
        "is_algebraic": algebraic,
        "separating_point": list(separating) if separating is not None else None,
    }
    if ns.format == "json":
        print(_json_doc(out))
    else:
        print(f"order {out['order']}  arity {out['arity']}  set {out['set']}")
        print(f"input size {out['input_size']}, closure size {out['closure_size']}")
        print(f"closure points: {' '.join(str(tuple(p)) for p in out['closure'])}")
        print(f"algebraic: {'yes' if algebraic else 'no'}")
        if separating is not None:
            print(f"separating point: {tuple(separating)}")
    return EXIT_OK


def cmd_term_functions(ns) -> int:
    try:
        S = _load_single_table(ns.file, ns.strict)
        _check_arity(ns.arity, ns.allow_large)
    except (OSError, CorpusError, TableError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        funcs = term_functions(S, ns.arity, budget=ns.budget)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    out = {
        "order": S.order,
        "arity": ns.arity,
        "count": len(funcs),
        "witnesses": list(funcs.texts()),
    }
    if ns.format == "json":
        print(_json_doc(out))
    else:
        print(f"order {out['order']}  arity {out['arity']}  distinct term functions: {out['count']}")
        for w in out["witnesses"]:
            print(f"  {w}")
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
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"cap on the size of the computed clone (default ${BUDGET_ENV_VAR} or {DEFAULT_BUDGET})",
    )
    common.add_argument("--strict", action="store_true", help="fail on any invalid corpus table")
    common.add_argument("--allow-large", action="store_true", help="lift the soft order/arity limits")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="verify one table (or a corpus) end to end")
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify-theorem", parents=[common], help="check every semigroup up to a maximum order"
    )
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("enumerate", parents=[common], help="stream all tables of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "closure", parents=[common], help="algebraic closure of a point set over one table"
    )
    p.add_argument("file", help="Cayley table file")
    p.add_argument(
        "--set",
        required=True,
        help="m3, m4, or @file with a JSON point set or an equations file",
    )
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser(
        "term-functions", parents=[common], help="count the term functions of one table"
    )
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(func=cmd_term_functions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.budget is None:
            ns.budget = _default_budget()
        elif ns.budget < 1:
            raise ValueError("--budget must be >= 1")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if getattr(ns, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    try:
        return ns.func(ns)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except WitnessNotFound as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (CorpusError, TableError, TermSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (say, `| head`); send what is
        # still buffered to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE_CLOSED
    sys.exit(code)


if __name__ == "__main__":
    entry()
