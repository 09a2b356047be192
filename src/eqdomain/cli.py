"""Command-line interface: check tables, enumerate semigroups, verify the theorem.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 invalid input
(bad table, parse error, bad flags), 3 internal inconsistency (a failed
witness, an unverified identity, an exceeded closure budget, an
unexpected error while checking a table, or a worker process that died).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain, islice
from pathlib import Path

from .enumeration import (
    SOFT_ORDER_LIMIT,
    CorpusError,
    enumerate_tables,
    format_table,
    read_corpus,
    split_search,
)
from .semigroups import Semigroup, TableError

EXIT_OK = 0
EXIT_PIPE_CLOSED = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

BUDGET_ENV_VAR = "EQDOMAIN_BUDGET"
DEFAULT_ARITY_LIMIT = 4

_CLI_MODES = {"raw": "raw", "iso": "up_to_iso", "iso-anti": "up_to_iso_and_anti"}

# verify-theorem splits the search of each order into up to this many
# shards per worker, and lets up to SHARDS_AHEAD_PER_JOB shards per worker
# be out at once, so that a long shard holds up no other worker
SHARDS_PER_JOB = 32
SHARDS_AHEAD_PER_JOB = 4

_trusted = Semigroup._trusted  # bound at import, as in enumeration

# The commands that check tables.  Only they load terms, geometry and
# witnesses, and only they resolve the budget, so enumerate starts without
# compiling those modules.  The names they use from them:
_CHECKING_COMMANDS = ("check", "verify-theorem", "closure", "term-functions")
_CHECKING_NAMES = {
    "terms": ("DEFAULT_BUDGET", "BudgetExceeded", "TermSyntaxError", "parse_equations", "term_functions"),
    "geometry": ("PointSet", "algebraic_closure", "solution_set", "union_target_m3", "union_target_m4"),
    "witnesses": ("WitnessNotFound", "check_semigroup"),
}


def _bind_checking():
    """Bind the names of ``_CHECKING_NAMES`` in this module, loading their modules.

    A name already bound is kept, so a name rebound from outside (as
    perfbench/tracer.py rebinds ``check_semigroup``) stays rebound.  main
    calls this before any worker forks, so the workers inherit the modules
    instead of compiling them again.
    """
    bound = globals()
    for module, names in _CHECKING_NAMES.items():
        module = f"{__package__}.{module}"
        __import__(module)  # unlike importlib.import_module, listed by -X importtime
        for name in names:
            bound.setdefault(name, getattr(sys.modules[module], name))


def __getattr__(name):
    # ``cli.check_semigroup`` and the like, read from outside before bound
    if any(name in names for names in _CHECKING_NAMES.values()):
        _bind_checking()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _record(result: dict) -> dict:
    """The output record of a result: the report, or the failure itself."""
    return result["report"] if result["status"] == "ok" else result


def _check_tables(args):
    _bind_checking()  # a no-op after a fork; a worker started afresh binds here
    return [_check_table(a) for a in args]


class WorkerLost(RuntimeError):
    """A worker process died before it returned a task's result."""


def _serve(fn, conn):
    """Worker process: answer each task that comes on ``conn``, until ``None``."""
    while (task := conn.recv()) is not None:
        conn.send(fn(task))


def _start_worker(fn):
    """A worker process serving ``fn``: the pipe to it, and the process."""
    import multiprocessing

    conn, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=_serve, args=(fn, child), daemon=True)
    process.start()
    child.close()  # the worker holds the only other end: its death is EOF here
    return conn, process


def _ordered_map(fn, tasks, jobs: int, ahead: int, describe):
    """``fn(task)`` for each task, in task order, yielded as it arrives.

    ``tasks`` may be any iterable, read as the results are wanted.  Up to
    ``jobs`` worker processes run the tasks, never more than there are
    tasks.  A worker takes the next task as soon as it is free, and at
    most ``ahead`` tasks are out at once: a reader slower than the
    workers holds them back instead of letting results pile up.  With one
    worker the tasks run in this process.  If a worker dies, the task it
    held, named by ``describe(index, task)``, is reported by raising
    :class:`WorkerLost`.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, jobs))
    if len(head) <= 1:
        yield from map(fn, chain(head, tasks))
        return
    from multiprocessing.connection import wait

    workers = dict(_start_worker(fn) for _ in head)  # pipe -> process
    numbered = enumerate(chain(head, tasks))
    idle, busy, done = list(workers), {}, {}  # busy: pipe -> (index, task)
    sent = yielded = 0
    try:
        while True:
            while idle and sent < yielded + ahead and (item := next(numbered, None)):
                conn = idle.pop()
                busy[conn] = item
                sent += 1
                conn.send(item[1])
            if yielded in done:
                yield done.pop(yielded)
                yielded += 1
            elif not busy:
                return
            else:
                for conn in wait(list(busy)):
                    done[busy[conn][0]] = conn.recv()
                    del busy[conn]
                    idle.append(conn)
    except (EOFError, OSError):  # the pipe to a dead worker
        index, task = busy[conn]
        raise WorkerLost(f"a worker process died; lost {describe(index, task)}") from None
    finally:
        for conn, process in workers.items():
            if conn in busy:
                process.terminate()
            else:
                conn.send(None)
        for process in workers.values():
            process.join()


def _map_tables(tables, budget: int, jobs: int, chunk: int):
    """The result of each table, in table order, yielded as it arrives.

    The tables go out to ``jobs`` workers in chunks of ``chunk``, in
    order, and at most ``jobs + 1`` chunks are out at once.
    """
    args = ((rows, budget) for rows in tables)
    blocks = iter(lambda: list(islice(args, chunk)), [])

    def describe(index, block):
        return f"tables {index * chunk + 1} to {index * chunk + len(block)}"

    for results in _ordered_map(_check_tables, blocks, jobs, jobs + 1, describe):
        yield from results


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
                print(_json_line(_record(result)))
    else:
        print("\n".join(_render_result_text(r) for r in results))
    if any(r["status"] != "ok" for r in results):
        return EXIT_INCONSISTENT
    return EXIT_OK


# --- verify-theorem ---------------------------------------------------------


def _theorem_results(order: int, mode: str, start, stop, budget: int):
    """The check result of each table of one shard of the search, in order."""
    _bind_checking()  # a no-op after a fork; a worker started afresh binds here
    for S in enumerate_tables(order, mode, True, start, stop):
        yield _check_table((S.table, budget))


def _outcome(result: dict) -> tuple:
    """What the summary counts of one result: (order, ok, lemma, failure)."""
    if result["status"] == "ok":
        report = result["report"]
        failed = report["is_equational_domain"] or report["separating_point"] is None
        return report["order"], True, report["lemma"], "equational_domains" if failed else None
    failure = "budget_exceeded" if result["status"] == "budget_exceeded" else "inconsistent"
    return result["order"], False, None, failure


def _count(per_order: dict, outcome: tuple):
    order, ok, lemma, failure = outcome
    stats = per_order.setdefault(
        order,
        {"tables": 0, "by_lemma": {}, "equational_domains": 0, "budget_exceeded": 0, "inconsistent": 0},
    )
    stats["tables"] += 1
    if ok:
        stats["by_lemma"][lemma] = stats["by_lemma"].get(lemma, 0) + 1
    if failure is not None:
        stats[failure] += 1


def _check_shard(task):
    """Pool task: the finished JSON lines of one shard of the search (none
    for text output) and the outcome of each of its tables."""
    *shard, as_json = task
    lines, outcomes = [], []
    for result in _theorem_results(*shard):
        if as_json:
            lines.append(_json_line(_record(result)))
        outcomes.append(_outcome(result))
    return lines, outcomes


def _theorem_shards(ns, mode: str):
    """The pool tasks of verify-theorem: each order's search, in shards."""
    for order in range(2, ns.max_order + 1):
        starts = split_search(order, mode, SHARDS_PER_JOB * ns.jobs)
        for start, stop in zip(starts, starts[1:] + [None]):
            yield order, mode, start, stop, ns.budget, ns.format == "json"


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
    per_order: dict[int, dict] = {}
    if ns.jobs == 1:
        # the whole search of each order is one shard, in this process
        for order in range(2, ns.max_order + 1):
            for result in _theorem_results(order, mode, (), None, ns.budget):
                if ns.format == "json":
                    print(_json_line(_record(result)))
                _count(per_order, _outcome(result))
    else:

        def describe(index, task):
            order, _, start, stop, *_ = task
            end = "the end" if stop is None else f"node {list(stop)}"
            return f"the order-{order} search from node {list(start)} to {end}"

        shards = _theorem_shards(ns, mode)
        ahead = SHARDS_AHEAD_PER_JOB * ns.jobs
        for lines, outcomes in _ordered_map(_check_shard, shards, ns.jobs, ahead, describe):
            if lines:
                print("\n".join(lines))
            for outcome in outcomes:
                _count(per_order, outcome)
    checked = sum(stats["tables"] for stats in per_order.values())
    failures = sum(
        stats["equational_domains"] + stats["budget_exceeded"] + stats["inconsistent"]
        for stats in per_order.values()
    )

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


class _HelpFormatter(argparse.HelpFormatter):
    """Names the default budget, which terms holds, only when help is shown,
    so that building the parser loads no terms."""

    def _get_help_string(self, action):
        if action.dest != "budget":
            return action.help
        _bind_checking()
        return f"{action.help} (default ${BUDGET_ENV_VAR} or {DEFAULT_BUDGET})"


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
        "--budget", type=int, default=None, help="cap on the size of the computed clone"
    )
    common.add_argument("--strict", action="store_true", help="fail on any invalid corpus table")
    common.add_argument("--allow-large", action="store_true", help="lift the soft order/arity limits")

    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[common], formatter_class=_HelpFormatter)

    p = add("check", help="verify one table (or a corpus) end to end")
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_check)

    p = add("verify-theorem", help="check every semigroup up to a maximum order")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_verify_theorem)

    p = add("enumerate", help="stream all tables of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.set_defaults(func=cmd_enumerate)

    p = add("closure", help="algebraic closure of a point set over one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument(
        "--set",
        required=True,
        help="m3, m4, or @file with a JSON point set or an equations file",
    )
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=cmd_closure)

    p = add("term-functions", help="count the term functions of one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(func=cmd_term_functions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.budget is not None and ns.budget < 1:
            raise ValueError("--budget must be >= 1")
        if ns.command in _CHECKING_COMMANDS:
            _bind_checking()
            if ns.budget is None:
                ns.budget = _default_budget()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    if getattr(ns, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    # BudgetExceeded and WitnessNotFound need no clause here: each command
    # turns them into its own output where it calls what raises them
    try:
        return ns.func(ns)
    except WorkerLost as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (CorpusError, TableError, ValueError) as e:  # TermSyntaxError is a ValueError
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
