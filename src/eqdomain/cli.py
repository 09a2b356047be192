"""Command-line interface: check tables, enumerate semigroups, verify the theorem.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 invalid input
(bad table, parse error, bad flags), 3 internal inconsistency (a failed
witness, an unverified identity, an exceeded closure budget, an
unexpected error while checking a table, or a worker process that died).
The commands raise their errors, and :func:`main` alone maps them to exit
codes.

``check`` and ``verify-theorem`` run the same shard tasks: ``check`` cuts
its corpus into slices, ``verify-theorem`` each order's raw stream (held
whole up to order 5) into slices, or else its search into shards.  Worker
processes check the shards, or, at one job, this process reads them one
table at a time, and each line is printed as soon as its shard's turn comes.

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
from functools import partial
from itertools import chain, cycle, islice
from pathlib import Path
from typing import NamedTuple

from .enumeration import (
    HELD_RAW_ORDER,
    SOFT_ORDER_LIMIT,
    CorpusError,
    enumerate_tables,
    flat_semigroups,
    format_table,
    raw_stream,
    read_corpus,
    split_search,
)
from .semigroups import DEFAULT_BUDGET, BudgetExceeded, Semigroup, TableError

EXIT_OK = 0
EXIT_PIPE_CLOSED = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

DEFAULT_ARITY_LIMIT = 4

_CLI_MODES = {"raw": "raw", "iso": "up_to_iso", "iso-anti": "up_to_iso_and_anti"}

# check and verify-theorem cut their tables into up to this many shards
# per worker, and let up to SHARDS_AHEAD_PER_JOB shards per worker be out
# at once, so that a long shard holds up no other worker
SHARDS_PER_JOB = 32
SHARDS_AHEAD_PER_JOB = 4

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
# (text before the table's rows, text after them) per report shape, the
# witnesses' shape key: 433 among the order-5 tables
_SHAPES: dict[tuple, tuple[str, str]] = {}


def _halves(record: dict) -> tuple[str, str]:
    """The JSON line of ``record``, whose ``table`` is None, cut where the
    rows of a table go."""
    halves = _json_line(record).split('"table":null')
    assert len(halves) == 2, halves
    return halves[0] + '"table":[', "]" + halves[1]


def _rows_text(table) -> str:
    return ",".join(map(_ROW_TEXT.__getitem__, table))


def _report_line(result) -> str:
    """The JSON line of a record: a failure record encoded whole, or a
    report spliced from its shape's halves and its table's cached rows.

    Two reports of one ``shape`` differ only in their table, so the halves
    are looked up by it.
    """
    if isinstance(result, dict):
        return _json_line(result)
    halves = _SHAPES.get(result.shape)
    if halves is None:
        halves = _SHAPES[result.shape] = _halves({**result.to_jsonable(), "table": None})
    return halves[0] + _rows_text(result.semigroup.table) + halves[1]


def _record(result) -> dict:
    """A report's JSON record, or the failure record itself."""
    return result if isinstance(result, dict) else result.to_jsonable()


def _report_doc(result) -> str:
    return _json_doc(_record(result))


# --- checking tables ---------------------------------------------------------


def _check_table(S: Semigroup, budget: int):
    """The result of one table: its report, or a failure record (a dict
    with a ``status``).

    An unexpected exception becomes an ``error`` record that names it and
    the line that raised it, so one failing table does not end the run.
    """
    try:
        return check_semigroup(S, budget=budget)
    except BudgetExceeded as e:
        detail = {"status": "budget_exceeded", "size": e.size}
    except WitnessNotFound as e:
        detail = {"status": "inconsistent", "error": str(e)}
    except Exception as e:
        import traceback

        where = traceback.extract_tb(e.__traceback__)[-1]
        place = f"{Path(where.filename).name}:{where.lineno} in {where.name}"
        detail = {"status": "error", "error": f"{type(e).__name__}: {e} ({place})"}
    return {"order": S.order, "table": [list(r) for r in S.table], **detail}


class WorkerLost(RuntimeError):
    """A worker process died before it returned a task's result."""


def _serve(fn, conn, cpu):
    """Worker process: answer each task that comes on ``conn``, until ``None``.

    The answer is ``list(fn(task))``, so ``fn`` may return a generator.  The
    worker first pins itself to ``cpu``, unless that is None.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU went away since the parent read its set
            pass
    while (task := conn.recv()) is not None:
        conn.send(list(fn(task)))


def _start_worker(fn, cpu):
    """A worker process serving ``fn``, pinned to ``cpu`` unless that is
    None: the pipe to it, and the process."""
    import multiprocessing

    conn, child = multiprocessing.Pipe()
    process = multiprocessing.Process(target=_serve, args=(fn, child, cpu), daemon=True)
    process.start()
    child.close()  # the worker holds the only other end: its death is EOF here
    return conn, process


def _ordered_map(fn, tasks, jobs: int, describe):
    """``fn(task)`` for each task, in task order, yielded as it arrives.

    ``tasks`` may be any iterable, read as the results are wanted.  Up to
    ``jobs`` worker processes run the tasks, never more than there are
    tasks, and each result comes back as ``list(fn(task))``.  A worker
    takes the next task as soon as it is free, and at most
    ``SHARDS_AHEAD_PER_JOB * jobs`` tasks are out at once: a reader slower
    than the workers holds them back instead of letting results pile up.
    With one worker the tasks run in this process and ``fn(task)`` is
    yielded as it is, so a generator is read only as its reader asks.  If
    a worker dies, the task it held, named by ``describe(index, task)``, is
    reported by raising :class:`WorkerLost`.

    Worker i is pinned to the i-th CPU of this process's set, wrapping
    around, and this process's own set is left as it is.  Short-lived
    forked workers otherwise tend to run on their parent's CPU while
    another stays idle.  Nothing is pinned where this process may use only
    one CPU or the platform cannot pin.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, jobs))
    if len(head) <= 1:
        yield from map(fn, chain(head, tasks))
        return
    from multiprocessing.connection import wait

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        cpus = [None]
    workers = dict(_start_worker(fn, cpu) for _, cpu in zip(head, cycle(cpus)))  # pipe -> process
    numbered = enumerate(chain(head, tasks))
    idle, busy, done = list(workers), {}, {}  # busy: pipe -> (index, task)
    ahead, yielded = SHARDS_AHEAD_PER_JOB * jobs, 0
    try:
        while True:
            while idle and len(busy) + len(done) < ahead and (item := next(numbered, None)):
                conn = idle.pop()
                busy[conn] = item
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


def _render_result_text(result) -> str:
    result = _record(result)
    if "status" not in result:
        return _render_report_text(result)
    if result["status"] == "budget_exceeded":
        return (
            f"order {result['order']}  table {result['table']}\n"
            f"  closure budget exceeded at size {result['size']}"
        )
    return f"order {result['order']}  table {result['table']}\n  {result['status'].upper()}: {result['error']}"


# --- the shard tasks of check and verify-theorem -----------------------------


def _outcome(result) -> tuple:
    """What the summary counts of one result: (order, ok, lemma, failure)."""
    if not isinstance(result, dict):  # a report
        failed = result.is_equational_domain or result.separating_point is None
        return result.semigroup.order, True, result.lemma, "equational_domains" if failed else None
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
    """Pool task ``(tables, budget, render)``: for each table that
    ``tables()`` yields, in order, its finished output (None if ``render``
    is None) and its outcome."""
    tables, budget, render = task
    _bind_checking(_THEOREM_NAMES)  # a no-op after a fork; a worker started afresh binds here
    for S in tables():
        result = _check_table(S, budget)
        yield None if render is None else render(result), _outcome(result)


def _run_shards(tasks, jobs: int, describe):
    """The outcome of each table of the shard tasks, in order, printing
    each table's output as it comes."""
    for shard in _ordered_map(_check_shard, tasks, jobs, describe):
        for text, outcome in shard:
            if text is not None:
                print(text)
            yield outcome


# --- check -----------------------------------------------------------------


def cmd_check(ns) -> int:
    _bind_checking(_THEOREM_NAMES)
    semigroups = list(read_corpus(ns.file, strict=ns.strict))
    if not semigroups:
        raise CorpusError("no tables found in input")
    if ns.format == "text":
        render = _render_result_text
    else:
        render = _report_doc if len(semigroups) == 1 else _report_line
    size = -(-len(semigroups) // (SHARDS_PER_JOB * ns.jobs))
    tasks = (
        (partial(iter, semigroups[i : i + size]), ns.budget, render)
        for i in range(0, len(semigroups), size)
    )

    def describe(index, task):
        return f"tables {index * size + 1} to {min(index * size + size, len(semigroups))}"

    failures = sum(not ok for _, ok, _, _ in _run_shards(tasks, ns.jobs, describe))
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


# --- verify-theorem ---------------------------------------------------------


class _TableSlice(NamedTuple):
    """The tables of a verify-theorem slice: the flat raw tables of one
    order, numbered from ``first`` in that order's stream, as bytes, which
    pickle far smaller than the rows they are read into."""

    order: int
    first: int
    tables: list[bytes]

    def __call__(self):
        return flat_semigroups(self.order, self.tables)


def _theorem_shards(ns):
    """The pool tasks of verify-theorem, order by order.  At one job each
    order is one task, which has no use for the cut pass of split_search.
    The raw stream up to HELD_RAW_ORDER is cut into slices, as check cuts
    its corpus; any other stream into the shards of split_search."""
    mode = _CLI_MODES[ns.mode]
    render = _report_line if ns.format == "json" else None
    pieces = 1 if ns.jobs == 1 else SHARDS_PER_JOB * ns.jobs
    for order in range(2, ns.max_order + 1):
        if pieces > 1 and mode == "raw" and order <= HELD_RAW_ORDER:
            tables = raw_stream(order)
            size = -(-len(tables) // pieces)
            for i in range(0, len(tables), size):
                yield _TableSlice(order, i + 1, tables[i : i + size]), ns.budget, render
        else:
            starts = split_search(order, mode, pieces)
            for start, stop in zip(starts, starts[1:] + [None]):
                yield partial(enumerate_tables, order, mode, True, start, stop), ns.budget, render


def _describe_shard(index, task):
    if isinstance(task[0], _TableSlice):
        order, first, tables = task[0]
        return f"the order-{order} tables {first:,} to {first + len(tables) - 1:,}"
    order, _, _, start, stop = task[0].args
    end = "the end" if stop is None else f"node {list(stop)}"
    return f"the order-{order} search from node {list(start)} to {end}"


def cmd_verify_theorem(ns) -> int:
    if not 1 <= ns.max_order:
        raise ValueError("--max-order must be >= 1")
    _check_order("--max-order", ns.max_order, ns.allow_large)
    _bind_checking(_THEOREM_NAMES)
    per_order: dict[int, dict] = {}
    for outcome in _run_shards(_theorem_shards(ns), ns.jobs, _describe_shard):
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
    _check_order("--order", ns.order, ns.allow_large)
    mode = _CLI_MODES[ns.mode]
    count = 0
    head, tail = _halves({"order": ns.order, "table": None})
    for S in enumerate_tables(ns.order, mode, allow_large=ns.allow_large):
        if ns.format == "json":
            print(head + _rows_text(S.table) + tail)
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
    _bind_checking(_CLONE_NAMES)
    S = _load_single_table(ns.file, ns.strict)
    Y, label = _load_point_set(ns.set, S, ns.arity, ns.allow_large)
    if ns.arity not in (None, Y.k):  # only m3 and m4: a file's arity is checked against --arity
        raise ValueError(f"--set {ns.set} fixes --arity {Y.k}")
    cert = algebraic_closure(S, Y, budget=ns.budget)
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
    _bind_checking(("term_functions",))
    S = _load_single_table(ns.file, ns.strict)
    _check_arity(ns.arity, ns.allow_large)
    funcs = term_functions(S, ns.arity, budget=ns.budget)
    count, texts = len(funcs), funcs.texts()
    del funcs  # the value matrix, which the texts do not read
    out = {"order": S.order, "arity": ns.arity, "count": count, "witnesses": list(texts)}
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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify-theorem", parents=[common, budget, large], help="check every semigroup up to a maximum order"
    )
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("enumerate", parents=[common, large], help="stream all tables of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=tuple(_CLI_MODES), default="raw")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("closure", parents=one_table, help="algebraic closure of a point set over one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument(
        "--set",
        required=True,
        help="m3, m4, or @file with a JSON point set or an equations file",
    )
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("term-functions", parents=one_table, help="count the term functions of one table")
    p.add_argument("file", help="Cayley table file")
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(func=cmd_term_functions)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if getattr(ns, "budget", 1) < 1:
            raise ValueError("--budget must be >= 1")
        if getattr(ns, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        return ns.func(ns)
    except BrokenPipeError:
        raise  # for entry: the reader closed stdout, exit 1
    except (OSError, CorpusError, TableError, ValueError) as e:  # TermSyntaxError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (WorkerLost, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT


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
