"""The commands other than ``enumerate``: check, verify-theorem, closure and
term-functions, with the report rendering and the shard tasks they run.

:func:`eqdomain.cli.main` imports this module only for those four commands,
so that an ``enumerate`` start compiles none of it.  The names that
``cli._bind_checking`` binds (``check_semigroup``, ``enumerate_tables``,
``algebraic_closure``, ``term_functions`` and the rest) are read through
the :mod:`eqdomain.cli` module each time they are called, so a name rebound
there, as perfbench/tracer.py and the tests rebind them, is the one called.

``check`` and ``verify-theorem`` run the same shard tasks: ``check`` cuts
its corpus into slices, ``verify-theorem`` each order's raw stream (held
whole up to order 5) into slices, or else its search into shards.  The
workers of :mod:`eqdomain.pool` check the shards, or, at one job, this
process reads them one table at a time, and each line is printed as soon
as its shard's turn comes.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import cli
from .enumeration import HELD_RAW_ORDER, CorpusError, flat_semigroups, raw_stream, read_corpus, split_search
from .semigroups import BudgetExceeded, Semigroup

DEFAULT_ARITY_LIMIT = 4

# check and verify-theorem cut their tables into up to this many shards
# per worker, of which pool.SHARDS_AHEAD_PER_JOB per worker are out at
# once, so that a long shard holds up no other worker
SHARDS_PER_JOB = 32

# (text before the table's rows, text after them) per report shape, the
# witnesses' shape key: 433 among the order-5 tables
_SHAPES: dict[tuple, tuple[str, str]] = {}


def _report_line(result) -> str:
    """The JSON line of a record: a failure record encoded whole, or a
    report spliced from its shape's halves and its table's cached rows.

    Two reports of one ``shape`` differ only in their table, so the halves
    are looked up by it.
    """
    if isinstance(result, dict):
        return cli._json_line(result)
    halves = _SHAPES.get(result.shape)
    if halves is None:
        halves = _SHAPES[result.shape] = cli._halves({**result.to_jsonable(), "table": None})
    return halves[0] + cli._rows_text(result.semigroup.table) + halves[1]


def _record(result) -> dict:
    """A report's JSON record, or the failure record itself."""
    return result if isinstance(result, dict) else result.to_jsonable()


def _report_doc(result) -> str:
    return cli._json_doc(_record(result))


# --- checking tables ---------------------------------------------------------


def _check_table(S: Semigroup, budget: int):
    """The result of one table: its report, or a failure record (a dict
    with a ``status``).

    An unexpected exception becomes an ``error`` record that names it and
    the line that raised it, so one failing table does not end the run.
    """
    try:
        return cli.check_semigroup(S, budget=budget)
    except BudgetExceeded as e:
        detail = {"status": "budget_exceeded", "size": e.size}
    except cli.WitnessNotFound as e:
        detail = {"status": "inconsistent", "error": str(e)}
    except Exception as e:
        import traceback

        where = traceback.extract_tb(e.__traceback__)[-1]
        place = f"{Path(where.filename).name}:{where.lineno} in {where.name}"
        detail = {"status": "error", "error": f"{type(e).__name__}: {e} ({place})"}
    return {"order": S.order, "table": [list(r) for r in S.table], **detail}


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
    cli._bind_checking(cli._THEOREM_NAMES)  # a no-op after a fork; a worker started afresh binds here
    for S in tables():
        result = _check_table(S, budget)
        yield None if render is None else render(result), _outcome(result)


def _run_shards(tasks, jobs: int, describe):
    """The outcome of each table of the shard tasks, in order, printing
    each table's output as it comes.

    One job maps the tasks in this process, without loading the pool.  The
    shards are closed however the reading ends, which joins every worker.
    """
    if jobs == 1:
        shards = (_check_shard(task) for task in tasks)
    else:
        from .pool import _ordered_map

        shards = _ordered_map(_check_shard, tasks, jobs, describe)
    try:
        for shard in shards:
            for text, outcome in shard:
                if text is not None:
                    print(text)
                yield outcome
    finally:
        shards.close()


# --- check -----------------------------------------------------------------


def cmd_check(ns) -> int:
    cli._bind_checking(cli._THEOREM_NAMES)
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
    return cli.EXIT_OK if failures == 0 else cli.EXIT_INCONSISTENT


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
    mode = cli._CLI_MODES[ns.mode]
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
                yield partial(cli.enumerate_tables, order, mode, True, start, stop), ns.budget, render


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
    cli._check_order("--max-order", ns.max_order, ns.allow_large)
    cli._bind_checking(cli._THEOREM_NAMES)
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
        print(cli._json_line(summary))
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
    return cli.EXIT_OK if failures == 0 else cli.EXIT_INCONSISTENT


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
) -> tuple[cli.PointSet, str]:
    if spec == "m3":
        return cli.union_target_m3(S), "m3"
    if spec == "m4":
        return cli.union_target_m4(S), "m4"
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
        system = cli.parse_equations(text, arity)
        return cli.solution_set(S, system), f"@{path.name}"
    n, k = cli.PointSet.jsonable_shape(obj, n=S.order, k=arity)
    _check_arity(k, allow_large)
    return cli.PointSet.from_jsonable(obj, n=n, k=k), f"@{path.name}"


def cmd_closure(ns) -> int:
    cli._bind_checking(cli._CLONE_NAMES)
    S = _load_single_table(ns.file, ns.strict)
    Y, label = _load_point_set(ns.set, S, ns.arity, ns.allow_large)
    if ns.arity not in (None, Y.k):  # only m3 and m4: a file's arity is checked against --arity
        raise ValueError(f"--set {ns.set} fixes --arity {Y.k}")
    cert = cli.algebraic_closure(S, Y, budget=ns.budget)
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
        print(cli._json_doc(out))
    else:
        print(f"order {out['order']}  arity {out['arity']}  set {out['set']}")
        print(f"input size {out['input_size']}, closure size {out['closure_size']}")
        print(f"closure points: {' '.join(str(tuple(p)) for p in out['closure'])}")
        print(f"algebraic: {'yes' if algebraic else 'no'}")
        if separating is not None:
            print(f"separating point: {tuple(separating)}")
    return cli.EXIT_OK


def cmd_term_functions(ns) -> int:
    cli._bind_checking(("term_functions",))
    S = _load_single_table(ns.file, ns.strict)
    _check_arity(ns.arity, ns.allow_large)
    funcs = cli.term_functions(S, ns.arity, budget=ns.budget)
    count, texts = len(funcs), funcs.texts()
    del funcs  # the value matrix, which the texts do not read
    out = {"order": S.order, "arity": ns.arity, "count": count, "witnesses": list(texts)}
    if ns.format == "json":
        print(cli._json_doc(out))
    else:
        print(f"order {out['order']}  arity {out['arity']}  distinct term functions: {out['count']}")
        for w in out["witnesses"]:
            print(f"  {w}")
    return cli.EXIT_OK
