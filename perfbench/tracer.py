"""Run one eqdomain CLI command with spans around calls into each module.

    python3 perfbench/tracer.py TRACE.json -- verify-theorem --max-order 4

The command's output goes to stdout as usual.  Nothing in src/ is edited:
the names through which one module calls another are rebound to wrappers
for the life of this process, and each wrapper records a span (name, start,
end, parent, attributes) in memory.  The spans are written to TRACE.json
when the command ends.  Only in-process work is seen, so run it at --jobs 1.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eqdomain.cli as cli  # noqa: E402
import eqdomain.enumeration as enumeration  # noqa: E402
import eqdomain.geometry as geometry  # noqa: E402
import eqdomain.witnesses as witnesses  # noqa: E402


class Tracer:
    """Spans as [name, start, end, parent index, attrs], nested by a stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def begin(self, name: str, attrs: dict) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        self.stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, describe=None):
        """`fn` with a span; `describe(args, result)` adds attributes."""

        def traced(*args, **kwargs):
            index = self.begin(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if describe is not None:
                self.spans[index][4] = describe(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """`fn` returns an iterator; each step of it becomes one span."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "raw")

            def steps():
                while True:
                    index = self.begin(name, {"mode": mode})
                    try:
                        item = next(it)
                    except StopIteration:
                        self.spans[index][4]["done"] = True
                        return
                    finally:
                        self.end(index)
                    yield item

            return steps()

        return traced


def _term_functions_attrs(args, funcs):
    S, arity = args[0], args[1]
    return {"functions": len(funcs), "points": S.order**arity}


def install(tr: Tracer):
    """Rebind each cross-module call site to a traced wrapper."""
    validate = tr.wrap(cli.Semigroup, "semigroups.validate")
    cli.Semigroup = validate
    enumeration.Semigroup = validate
    cli.enumerate_tables = tr.wrap_generator(enumeration.enumerate_tables, "enumeration.step")
    enumeration.canonical_table = tr.wrap(enumeration.canonical_table, "enumeration.canonical")
    cli.check_semigroup = tr.wrap(
        witnesses.check_semigroup,
        "witnesses.check",
        lambda args, report: {"lemma": report.lemma},
    )
    witnesses.classify = tr.wrap(witnesses.classify, "semigroups.classify")
    for case, builder in list(witnesses._BUILDERS.items()):
        witnesses._BUILDERS[case] = tr.wrap(builder, "witnesses.build")
    for module in (cli, witnesses):
        module.union_target_m3 = tr.wrap(geometry.union_target_m3, "geometry.target")
        module.union_target_m4 = tr.wrap(geometry.union_target_m4, "geometry.target")
    closure = tr.wrap(
        geometry.algebraic_closure,
        "geometry.closure",
        lambda args, cert: {"pairs": len(cert.agreeing_pairs)},
    )
    cli.algebraic_closure = closure
    witnesses.algebraic_closure = closure
    term_functions = tr.wrap(geometry.term_functions, "terms.term_functions", _term_functions_attrs)
    geometry.term_functions = term_functions
    cli.term_functions = term_functions


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    out, command = Path(argv[0]), argv[2:]
    tr = Tracer()
    install(tr)
    root = tr.begin("cli.main", {})
    try:
        code = cli.main(command)
    finally:
        tr.end(root)
        sys.stdout.flush()
        out.write_text(json.dumps({"command": command, "spans": tr.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
