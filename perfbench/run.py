"""Benchmark of the eqdomain CLI: three workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload theorem-o4 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it runs the CLI from src/ as
`python3 -m eqdomain ...`, each command in its own process tree.

--trace 0 times the workload's commands and prints the end-to-end metrics:
setup_s, wall_s, wall_s.par and peak_rss_mb.  --trace 1 runs the same
commands once untraced and once under tracer.py at --jobs 1, and prints the
per-layer metrics.  Either way every output is checked by checks.py, and the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Files go to perfbench/out/.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

from checks import (
    LABELED,
    UP_TO_ISO,
    UP_TO_ISO_ANTI,
    check_closure,
    check_enumeration,
    check_theorem,
    failed_in_theorem,
)
from inputs import A2, permutation, relabel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "data" / "a2_closure.json"

SETUP_STARTS = 11  # one start jitters by more than a tenth; report the median
DEADLINE_S = 170.0  # a run must end within 180 s
JOBS_PAR = 2


@dataclass
class Workload:
    """The CLI commands of one round, what counts as an operation, the checks."""

    serial: list[list[str]]  # run at --jobs 1 (or with no --jobs flag)
    parallel: list[list[str]]  # the same at --jobs 2; empty if there is no --jobs flag
    ops: list[int]  # operations per serial command
    check: Callable[[list[str]], list[str]]  # outputs of the serial commands -> errors
    failed: Callable[[str, int, int], int]  # (output, exit code, ops) -> failed operations
    passes: int = 1  # passes over the commands in one round


def _all_or_none(text: str, code: int, ops: int) -> int:
    return 0 if code == 0 else ops


def _theorem_failed(text: str, code: int, ops: int) -> int:
    # exit 3 means the program itself reported failed tables in the stream
    return failed_in_theorem(text) if code in (0, 3) else ops


def workload(name: str, seed: int, inputs: Path) -> Workload:
    if name == "theorem-o4":
        verify = ["verify-theorem", "--max-order", "4", "--mode", "raw", "--jobs"]
        return Workload(
            serial=[verify + ["1"]],
            parallel=[verify + [str(JOBS_PAR)]],
            ops=[sum(LABELED[n] for n in (2, 3, 4))],
            check=lambda outs: check_theorem(outs[0], 4),
            failed=_theorem_failed,
            passes=2,
        )
    if name == "closure-a2":
        perm = permutation(seed, len(A2))
        reference = json.loads(REFERENCE.read_text())["closure"]
        relabeled = [[perm[c] for c in p] for p in reference]
        table = relabel(A2, perm)
        return Workload(
            serial=[["closure", str(inputs / "a2.txt"), "--set", "m4"]],
            parallel=[],
            ops=[1],
            check=lambda outs: check_closure(outs[0], table, "m4", relabeled),
            failed=_all_or_none,
        )
    if name == "enumerate-o4":
        modes = ("raw", "iso", "iso-anti")
        counts = {"raw": LABELED[4], "iso": UP_TO_ISO[4], "iso-anti": UP_TO_ISO_ANTI[4]}
        return Workload(
            serial=[["enumerate", "--order", "4", "--mode", m] for m in modes],
            parallel=[],
            ops=[counts[m] for m in modes],
            check=lambda outs: [e for m, o in zip(modes, outs) for e in check_enumeration(o, 4, m)],
            failed=_all_or_none,
        )
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("theorem-o4", "closure-a2", "enumerate-o4")


class Runner:
    """Starts child processes, one process tree at a time, and keeps their files."""

    def __init__(self, outdir: Path, deadline: float):
        self.outdir = outdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.peak_rss_kib = 0
        self.count = 0

    def run(self, argv: list[str], label: str) -> tuple[float, int, str]:
        """(wall seconds, exit code, stdout) of one process tree, waited for.

        wait4 reports the largest resident set of the child and of every
        descendant it waited for, so Pool workers are included.
        """
        self.count += 1
        out_path = self.outdir / f"{self.count:03d}-{label}.out"
        err_path = self.outdir / f"{self.count:03d}-{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if label != "setup":
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return seconds, proc.returncode, out_path.read_text()

    def cli(self, args: list[str], label: str) -> tuple[float, int, str]:
        return self.run([sys.executable, "-m", "eqdomain", *args], label)


def setup(runner: Runner, name: str, seed: int, inputs: Path, starts: int) -> list[float]:
    times = []
    for _ in range(starts):
        seconds, code, _ = runner.run(
            [sys.executable, str(BENCH / "prepare.py"), name, str(seed), str(inputs)], "setup"
        )
        if code != 0:
            raise SystemExit(f"set-up failed with exit code {code}; see {runner.outdir}")
        times.append(seconds)
    return times


@dataclass
class Round:
    serial_s: list[float]  # one wall time per pass over the serial commands
    parallel_s: list[float]
    attempted: int
    failed: int
    errors: list[str]
    outputs: list[str] | None


def run_round(runner: Runner, w: Workload, reference: list[str] | None) -> Round:
    """`w.passes` passes over the serial and the parallel commands.

    Passes alternate the order (serial, parallel), (parallel, serial), so a
    drift in the host's speed during the round hits both alike.  The first
    outputs of the first round are checked in full; every other output must
    repeat them byte for byte, so the --jobs 2 stream must equal --jobs 1.
    """
    r = Round([], [], 0, 0, [], reference)
    sets = []
    for p in range(w.passes):
        pair = [(w.serial, r.serial_s, ""), (w.parallel, r.parallel_s, "-par")]
        sets.extend(pair if p % 2 == 0 else pair[::-1])
    for commands, times, suffix in sets:
        if not commands:
            continue
        seconds, outputs, crashed = 0.0, [], False
        for args, ops in zip(commands, w.ops):
            s, code, text = runner.cli(args, args[0] + suffix)
            seconds += s
            outputs.append(text)
            r.attempted += ops
            lost = w.failed(text, code, ops)
            r.failed += lost
            crashed |= lost == ops
        times.append(seconds)
        if r.outputs is None:
            r.outputs = outputs
            if not crashed:
                try:
                    r.errors.extend(w.check(outputs))
                except (ValueError, KeyError, IndexError, TypeError) as e:
                    r.errors.append(f"malformed output: {e!r}")
        elif outputs != r.outputs:
            r.errors.append(f"{' '.join(commands[0])}: output differs from the first run's")
    return r


# --- per-layer metrics from spans -------------------------------------------------

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}

# span name -> metric holding the span's self time
_SELF_TIME = {
    "terms.term_functions": "terms.term_functions_s",
    "geometry.closure": "geometry.closure_s",
    "geometry.target": "geometry.target_s",
    "witnesses.build": "witnesses.build_s",
    "witnesses.check": "witnesses.check_s",
    "semigroups.validate": "semigroups.validate_s",
    "semigroups.classify": "semigroups.classify_s",
    "enumeration.step": "enumeration.search_s",
    "enumeration.canonical": "enumeration.canonical_s",
    "cli.main": "cli.self_s",
}


def layer_metrics(traces: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of one or more traced commands.

    A span's self time is its duration minus the durations of the spans
    directly nested in it.
    """
    m: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0)
    for spans in traces:
        nested = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                nested[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            m[_SELF_TIME[name]] += end - start - nested[i]
            if name == "terms.term_functions":
                m["terms.calls"] += 1
                m["terms.functions"] += attrs["functions"]
                m["terms.functions.max"] = max(m["terms.functions.max"], attrs["functions"])
                size = attrs["functions"] * attrs["points"]  # one byte per point per function
                m["terms.vector_bytes.max"] = max(m["terms.vector_bytes.max"], size)
                if parent >= 0 and spans[parent][0] == "geometry.closure":
                    # every group of g functions gives g - 1 agreeing pairs
                    m["geometry.groups"] += attrs["functions"] - spans[parent][4]["pairs"]
            elif name == "geometry.closure":
                m["geometry.agreeing_pairs"] += attrs["pairs"]
            elif name == "witnesses.check":
                m[f"witnesses.lemma{attrs['lemma']}_s"] += end - start
            elif name == "semigroups.classify":
                m["semigroups.classify_calls"] += 1
            elif name == "enumeration.canonical":
                m["enumeration.tables"] += 1  # reduced modes test every raw table
            elif name == "enumeration.step" and not attrs.get("done"):
                m["enumeration.kept"] += 1
                if attrs["mode"] == "raw":
                    m["enumeration.tables"] += 1
    if m["enumeration.tables"]:
        m["enumeration.kept_ratio"] = m["enumeration.kept"] / m["enumeration.tables"]
    return m


# --- the two kinds of run ------------------------------------------------------------


def measure(runner: Runner, w: Workload, seconds: float, start: float) -> tuple[dict, int, int, list]:
    """Whole rounds until `seconds` have passed; medians over all passes."""
    rounds = [run_round(runner, w, None)]
    while perf_counter() - start < seconds and not rounds[0].errors:
        last = sum(rounds[-1].serial_s) + sum(rounds[-1].parallel_s)
        if perf_counter() + 1.5 * last > runner.deadline:
            break
        rounds.append(run_round(runner, w, rounds[0].outputs))
    serial = [t for r in rounds for t in r.serial_s]
    parallel = [t for r in rounds for t in r.parallel_s]
    wall = statistics.median(serial)
    # Commands without a --jobs flag run the same at any job count, so their
    # wall_s.par is the same measurement as wall_s.
    metrics = {
        "wall_s": (wall, "s"),
        "wall_s.par": (statistics.median(parallel) if parallel else wall, "s"),
        "peak_rss_mb": (runner.peak_rss_kib * 1024 / 1e6, "MB"),
    }
    print(f"{len(rounds)} rounds: serial {serial}, parallel {parallel}", file=sys.stderr)
    errors = [e for r in rounds for e in r.errors]
    return metrics, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), errors


def trace(runner: Runner, w: Workload) -> tuple[dict, int, int, list]:
    """One untraced pass for reference, then the serial commands under tracer.py."""
    plain = run_round(runner, replace(w, passes=1), None)
    traces, traced_s, attempted, failed, outputs = [], 0.0, plain.attempted, plain.failed, []
    for args, ops in zip(w.serial, w.ops):
        path = runner.outdir / f"trace-{runner.count + 1:03d}.json"
        seconds, code, text = runner.run(
            [sys.executable, str(BENCH / "tracer.py"), str(path), "--", *args], "traced-" + args[0]
        )
        traced_s += seconds
        outputs.append(text)
        attempted += ops
        failed += w.failed(text, code, ops)
        traces.append(json.loads(path.read_text())["spans"] if path.exists() else [])
    errors = list(plain.errors)
    if outputs != plain.outputs:
        errors.append("traced output differs from untraced output")
    layers = layer_metrics(traces)
    untraced_s = statistics.median(plain.serial_s)
    if plain.parallel_s:
        layers["cli.pool_eff"] = untraced_s / (JOBS_PAR * statistics.median(plain.parallel_s))
    overhead = {"untraced_s": untraced_s, "traced_s": traced_s, "overhead_s": traced_s - untraced_s}
    (runner.outdir / "layers.json").write_text(json.dumps({"layers": layers, **overhead}, indent=1))
    print(f"tracing overhead: {overhead}", file=sys.stderr)
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    start = perf_counter()
    if not (ROOT / "src" / "eqdomain" / "cli.py").is_file():
        print(f"error: no eqdomain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = BENCH / "out" / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    for old in outdir.iterdir():
        old.unlink()
    runner = Runner(outdir, start + DEADLINE_S)
    setup_times = setup(runner, ns.workload, ns.seed, outdir, 1 if ns.trace else SETUP_STARTS)
    w = workload(ns.workload, ns.seed, outdir)
    if ns.trace:
        metrics, attempted, failed, errors = trace(runner, w)
    else:
        metrics, attempted, failed, errors = measure(runner, w, ns.seconds, perf_counter())
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        print(f"set-up starts: {setup_times}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in sorted(metrics.items())},
    }
    line = json.dumps(result)
    (outdir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
