import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from functools import partial
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqdomain.cli as cli
import eqdomain.commands as commands
import eqdomain.enumeration as enumeration
import eqdomain.pool as pool
from eqdomain import DEFAULT_BUDGET, BudgetExceeded, CorpusWarning, check_semigroup, enumerate_tables, format_table
from eqdomain.cli import main
from eqdomain.enumeration import split_search
from support import A2, CHAIN3, LEFT_ZERO, MIN2, NULL2, RECT_BAND_2X2, RIGHT_ZERO, Z2

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def table_file(tmp_path):
    def write(S, name="table.txt"):
        path = tmp_path / name
        lines = [str(S.order)] + [" ".join(map(str, row)) for row in S.table]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def write_corpus(path, tables):
    """Write ``tables`` to ``path`` in the corpus text format; return the path as a str."""
    path.write_text("\n\n".join(format_table(S) for S in tables) + "\n")
    return str(path)


class FirstWrite(io.StringIO):
    """A stdout that records how many tables were checked at its first write."""

    def __init__(self, checks):
        super().__init__()
        self.checks, self.at = checks, None

    def write(self, text):
        if self.at is None:
            self.at = len(self.checks)
        return super().write(text)


def fails_on(table):
    """check_semigroup, except that it raises on ``table``."""
    check = cli.check_semigroup

    def patched(S, budget):
        if S.table == table:
            raise RuntimeError("injected failure")
        return check(S, budget=budget)

    return patched


class TestCheck:
    def test_left_zero(self, capsys, table_file):
        code, out, _ = run(capsys, "check", table_file(LEFT_ZERO))
        assert code == 0
        doc = json.loads(out)
        assert doc["lemma"] == "1.1"
        assert doc["is_equational_domain"] is False
        assert doc["separating_point"] == [0, 1, 1]

    def test_trivial(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n0\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert json.loads(out)["is_equational_domain"] is True

    def test_non_associative_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0\n1 0\n")
        code, _, err = run(capsys, "check", str(path), "--strict")
        assert code == 2
        assert "(x, y, z)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "/nonexistent/tables.txt"),
            ("closure", "/nonexistent/tables.txt", "--set", "m3"),
            ("term-functions", "/nonexistent/tables.txt", "--arity", "2"),
            ("closure", "{table}", "--set", "@/nonexistent/points.json"),
        ],
        ids=["check", "closure", "term-functions", "closure-set-file"],
    )
    def test_missing_file(self, capsys, table_file, argv):
        argv = [arg.format(table=table_file(Z2)) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file" in err
        assert "Traceback" not in err

    def test_multi_table_stream(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("2\n0 0\n1 1\n\n2\n0 1\n1 0\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [doc["lemma"] for doc in lines] == ["1.1", "3"]

    @pytest.mark.parametrize("where, line", [("entry", 7), ("order", 5)])
    def test_overlong_number_is_a_bad_table(self, capsys, tmp_path, where, line):
        # int() refuses more than 4,300 digits; the table holding such a
        # number is skipped with a warning, or fails --strict, by its line
        big = "9" * 5000
        middle = f"2\n0 0\n0 {big}\n" if where == "entry" else f"{big}\n0 0\n0 1\n"
        path = tmp_path / "corpus.txt"
        path.write_text(f"2\n0 0\n0 1\n\n{middle}\n2\n0 1\n1 0\n")
        with pytest.warns(CorpusWarning) as caught:
            code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and len(out.splitlines()) == 2
        assert [str(w.message).split(":")[0] for w in caught] == [f"line {line}"]
        # the line is quoted up to a fixed width, not whole
        assert len(str(caught[0].message)) < 150 and str(caught[0].message).endswith("...")
        code, out, err = run(capsys, "check", str(path), "--strict")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: expected ")
        assert len(err) < 150 and err.endswith("...\n")

    def test_long_out_of_range_entry_is_quoted_short(self, capsys, tmp_path):
        # short enough for int(), so the table is read, but not an element:
        # its Semigroup validation quotes the entry up to a fixed width
        path = tmp_path / "corpus.txt"
        path.write_text(f"2\n0 0\n0 1\n\n2\n0 0\n0 {'9' * 4000}\n\n2\n0 1\n1 0\n")
        with pytest.warns(CorpusWarning) as caught:
            code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and len(out.splitlines()) == 2
        assert len(caught) == 1
        message = str(caught[0].message)
        assert message.startswith("table 1 (line 5): table[1][1] = 999") and len(message) < 150
        assert message.endswith("9... is not an element index in 0..1")
        code, out, err = run(capsys, "check", str(path), "--strict")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_module_entry_prints_a_bad_table_as_one_warning_line(self, tmp_path):
        # the warning names the table's line, not the library line that warned
        path = tmp_path / "corpus.txt"
        path.write_text("3\n0 0 0\n0 0 0\n0 0 x\n\n2\n0 0\n0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "eqdomain", "check", str(path)],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lemma"] == "1.2"
        assert proc.stderr == "warning: line 4: expected 3 integers, found '0 0 x'\n"

    def test_error_is_a_record(self, capsys, table_file, monkeypatch):
        monkeypatch.setattr(cli, "check_semigroup", fails_on(MIN2.table))
        code, out, _ = run(capsys, "check", table_file(MIN2))
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "error" and doc["table"] == [[0, 0], [0, 1]]
        code, out, _ = run(capsys, "check", table_file(MIN2), "--format", "text")
        assert code == 3
        assert out.splitlines()[1].startswith("  ERROR: RuntimeError: injected failure")

    def test_text_format(self, capsys, table_file):
        code, out, _ = run(capsys, "check", table_file(LEFT_ZERO), "--format", "text")
        assert code == 0
        assert "equational domain: no" in out
        assert "[ok ]" in out

    def test_budget_exhaustion_is_exit_3(self, capsys, table_file):
        code, out, _ = run(capsys, "check", table_file(Z2), "--budget", "1")
        assert code == 3
        assert json.loads(out)["status"] == "budget_exceeded"

    def test_budget_zero_is_exit_2_on_every_command(self, capsys, table_file):
        path = table_file(Z2)
        for argv in budgeted_commands(path):
            code, out, err = run(capsys, *argv, "--budget", "0")
            assert (code, out, err) == (2, "", "error: --budget must be >= 1\n"), argv
        # enumerate computes no clone, so it takes no --budget at all
        with pytest.raises(SystemExit) as exited:
            main(["enumerate", "--order", "2", "--budget", "0"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --budget 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("enumerate", "--order", "2"), "--strict"),
            (("verify-theorem", "--max-order", "2"), "--strict"),
            (("check", "{table}"), "--allow-large"),
        ],
        ids=["enumerate-strict", "verify-theorem-strict", "check-allow-large"],
    )
    def test_an_option_a_command_does_not_read_is_rejected(self, capsys, table_file, argv, option):
        # enumerate's --budget is rejected in test_budget_zero_is_exit_2_on_every_command
        argv = [arg.format(table=table_file(Z2)) for arg in argv]
        with pytest.raises(SystemExit) as exited:
            main([*argv, option])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_jobs_1_writes_each_table_as_it_is_checked(self, monkeypatch, tmp_path):
        # one job reads the corpus's shards in this process, a table at a
        # time: the first line is written before the second table is checked
        corpus = write_corpus(tmp_path / "order3.txt", enumerate_tables(3))
        checks = []
        monkeypatch.setattr(cli, "check_semigroup", counting(cli.check_semigroup, checks))
        with contextlib.redirect_stdout(FirstWrite(checks)) as stdout:
            assert main(["check", corpus, "--jobs", "1"]) == 0
        assert stdout.at == 1
        assert len(checks) == 113


def budgeted_commands(path):
    """One call of each command that resolves the budget, on the table at ``path``."""
    return [
        ("check", path),
        ("verify-theorem", "--max-order", "2"),
        ("closure", path, "--set", "m3"),
        ("term-functions", path, "--arity", "2"),
    ]


# Runs the CLI with check_semigroup patched to end its process at once on
# the 2,001st table of order 4, as a killed or crashed worker would.
DIES_ON_TABLE_2001 = """
import os, sys
import eqdomain.cli as cli
from eqdomain import enumerate_tables
doomed = [S.table for S in enumerate_tables(4)][2000]
check = cli.check_semigroup
def check_or_die(S, budget):
    if S.table == doomed:
        os._exit(9)
    return check(S, budget=budget)
cli.check_semigroup = check_or_die
sys.exit(cli.main(sys.argv[1:]))
"""


class TestVerifyTheorem:
    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--max-order", "2")
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        assert summary["tables_checked"] == 8
        assert summary["per_order"]["2"]["tables"] == 8
        assert summary["failures"] == 0
        reports = [json.loads(line) for line in lines[:-1]]
        assert len(reports) == 8
        assert all(r["is_equational_domain"] is False for r in reports)

    def test_order_one_is_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--max-order", "1", "--format", "text")
        assert code == 0
        assert "nothing to check" in out

    def test_soft_limit(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "--max-order", "6")
        assert code == 2
        assert "--allow-large" in err

    def test_jobs_do_not_change_output(self, capsys):
        for max_order, jobs in (("2", "3"), ("4", "2")):
            _, out1, _ = run(capsys, "verify-theorem", "--max-order", max_order, "--mode", "raw", "--jobs", "1")
            _, outn, _ = run(capsys, "verify-theorem", "--max-order", max_order, "--mode", "raw", "--jobs", jobs)
            assert out1 == outn

    def test_jobs_1_writes_each_table_as_it_is_checked(self, monkeypatch):
        # one job reads its shards in this process, a table at a time: the
        # first line is written before the second table is checked
        checks = []
        monkeypatch.setattr(cli, "check_semigroup", counting(cli.check_semigroup, checks))
        with contextlib.redirect_stdout(FirstWrite(checks)) as stdout:
            assert main(["verify-theorem", "--max-order", "4", "--jobs", "1"]) == 0
        assert stdout.at == 1
        assert len(checks) == 3_613

    def test_jobs_1_runs_no_cut_pass(self, capsys, monkeypatch):
        # one job searches each order whole, so it places no shard starts
        cuts = []
        assoc_tables = enumeration._assoc_tables

        def recording(*args, **kwargs):
            cuts.append(kwargs.get("cut", args[4] if len(args) > 4 else None))
            return assoc_tables(*args, **kwargs)

        monkeypatch.setattr(enumeration, "_assoc_tables", recording)
        code, _, _ = run(capsys, "verify-theorem", "--max-order", "4", "--jobs", "1")
        assert code == 0
        assert cuts == [None, None, None]  # one whole search per order 2..4

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_worker_error_is_a_record(self, capsys, monkeypatch, jobs):
        # Pool workers fork after the patch, so they raise too
        monkeypatch.setattr(cli, "check_semigroup", fails_on(MIN2.table))
        code, out, _ = run(capsys, "verify-theorem", "--max-order", "3", "--jobs", jobs)
        assert code == 3
        *records, summary = map(json.loads, out.splitlines())
        assert len(records) == 8 + 113
        errors = [r for r in records if r.get("status") == "error"]
        assert errors == [
            {
                "status": "error",
                "order": 2,
                "table": [[0, 0], [0, 1]],
                "error": errors[0]["error"],
            }
        ]
        assert errors[0]["error"].startswith("RuntimeError: injected failure (test_cli.py:")
        assert summary["tables_checked"] == 8 + 113
        assert summary["per_order"]["2"]["inconsistent"] == 1
        assert summary["per_order"]["3"]["inconsistent"] == 0
        assert summary["failures"] == 1

    def test_reduced_mode(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--max-order", "2", "--mode", "iso")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["tables_checked"] == 5

    def test_order6_frozen_count_through_the_split_search(self, capsys):
        # OEIS A001423 at order 6, checked by workers that each search one shard
        code, out, _ = run(
            capsys, "verify-theorem", "--max-order", "6", "--mode", "iso-anti", "--allow-large", "--jobs", "2"
        )
        assert code == 0
        *records, summary = map(json.loads, out.splitlines())
        assert summary["per_order"]["6"]["tables"] == 15_973
        assert summary["tables_checked"] == len(records) == 4 + 18 + 126 + 1_160 + 15_973
        assert summary["failures"] == 0
        tables = [r["table"] for r in records if r["order"] == 6]
        assert tables == sorted(tables)

    @pytest.mark.parametrize(
        "command, lost",
        # both cut order 4's 3,492 tables into slices of 55
        [("verify-theorem", "the order-4 tables 1,981 to 2,035"), ("check", "tables 1981 to 2035")],
        ids=["verify-theorem", "check"],
    )
    def test_dead_worker_is_reported(self, capsys, command, lost, tmp_path):
        # A worker that dies takes its task with it: the run names the lost
        # tables and ends with exit 3 instead of waiting for them forever.
        corpus = write_corpus(tmp_path / "order4.txt", enumerate_tables(4))
        argv = ["verify-theorem", "--max-order", "4"] if command == "verify-theorem" else ["check", corpus]
        proc = subprocess.run(
            [sys.executable, "-c", DIES_ON_TABLE_2001, *argv, "--jobs", "2"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert proc.returncode == 3
        assert f"error: a worker process died; lost {lost}\n" in proc.stderr
        assert "Traceback" not in proc.stderr
        # what is written comes before the lost table, and there is no summary
        assert len(proc.stdout.splitlines()) < 8 + 113 + 2000
        # the shards before the lost one are printed, as one job prints them
        _, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert proc.stdout and serial.startswith(proc.stdout)

    def test_no_more_workers_than_shards(self, capsys, monkeypatch):
        started = []

        def thread_worker(fn, cpu):
            """A worker as pool._start_worker makes one, but a thread of this process."""
            started.append(fn)
            conn, child = multiprocessing.Pipe()
            thread = threading.Thread(target=pool._serve, args=(fn, child, cpu), daemon=True)
            thread.start()
            return conn, thread

        monkeypatch.setattr(pool, "_start_worker", thread_worker)
        search_shards = sum(len(split_search(n, "up_to_iso", commands.SHARDS_PER_JOB * 64)) for n in (2, 3, 4))
        # order 2's eight raw tables are a slice each; iso mode splits each order's search
        for max_order, mode, shards in (("2", "raw", 8), ("4", "iso", search_shards)):
            started.clear()
            argv = ("verify-theorem", "--max-order", max_order, "--mode", mode)
            _, out1, _ = run(capsys, *argv, "--jobs", "1")
            code, out64, _ = run(capsys, *argv, "--jobs", "64")
            assert code == 0
            assert out64 == out1
            assert len(started) == shards and 1 < shards < 64

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ordered_map_reads_its_tasks_lazily_in_order(self, jobs):
        pulled, ahead = 0, pool.SHARDS_AHEAD_PER_JOB * jobs

        def tasks():
            nonlocal pulled
            for S in enumerate_tables(3):
                pulled += 1
                yield partial(iter, [S]), DEFAULT_BUDGET, commands._report_line

        results = pool._ordered_map(commands._check_shard, tasks(), jobs, lambda index, task: f"task {index}")
        first = list(next(results))
        # at most jobs + ahead tasks are out before the first result
        assert 1 <= pulled <= jobs + ahead
        shards = [first, *map(list, results)]
        assert pulled == 113
        reports = [json.loads(line) for shard in shards for line, _ in shard]
        assert reports == [check_semigroup(S, budget=DEFAULT_BUDGET).to_jsonable() for S in enumerate_tables(3)]


# md5 of whole report streams, frozen from the output of the separate lemma
# 1.1, 1.2 and 2 builders that the shared pair construction replaced
FROZEN_STREAMS = [
    (("verify-theorem", "--max-order", "4", "--mode", "raw", "--jobs", "1"), "de851aad344dade0641a7950d77bc6a5"),
    (
        ("verify-theorem", "--max-order", "4", "--mode", "raw", "--jobs", "1", "--format", "text"),
        "6ce52251c1fe5e5d48c7cb03bf172426",
    ),
    (("verify-theorem", "--max-order", "5", "--mode", "iso"), "48e3e562ae6d1c4645bf86abc9d64dc4"),
]
# every lemma, and both sides of lemma 1.1: left-zero, right-zero and
# rectangular bands (1.1), semilattices (1.2), a null pair and A2 (2), Z2 (3)
LEMMA_CORPUS = [LEFT_ZERO, RIGHT_ZERO, RECT_BAND_2X2, MIN2, CHAIN3, NULL2, Z2, A2]
FROZEN_CHECK = {"json": "66d80500a0587a5fbb5d757a76fc2d57", "text": "78077d421dec2e9caff12d68c23034a9"}
# closure --set m4 on A2 (JSON): the clone restricted to m4, 105,112
# functions, with 18,508 relations
FROZEN_CLOSURE = "43cf848a5bc20484f689759120f98766"


class TestFrozenStreams:
    @pytest.mark.parametrize("argv, digest", FROZEN_STREAMS, ids=["order4-raw", "order4-raw-text", "order5-iso"])
    def test_verify_theorem(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, jobs",
        [("json", "1"), ("text", "1"), ("json", "2"), ("text", "2")],
        ids=["json", "text", "json-jobs2", "text-jobs2"],
    )
    def test_check_one_table_per_lemma(self, capsys, tmp_path, fmt, jobs):
        corpus = write_corpus(tmp_path / "corpus.txt", LEMMA_CORPUS)
        code, out, _ = run(capsys, "check", corpus, "--format", fmt, "--jobs", jobs)
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == FROZEN_CHECK[fmt]

    def test_closure_m4_on_A2(self, capsys, table_file):
        code, out, _ = run(capsys, "closure", table_file(A2), "--set", "m4")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == FROZEN_CLOSURE


class TestReportLines:
    def test_spliced_lines_equal_the_encoded_records(self, monkeypatch):
        # empty caches, so that every shape and row is first met here
        monkeypatch.setattr(commands, "_SHAPES", {})
        monkeypatch.setattr(cli, "_ROW_TEXT", cli._RowText())
        orders = [enumerate_tables(n) for n in range(1, 5)]
        for S in chain(*orders, enumerate_tables(5, "up_to_iso_and_anti")):
            report = check_semigroup(S)
            assert commands._report_line(report) == cli._json_line(report.to_jsonable())
        # far fewer shapes than tables: 146 among the 3,492 of order 4
        assert len(commands._SHAPES) < 3_613 // 10

    def test_failure_records_render_as_before(self, monkeypatch):
        WitnessNotFound = cli.WitnessNotFound
        for error, line, text in [
            (
                BudgetExceeded(7),
                '{"order":2,"size":7,"status":"budget_exceeded","table":[[0,0],[0,1]]}',
                "closure budget exceeded at size 7",
            ),
            (
                WitnessNotFound("no pair"),
                '{"error":"no pair","order":2,"status":"inconsistent","table":[[0,0],[0,1]]}',
                "INCONSISTENT: no pair",
            ),
        ]:

            def check(S, budget, error=error):
                raise error

            monkeypatch.setattr(cli, "check_semigroup", check)
            record = commands._check_table(MIN2, DEFAULT_BUDGET)
            assert commands._report_line(record) == cli._json_line(record) == line
            assert commands._render_result_text(record) == f"order 2  table [[0, 0], [0, 1]]\n  {text}"
        monkeypatch.setattr(cli, "check_semigroup", fails_on(MIN2.table))
        record = commands._check_table(MIN2, DEFAULT_BUDGET)
        line = commands._report_line(record)
        assert line == cli._json_line(record)
        assert line.startswith('{"error":"RuntimeError: injected failure (test_cli.py:')
        assert line.endswith(' in patched)","order":2,"status":"error","table":[[0,0],[0,1]]}')


class TestEnumerate:
    @pytest.mark.parametrize("mode", ["raw", "iso", "iso-anti"])
    def test_json_lines_equal_the_encoded_records(self, capsys, mode):
        # order 1 has the one-entry row
        for order in range(1, 5):
            code, out, _ = run(capsys, "enumerate", "--order", str(order), "--mode", mode)
            tables = enumerate_tables(order, cli._CLI_MODES[mode])
            expected = [cli._json_line({"order": order, "table": [list(r) for r in S.table]}) for S in tables]
            assert code == 0 and out.splitlines() == expected

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "2")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 8
        assert docs[0] == {"order": 2, "table": [[0, 0], [0, 0]]}

    def test_text_round_trips_as_corpus(self, capsys, tmp_path):
        from eqdomain import parse_corpus

        code, out, _ = run(capsys, "enumerate", "--order", "2", "--format", "text")
        assert code == 0
        tables = [S.table for S in parse_corpus(out)]
        assert len(tables) == 8

    @pytest.mark.parametrize("mode", ["raw", "iso"])
    def test_text_stream_matches_json_lines(self, capsys, mode):
        _, text, err = run(capsys, "enumerate", "--order", "3", "--mode", mode, "--format", "text")
        _, lines, _ = run(capsys, "enumerate", "--order", "3", "--mode", mode)
        expected = [json.loads(line)["table"] for line in lines.splitlines()]
        # blocks separated by one blank line, and one newline at the end
        assert text.endswith("\n") and not text.endswith("\n\n")
        blocks = [block.splitlines() for block in text[:-1].split("\n\n")]
        assert [block[0] for block in blocks] == ["3"] * len(expected)
        assert [[list(map(int, r.split())) for r in block[1:]] for block in blocks] == expected
        assert err == f"\n# {len(expected)} tables of order 3 ({mode})\n"

    def test_modes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--mode", "iso-anti")
        assert code == 0
        assert len(out.splitlines()) == 18

    @pytest.mark.parametrize("mode, count", [("iso-anti", 15_973), ("iso", 28_634)])
    def test_order6_frozen_counts(self, order6_stream, mode, count):
        # OEIS A001423 and A027851 at order 6
        code, lines = order6_stream(mode)
        assert code == 0
        assert len(lines) == count
        assert lines == sorted(set(lines), key=lambda line: json.loads(line)["table"])

    @pytest.mark.parametrize(
        "argv, first_order",
        [
            (("enumerate", "--order", "4"), 4),
            (("verify-theorem", "--max-order", "4", "--jobs", "1"), 2),
            (("verify-theorem", "--max-order", "4", "--jobs", "2"), 2),
        ],
        ids=["enumerate", "verify-theorem-jobs1", "verify-theorem-jobs2"],
    )
    def test_reader_closing_early_is_not_a_traceback(self, argv, first_order):
        # each order-4 stream is far larger than a pipe buffer, so the writer
        # is still printing when the reader goes away
        with subprocess.Popen(
            [sys.executable, "-m", "eqdomain", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        ) as proc:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert first["order"] == first_order
        assert code == 1
        assert "Traceback" not in err


# DIES_ON_TABLE_2001, run through the console script's entry
DIES_THROUGH_ENTRY = DIES_ON_TABLE_2001.replace("sys.exit(cli.main(sys.argv[1:]))", "cli.entry()")

# Runs enumerate through entry with a stdout that logs, at each write, the
# lines the write holds and whether the search had ended by then
RECORDED_WRITES = """
import io, json, sys
import eqdomain.cli as cli
log, ended = open(sys.argv[1], "w", buffering=1), []
search = cli.enumerate_tables
def enumerate_tables(*args, **kwargs):
    yield from search(*args, **kwargs)
    ended.append(True)
class Recorder(io.TextIOBase):
    def write(self, text):
        log.write(json.dumps([text.count("\\n"), bool(ended)]) + "\\n")
        return len(text)
cli.enumerate_tables = enumerate_tables
sys.stdout = Recorder()
sys.argv[1:] = ["enumerate", "--order", "4"]
cli.entry()
"""


def session_processes(sid):
    """The processes of session ``sid`` still in the process table, zombies included."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()  # the fields after the command name
        except OSError:  # ended since the listing
            continue
        if int(fields[3]) == sid:
            pids.append(int(stat.parent.name))
    return pids


class TestEntry:
    """``python -m eqdomain``, which ends by os._exit once its output is flushed."""

    @pytest.mark.parametrize(
        "fmt, digest, err",
        [
            ("json", "ef19a0c54cdd1749edaedd991592b9c5", ""),
            ("text", "f80b331386a827e8e76f10aa2a615191", "\n# 3492 tables of order 4 (raw)\n"),
        ],
    )
    def test_enumerate_to_a_file_is_complete(self, tmp_path, fmt, digest, err):
        out = tmp_path / "order4.out"
        # buffered, so that what is not flushed before the exit is lost
        env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
        with open(out, "wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-m", "eqdomain", "enumerate", "--order", "4", "--format", fmt],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (0, err)
        assert hashlib.md5(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_closed_stdout_is_exit_1_and_nothing_on_stderr(self, fmt):
        with subprocess.Popen(
            [sys.executable, "-m", "eqdomain", "enumerate", "--order", "4", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")

    def test_invalid_input_is_exit_2_with_its_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eqdomain", "verify-theorem", "--max-order", "0"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: --max-order must be >= 1\n")

    def test_enumerate_writes_blocks_while_the_search_runs(self, tmp_path):
        log = tmp_path / "writes.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", RECORDED_WRITES, str(log)], capture_output=True, text=True, env=src_env(), timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        writes = [json.loads(line) for line in log.read_text().splitlines()]
        assert sum(lines for lines, _ in writes) == 3492
        assert writes[0] == [512, False]
        assert max(lines for lines, _ in writes) <= 512

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the session of each process in /proc")
    @pytest.mark.parametrize("ending, exit_code", [("normal", 0), ("stdout-closed", 1), ("worker-lost", 3)])
    def test_no_process_of_the_session_is_left(self, tmp_path, ending, exit_code):
        argv = ["verify-theorem", "--max-order", "4", "--jobs", "2"]
        if ending == "worker-lost":
            command = [sys.executable, "-c", DIES_THROUGH_ENTRY, *argv]
        else:
            command = [sys.executable, "-m", "eqdomain", *argv]
        stdout = subprocess.PIPE if ending == "stdout-closed" else subprocess.DEVNULL
        # stderr goes to a file: a pipe would be held open by any worker left
        with open(tmp_path / "err", "w+") as stderr, subprocess.Popen(
            command, stdout=stdout, stderr=stderr, env=src_env(), start_new_session=True
        ) as proc:
            if ending == "stdout-closed":
                assert proc.stdout.readline()
                proc.stdout.close()
            code = proc.wait(timeout=120)
            left = session_processes(proc.pid)
            stderr.seek(0)
            err = stderr.read()
        assert code == exit_code, err
        assert left == []
        if ending == "worker-lost":
            assert err == "error: a worker process died; lost the order-4 tables 1,981 to 2,035\n"
        else:
            assert err == ""


class TestClosure:
    def test_builtin_m3(self, capsys, table_file):
        code, out, _ = run(capsys, "closure", table_file(LEFT_ZERO), "--set", "m3")
        assert code == 0
        doc = json.loads(out)
        assert doc["closure_size"] == 8
        assert doc["is_algebraic"] is False
        assert doc["separating_point"] == [0, 1, 1]

    def test_m4_fixes_arity(self, capsys, table_file):
        code, _, err = run(
            capsys, "closure", table_file(Z2), "--set", "m4", "--arity", "3"
        )
        assert code == 2

    def test_points_file(self, capsys, table_file, tmp_path):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([[0, 0], [1, 1]]))
        code, out, _ = run(
            capsys,
            "closure",
            table_file(MIN2),
            "--set",
            f"@{points}",
            "--arity",
            "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_algebraic"] is True  # the diagonal solves x1 = x2

    def test_equations_file(self, capsys, table_file, tmp_path):
        eqs = tmp_path / "system.eqs"
        eqs.write_text("x1 x2 = x2 x1  # commutation\n")
        code, out, _ = run(
            capsys, "closure", table_file(LEFT_ZERO), "--set", f"@{eqs}", "--arity", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_algebraic"] is True
        assert doc["closure"] == [[0, 0], [1, 1]]

    @pytest.mark.parametrize(
        "obj, arity, message",
        [
            ([[0, 1.5]], "2", "not an integer"),
            ([[0, "a"]], "2", "not an integer"),
            ([[0, True]], "2", "not an integer"),
            ({"n": 2, "k": 2, "points": 5}, "2", "'points' must be a list"),
            ({"n": [2], "k": 2, "points": []}, "2", "'n' must be an integer"),
            ({"n": 2, "k": [2], "points": []}, "2", "'k' must be an integer"),
            ({"n": 2, "k": 5, "points": []}, None, "--allow-large"),
            ({"n": 2, "k": 3, "points": []}, "2", "k=3, expected 2"),
            ({"n": 2, "k": 2, "points": [[0, 1]], "bitmap": "1"}, "2", "both 'points' and 'bitmap'"),
        ],
    )
    def test_malformed_points_file_is_exit_2(
        self, capsys, table_file, tmp_path, obj, arity, message
    ):
        points = tmp_path / "points.json"
        points.write_text(json.dumps(obj))
        argv = ["closure", table_file(MIN2), "--set", f"@{points}"]
        if arity is not None:
            argv += ["--arity", arity]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_bad_set_spec(self, capsys, table_file):
        code, _, err = run(capsys, "closure", table_file(Z2), "--set", "m5")
        assert code == 2

    def test_budget_is_exit_3(self, capsys, table_file):
        code, out, err = run(capsys, "closure", table_file(A2), "--set", "m4", "--budget", "2")
        assert (code, out) == (3, "")
        assert err == "error: term-function closure exceeded the budget at size 3\n"

    def test_budget_bounds_the_restricted_clone(self, capsys, table_file):
        # the clone restricted to m4 has 105,112 functions, the whole
        # clone 442,392
        path = table_file(A2)
        code, out, err = run(capsys, "closure", path, "--set", "m4", "--budget", "105111")
        assert (code, out) == (3, "")
        assert err == "error: term-function closure exceeded the budget at size 105112\n"
        code, out, _ = run(capsys, "closure", path, "--set", "m4", "--budget", "105112")
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == FROZEN_CLOSURE


class TestTermFunctions:
    def test_semilattice(self, capsys, table_file):
        code, out, _ = run(
            capsys, "term-functions", table_file(MIN2), "--arity", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["witnesses"] == ["x1", "x2", "x1 x2"]

    def test_budget_is_exit_3(self, capsys, table_file):
        code, _, err = run(
            capsys, "term-functions", table_file(Z2), "--arity", "2", "--budget", "1"
        )
        assert code == 3

    def test_arity_limit(self, capsys, table_file):
        code, _, err = run(capsys, "term-functions", table_file(Z2), "--arity", "5")
        assert code == 2
        assert "--allow-large" in err


# Runs one CLI command in a fresh interpreter, then reports which of the
# heavy modules it loaded; this suite's own imports load numpy already.
# Checking the theorem needs none of the clone engine's modules.
PROBE = """
import contextlib, io, json, sys
from eqdomain.cli import main
argv = json.loads(sys.argv[1])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(argv) if argv else 0
heavy = ("numpy", "multiprocessing", "eqdomain.terms", "eqdomain.geometry", "dataclasses", "inspect")
loaded = [m for m in heavy if m in sys.modules]
print(json.dumps({"code": code, "out": out.getvalue(), "loaded": loaded}))
"""


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter and parse the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def probe(*argv):
    return run_python(PROBE, json.dumps(argv))


class TestColdStart:
    def test_module_entry_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "eqdomain", "enumerate", "--order", "3"],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 113
        imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
        assert "eqdomain.cli" in imported
        assert not {"numpy", "multiprocessing"} & imported

    @pytest.mark.parametrize(
        "argv, lines",
        [
            ((), 0),  # import eqdomain.cli, and with it the package
            (("enumerate", "--order", "4", "--mode", "iso"), 188),
            (("verify-theorem", "--max-order", "3", "--jobs", "1"), 8 + 113 + 1),
        ],
    )
    def test_stream_commands_load_no_numpy(self, argv, lines):
        result = probe(*argv)
        assert result["code"] == 0
        assert len(result["out"].splitlines()) == lines
        assert result["loaded"] == []

    def test_check_loads_no_numpy(self, table_file):
        result = probe("check", table_file(LEFT_ZERO))
        assert result["code"] == 0
        assert json.loads(result["out"])["separating_point"] == [0, 1, 1]
        assert result["loaded"] == []

    def test_pool_loads_multiprocessing_only(self):
        result = probe("verify-theorem", "--max-order", "3", "--jobs", "2")
        assert result["code"] == 0
        assert result["out"] == probe("verify-theorem", "--max-order", "3", "--jobs", "1")["out"]
        assert result["loaded"] == ["multiprocessing"]

    def test_closure_loads_numpy(self, table_file):
        result = probe("closure", table_file(LEFT_ZERO), "--set", "m3", "--format", "text")
        assert result["code"] == 0
        assert result["out"] == (
            "order 2  arity 3  set m3\n"
            "input size 6, closure size 8\n"
            "closure points: (0, 0, 0) (0, 0, 1) (0, 1, 0) (0, 1, 1) (1, 0, 0) (1, 0, 1) (1, 1, 0) (1, 1, 1)\n"
            "algebraic: no\n"
            "separating point: (0, 1, 1)\n"
        )
        assert "numpy" in result["loaded"]

    def test_term_functions_loads_numpy(self, table_file):
        result = probe("term-functions", table_file(Z2), "--arity", "2", "--format", "text")
        assert result["code"] == 0
        assert result["out"] == (
            "order 2  arity 2  distinct term functions: 4\n  x1\n  x2\n  x1^2\n  x1 x2\n"
        )
        assert "numpy" in result["loaded"]
        assert "eqdomain.geometry" not in result["loaded"]

    def test_one_job_loads_no_pool(self):
        result = run_python(MODULES_AFTER_MAIN, json.dumps(["verify-theorem", "--max-order", "3", "--jobs", "1"]))
        assert result == {
            "code": 0,
            "loaded": ["eqdomain.cli", "eqdomain.commands", "eqdomain.enumeration", "eqdomain.semigroups", "eqdomain.witnesses"],
        }

    def test_enumerate_loads_only_what_it_runs(self):
        result = run_python(IMPORT_SETS)
        assert result["code"] == 0
        assert "eqdomain.cli" in result["import"]
        assert not NOT_AT_START & {*result["import"], *result["enumerate"]}


# What importing the CLI, and then an enumerate run, add to the modules a
# bare interpreter (site imports included) has loaded
IMPORT_SETS = """
import contextlib, io, json, sys
bare = set(sys.modules)
import eqdomain.cli as cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["enumerate", "--order", "3"])
after = set(sys.modules)
print(json.dumps({"code": code, "import": sorted(imported - bare), "enumerate": sorted(after - bare)}))
"""
# enumerate needs none of these, and without cached bytecode each one is
# compiled again at every start
NOT_AT_START = {
    "eqdomain.terms",
    "eqdomain.geometry",
    "eqdomain.witnesses",
    "eqdomain.pool",
    "eqdomain.commands",
    "numpy",
    "dataclasses",
    "inspect",
}

# Rebinds check_semigroup in the CLI before anything read it, as
# perfbench/tracer.py does, and counts the calls that reach it
REBOUND_BEFORE_USE = """
import contextlib, io, json
import eqdomain.cli as cli
import eqdomain.witnesses as witnesses
calls = []
def counted(S, budget):
    calls.append(S)
    return witnesses.check_semigroup(S, budget=budget)
cli.check_semigroup = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-theorem", "--max-order", "2"])
print(json.dumps({"code": code, "calls": len(calls)}))
"""

# Records, as each worker is started, whether the CLI has bound what its
# checks call, so that a forked worker inherits it instead of compiling it
BOUND_BEFORE_FORK = """
import contextlib, io, json, sys
import eqdomain.cli as cli
import eqdomain.pool as pool
start, bound = pool._start_worker, []
def recording(fn, cpu):
    names = ("check_semigroup", "BudgetExceeded", "WitnessNotFound")
    bound.append(all(n in vars(cli) for n in names) and "eqdomain.witnesses" in sys.modules)
    return start(fn, cpu)
pool._start_worker = recording
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify-theorem", "--max-order", "3", "--jobs", "2"]))
    codes.append(cli.main(["check", sys.argv[1], "--jobs", "2"]))
print(json.dumps({"codes": codes, "bound": bound}))
"""

# Every name the package exported when it imported all its modules at once
PACKAGE_EXPORTS = {
    "semigroups": (
        "DEFAULT_BUDGET BudgetExceeded "
        "AssociativityViolation Case Classification OutOfRangeEntry Semigroup TableError classify"
    ),
    "terms": (
        "MAX_EXPONENT EmptyTermError Equation System "
        "Term TermFunction TermFunctions TermSyntaxError VariableOutOfRange "
        "coordinate_grid decode_point encode_point format_word "
        "parse_equation parse_equations parse_term term_functions"
    ),
    "geometry": (
        "ClosureCertificate PointSet algebraic_closure is_algebraic solution_set "
        "union_target_m3 union_target_m4"
    ),
    "witnesses": (
        "WitnessNotFound WitnessReport check_semigroup witness_lemma1_case1 "
        "witness_lemma1_case2 witness_lemma2 witness_lemma3 in_pair_closure"
    ),
    "enumeration": (
        "MODES CorpusError CorpusWarning enumerate_tables format_table parse_corpus read_corpus"
    ),
}

# The names the package no longer exports: no command and no documented
# library call runs them, so each was deleted or moved to tests/support.py
REMOVED_EXPORTS = {
    "semigroups": (
        "ElementProfile element_profile is_idempotent is_nowhere_commutative "
        "is_rectangular_band monogenic_equal monogenic_table satisfies_x2_x3"
    ),
    "terms": "all_points eval_term",
    "witnesses": "ExponentVector exponent_vector power_eval verify_eq1_argument",
    "enumeration": "CanonicalForm canonicalize is_canonical",
}

# Resolves each export in a fresh interpreter, where none is loaded yet, and
# prints the names that fail one of the three ways to reach them, then the
# removed names that the package or their former module still has
RESOLVE_EXPORTS = """
import importlib, json, sys
import eqdomain
exports = json.loads(sys.argv[1])
listed = set(dir(eqdomain))
failed = []
for module, names in exports.items():
    source = importlib.import_module("eqdomain." + module)
    for name in names.split():
        scope = {}
        exec(f"from eqdomain import {name}", scope)
        if not (name in listed and scope[name] is getattr(eqdomain, name) is getattr(source, name)):
            failed.append(name)
try:
    eqdomain.no_such_name
    failed.append("no_such_name")
except AttributeError:
    pass
present = []
for module, names in json.loads(sys.argv[2]).items():
    for owner in (eqdomain, importlib.import_module("eqdomain." + module)):
        present.extend(f"{owner.__name__}.{name}" for name in names.split() if hasattr(owner, name))
print(json.dumps({"failed": failed, "present": present, "version": eqdomain.__version__}))
"""

# Resolves from the package, in a fresh interpreter, every name that a
# module declares in its __all__, and prints the names that resolve to
# another object, the names two modules declare, and the names the
# package's __all__ lists beyond those and the module names, or misses
RESOLVE_DECLARED = """
import collections, importlib, json, sys
import eqdomain
modules = json.loads(sys.argv[1])
declared = {m: importlib.import_module("eqdomain." + m) for m in modules}
other = [
    name
    for module in declared.values()
    for name in module.__all__
    if getattr(eqdomain, name) is not getattr(module, name)
]
counts = collections.Counter(name for module in declared.values() for name in module.__all__)
print(json.dumps({
    "other": other,
    "twice": sorted(name for name, count in counts.items() if count > 1),
    "listed": sorted(set(eqdomain.__all__) ^ {*counts, *modules}),
}))
"""

# Imports the CLI as a name of the package, which no module declares, and
# prints the package's modules and numpy, if loaded
FROM_PACKAGE_IMPORT_CLI = """
import json, sys
from eqdomain import cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("eqdomain.") or m == "numpy")))
"""

# The same for the package's other modules that export nothing
FROM_PACKAGE_IMPORT_POOL = FROM_PACKAGE_IMPORT_CLI.replace("import cli", "import pool")
FROM_PACKAGE_IMPORT_COMMANDS = FROM_PACKAGE_IMPORT_CLI.replace("import cli", "import commands")

# Runs a command in this process and prints the package's modules then loaded
MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from eqdomain.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("eqdomain."))}))
"""

# The same for the theorem's checker, which the package finds in witnesses
# before it looks in terms or geometry
FROM_PACKAGE_IMPORT_CHECK = """
import json, sys
from eqdomain import check_semigroup
print(json.dumps(sorted(m for m in sys.modules if m.startswith("eqdomain.") or m == "numpy")))
"""

# A dunder lookup, as ``hasattr(obj, "__wrapped__")`` in inspect and
# decorators makes, and the modules it loads
HASATTR_DUNDER = """
import json, sys
import eqdomain
found = hasattr(eqdomain, "__wrapped__")
print(json.dumps([found, sorted(m for m in sys.modules if m.startswith("eqdomain.") or m == "numpy")]))
"""


# The same for a name with one leading underscore, as IPython looks up
# ``_repr_html_`` when it displays an object
HASATTR_PRIVATE = HASATTR_DUNDER.replace("__wrapped__", "_repr_html_")


# Makes enumerate raise an error that main maps to no exit code, and
# prints what reaches the caller
UNMAPPED_IN_ENUMERATE = """
import json
import eqdomain.cli as cli
class Unmapped(Exception):
    pass
def enumerate_tables(*args, **kwargs):
    raise Unmapped("injected")
cli.enumerate_tables = enumerate_tables
try:
    cli.main(["enumerate", "--order", "2"])
except Exception as e:
    print(json.dumps({"raised": type(e).__name__, "error": str(e)}))
"""


def counting(fn, calls):
    """``fn``, appending the arguments of each call to ``calls``."""

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


class TestLazyBinding:
    def test_commands_call_the_names_bound_in_the_cli(self, capsys, monkeypatch, table_file):
        calls = {}
        for name in ("check_semigroup", "enumerate_tables", "algebraic_closure", "term_functions"):
            calls[name] = []
            monkeypatch.setattr(cli, name, counting(getattr(cli, name), calls[name]))
        path = table_file(Z2)
        assert run(capsys, "verify-theorem", "--max-order", "2", "--mode", "raw")[0] == 0
        assert (len(calls["check_semigroup"]), len(calls["enumerate_tables"])) == (8, 1)
        assert run(capsys, "closure", path, "--set", "m3")[0] == 0
        assert len(calls["algebraic_closure"]) == 1
        assert run(capsys, "term-functions", path, "--arity", "2")[0] == 0
        assert len(calls["term_functions"]) == 1

    def test_a_name_rebound_before_use_stays_rebound(self):
        assert run_python(REBOUND_BEFORE_USE) == {"code": 0, "calls": 8}

    def test_workers_start_after_the_checks_are_bound(self, table_file):
        corpus = table_file(Z2, "corpus.txt")
        Path(corpus).write_text(format_table(Z2) + "\n\n" + format_table(LEFT_ZERO) + "\n")
        result = run_python(BOUND_BEFORE_FORK, corpus)
        assert result["codes"] == [0, 0]
        assert result["bound"] == [True, True, True, True]

    def test_an_unmapped_error_in_enumerate_propagates_as_itself(self):
        result = run_python(UNMAPPED_IN_ENUMERATE)
        assert result == {"raised": "Unmapped", "error": "injected"}

    def test_package_exports_resolve_on_first_use(self):
        result = run_python(RESOLVE_EXPORTS, json.dumps(PACKAGE_EXPORTS), json.dumps(REMOVED_EXPORTS))
        assert result == {"failed": [], "present": [], "version": "0.1.0"}


class TestExportResolver:
    def test_each_declared_name_resolves_to_its_module_s_object(self):
        result = run_python(RESOLVE_DECLARED, json.dumps(list(PACKAGE_EXPORTS)))
        assert result == {"other": [], "twice": [], "listed": []}

    def test_importing_the_cli_from_the_package_loads_only_what_enumerate_runs(self):
        assert run_python(FROM_PACKAGE_IMPORT_CLI) == [
            "eqdomain.cli",
            "eqdomain.enumeration",
            "eqdomain.semigroups",
        ]

    def test_importing_the_pool_from_the_package_loads_only_the_pool(self):
        assert run_python(FROM_PACKAGE_IMPORT_POOL) == ["eqdomain.pool"]

    def test_importing_the_commands_from_the_package_loads_only_what_they_import(self):
        assert run_python(FROM_PACKAGE_IMPORT_COMMANDS) == [
            "eqdomain.cli",
            "eqdomain.commands",
            "eqdomain.enumeration",
            "eqdomain.semigroups",
        ]

    def test_importing_the_checker_from_the_package_loads_no_clone_engine(self):
        assert run_python(FROM_PACKAGE_IMPORT_CHECK) == [
            "eqdomain.enumeration",
            "eqdomain.semigroups",
            "eqdomain.witnesses",
        ]

    def test_a_dunder_lookup_loads_no_module(self):
        assert run_python(HASATTR_DUNDER) == [False, []]

    def test_a_private_lookup_loads_no_module(self):
        assert run_python(HASATTR_PRIVATE) == [False, []]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    table = path / "table.txt"
    table.write_text("2\n0 0\n0 1\n")  # the two-element semilattice
    return path


def run_quietly(*argv):
    """main(argv) with stdout and stderr captured and corpus warnings dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    # an exception escaping main would be a traceback at the command line
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ")
        assert "invalid literal" not in err  # int()'s message, not the parser's
    assert "Traceback" not in err


# corpus text: blocks of small, mostly well-formed tables, some associative
corpus_blocks = st.integers(0, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-1, n), min_size=n, max_size=n).map(lambda r: " ".join(map(str, r))),
        min_size=n,
        max_size=n,
    ).map(lambda rows: "\n".join([str(n), *rows]))
)
corpus_texts = st.lists(corpus_blocks, min_size=1, max_size=3).map("\n\n".join)

# equations at arity 2, one per line, with some bad variables and exponents
factors = st.tuples(
    st.sampled_from(["x1", "x2", "x3", "x", "y"]), st.sampled_from(["", "^2", "^0", "^65", "^"])
)
term_texts = st.lists(factors, max_size=4).map(lambda fs: " ".join(v + e for v, e in fs))
equation_texts = st.lists(
    st.tuples(term_texts, term_texts).map(" = ".join), min_size=1, max_size=3
).map("\n".join)

json_keys = st.sampled_from(["n", "k", "points", "bitmap", "encoding"]) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_keys, inner, max_size=5),
    max_leaves=12,
)
# point sets over the table's order 2: well-formed ones, then any mix of fields
point_sets = st.integers(1, 4).flatmap(
    lambda k: st.fixed_dictionaries(
        {
            "k": st.just(k),
            "points": st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), max_size=6),
        },
        optional={"n": st.just(2), "encoding": st.just("big-endian")},
    )
) | st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(0, 3) | json_values,
        "k": st.integers(0, 5) | json_values,
        "points": st.lists(st.lists(st.integers(-1, 2), max_size=4), max_size=4) | json_values,
        "bitmap": st.text("0123456789abcdefxX_- ", max_size=6) | json_values,
        "encoding": st.sampled_from(["big-endian", "little-endian"]) | json_values,
    },
)


class TestParserFuzz:
    """Random input to each parser: exit 0, or exit 2 with an error line."""

    @settings(max_examples=150, deadline=None)
    @given(st.text() | corpus_texts)
    @example("2\n0 0\n0 1\n")
    @example("1\n²\n")
    @example("2\n0 --1\n0 0\n")
    def test_corpus_file(self, fuzz_dir, text):
        path = fuzz_dir / "corpus.txt"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        code, _, err = run_quietly("check", str(path))
        assert_clean_exit(code, err)

    @settings(max_examples=150, deadline=None)
    @given(st.text() | equation_texts)
    @example("x1 x2 = x2 x1\n")
    @example("x² = x1")
    @example("x1^³ = x1")
    def test_equations_file(self, fuzz_dir, text):
        try:
            json.loads(text)
            return  # a JSON file takes the point-set branch
        except ValueError:
            pass
        path = fuzz_dir / "system.eqs"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        table = str(fuzz_dir / "table.txt")
        code, _, err = run_quietly("closure", table, "--set", f"@{path}", "--arity", "2")
        assert_clean_exit(code, err)

    @settings(max_examples=150, deadline=None)
    @given(point_sets | json_values)
    @example({"n": 2, "k": 2, "points": [[0, 0], [1, 1]]})
    @example({"n": 2, "k": 3, "bitmap": "0x81"})
    @example({"n": 2, "k": 2, "bitmap": "zz"})
    def test_point_set_file(self, fuzz_dir, obj):
        path = fuzz_dir / "points.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_quietly("closure", str(fuzz_dir / "table.txt"), "--set", f"@{path}")
        assert_clean_exit(code, err)
