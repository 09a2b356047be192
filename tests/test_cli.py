import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqdomain import DEFAULT_BUDGET, enumerate_tables
from eqdomain.cli import _map_tables, main
from support import LEFT_ZERO, MIN2, Z2


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/tables.txt")
        assert code == 2

    def test_multi_table_stream(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("2\n0 0\n1 1\n\n2\n0 1\n1 0\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [doc["lemma"] for doc in lines] == ["1.1", "3"]

    def test_text_format(self, capsys, table_file):
        code, out, _ = run(capsys, "check", table_file(LEFT_ZERO), "--format", "text")
        assert code == 0
        assert "equational domain: no" in out
        assert "[ok ]" in out

    def test_budget_exhaustion_is_exit_3(self, capsys, table_file, monkeypatch):
        monkeypatch.setenv("EQDOMAIN_BUDGET", "1")
        code, out, _ = run(capsys, "check", table_file(Z2))
        assert code == 3
        assert json.loads(out)["status"] == "budget_exceeded"

    def test_bad_budget_env(self, capsys, table_file, monkeypatch):
        monkeypatch.setenv("EQDOMAIN_BUDGET", "lots")
        code, _, err = run(capsys, "check", table_file(Z2))
        assert code == 2


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
        _, out1, _ = run(capsys, "verify-theorem", "--max-order", "2", "--jobs", "1")
        _, out2, _ = run(capsys, "verify-theorem", "--max-order", "2", "--jobs", "3")
        assert out1 == out2

    def test_reduced_mode(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--max-order", "2", "--mode", "iso")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["tables_checked"] == 5

    def test_map_tables_reads_a_stream_in_order(self):
        pulled = 0

        def tables():
            nonlocal pulled
            for S in enumerate_tables(3):
                pulled += 1
                yield S.table

        results = _map_tables(tables(), DEFAULT_BUDGET, 2, 4)
        first = next(results)
        # at most jobs + 1 chunks of 4 are out before the first result
        assert pulled <= 12
        rest = list(results)
        assert pulled == 113
        serial = _map_tables((S.table for S in enumerate_tables(3)), DEFAULT_BUDGET, 1, 4)
        assert [first, *rest] == list(serial)


class TestEnumerate:
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
    def test_order6_frozen_counts(self, capsys, mode, count):
        # OEIS A001423 and A027851 at order 6
        code, out, _ = run(capsys, "enumerate", "--order", "6", "--mode", mode, "--allow-large")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == count
        assert lines == sorted(set(lines), key=lambda line: json.loads(line)["table"])

    def test_reader_closing_early_is_not_a_traceback(self):
        # the order-4 stream is far larger than a pipe buffer, so the writer
        # is still printing when the reader goes away
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
            [sys.executable, "-m", "eqdomain", "enumerate", "--order", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert first["order"] == 4
        assert code == 1
        assert "Traceback" not in err


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
