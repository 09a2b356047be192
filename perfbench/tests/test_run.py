"""Round bookkeeping and the per-layer arithmetic of run.py, on canned data."""

import pytest

import run


class CannedRunner:
    """Stands in for run.Runner: returns prepared outputs instead of running."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.labels = []

    def cli(self, args, label):
        self.labels.append(label)
        code, text = self.outputs.pop(0)
        return 1.0, code, text


def workload(check_errors=(), passes=1):
    return run.Workload(
        serial=[["verify-theorem", "--jobs", "1"]],
        parallel=[["verify-theorem", "--jobs", "2"]],
        ops=[10],
        check=lambda outs: list(check_errors),
        failed=run._all_or_none,
        passes=passes,
    )


def test_parallel_output_must_equal_serial_output():
    ok = run.run_round(CannedRunner([(0, "a\n"), (0, "a\n")]), workload(), None)
    assert ok.errors == [] and ok.attempted == 20 and ok.failed == 0
    bad = run.run_round(CannedRunner([(0, "a\n"), (0, "b\n")]), workload(), None)
    assert any("differs" in e for e in bad.errors)


def test_passes_alternate_and_all_outputs_must_agree():
    runner = CannedRunner([(0, "a\n")] * 3 + [(0, "b\n")])
    r = run.run_round(runner, workload(passes=2), None)
    assert runner.labels == ["verify-theorem", "verify-theorem-par", "verify-theorem-par", "verify-theorem"]
    assert len(r.serial_s) == len(r.parallel_s) == 2 and r.attempted == 40
    assert any("differs" in e for e in r.errors)


def test_repeated_round_must_repeat_the_first():
    w = workload(check_errors=["never reached"])
    same = run.run_round(CannedRunner([(0, "a\n"), (0, "a\n")]), w, ["a\n"])
    assert same.errors == []
    other = run.run_round(CannedRunner([(0, "c\n"), (0, "c\n")]), w, ["a\n"])
    assert any("differs" in e for e in other.errors)


def test_checker_errors_are_reported():
    r = run.run_round(CannedRunner([(0, "a\n"), (0, "a\n")]), workload(check_errors=["bad"]), None)
    assert r.errors == ["bad"]


def test_crashed_command_counts_as_failed_and_is_not_checked():
    w = workload(check_errors=["would fail"])
    r = run.run_round(CannedRunner([(1, ""), (1, "")]), w, None)
    assert r.failed == 20 and r.errors == []


def test_self_time_subtracts_nested_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["witnesses.check", 1.0, 9.0, 0, {"lemma": "3"}],
        ["semigroups.classify", 1.0, 2.0, 1, {}],
        ["geometry.closure", 2.0, 8.0, 1, {"pairs": 4}],
        ["terms.term_functions", 2.5, 7.5, 3, {"functions": 10, "points": 16}],
        ["enumeration.step", 9.0, 9.5, 0, {"mode": "iso"}],
        ["enumeration.canonical", 9.1, 9.2, 5, {}],
        ["enumeration.canonical", 9.2, 9.3, 5, {}],
        ["enumeration.step", 9.5, 9.6, 0, {"mode": "iso", "done": True}],
    ]
    m = run.layer_metrics([spans])
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5 - 0.1)
    assert m["witnesses.check_s"] == pytest.approx(8.0 - 1.0 - 6.0)
    assert m["witnesses.lemma3_s"] == 8.0
    assert m["geometry.closure_s"] == 1.0 and m["terms.term_functions_s"] == 5.0
    assert m["geometry.groups"] == 6 and m["geometry.agreeing_pairs"] == 4
    assert m["terms.vector_bytes.max"] == 160
    assert m["semigroups.classify_calls"] == 1
    assert m["enumeration.tables"] == 2 and m["enumeration.kept"] == 1
    assert m["enumeration.kept_ratio"] == 0.5
    assert m["enumeration.search_s"] == pytest.approx(0.4)
    assert set(m) == set(run.PER_LAYER_UNITS)
