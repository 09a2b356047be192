"""The output checkers pass real outputs and reject corrupted ones.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json

import pytest

import reference
from checks import (
    check_closure,
    check_enumeration,
    check_report,
    check_theorem,
    parse_tables,
    two_probe_certifies,
)
from inputs import A2, permutation, relabel

Z2 = ((0, 1), (1, 0))
NULL2 = ((1, 1), (1, 1))


def lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def edit_report(text: str, index: int, change) -> str:
    """The stream with record `index` passed through `change`."""
    out = lines(text)
    rec = json.loads(out[index])
    change(rec)
    out[index] = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(out)


# --- verify-theorem ------------------------------------------------------------


@pytest.fixture(scope="module")
def theorem3(eqdomain_cli):
    return eqdomain_cli("verify-theorem", "--max-order", "3", "--mode", "raw")


def first_with_lemma(text: str, lemma: str) -> int:
    return next(i for i, line in enumerate(lines(text)) if json.loads(line).get("lemma") == lemma)


def test_theorem_stream_passes(theorem3):
    assert check_theorem(theorem3, 3) == []


@pytest.mark.parametrize("lemma", ["1.1", "1.2", "2", "3"])
def test_separating_point_moved_into_target_fails(theorem3, lemma):
    i = first_with_lemma(theorem3, lemma)

    def move(rec):
        rec["separating_point"] = rec["probe_points"]["inside"][0]

    assert check_theorem(edit_report(theorem3, i, move), 3)


def test_inside_probe_outside_target_fails(theorem3):
    i = first_with_lemma(theorem3, "3")

    def move(rec):
        rec["probe_points"]["inside"][0] = rec["probe_points"]["outside"][0]

    assert any("inside probe" in e for e in check_theorem(edit_report(theorem3, i, move), 3))


def test_uncertified_separating_point_fails(theorem3):
    # diagonal probes certify nothing: x1 and x2 agree on them everywhere
    i = first_with_lemma(theorem3, "2")

    def diagonal(rec):
        a, b = rec["elements"]["a"], rec["elements"]["a2"]
        rec["probe_points"]["inside"] = [[a, a, a], [b, b, b]]

    errors = check_theorem(edit_report(theorem3, i, diagonal), 3)
    assert any("not in the closure" in e for e in errors)


def test_false_identity_fails(theorem3):
    i = first_with_lemma(theorem3, "2")

    def swap(rec):
        rec["elements"]["a"], rec["elements"]["a2"] = rec["elements"]["a2"], rec["elements"]["a"]

    assert any("does not hold" in e for e in check_theorem(edit_report(theorem3, i, swap), 3))


def test_dropped_table_fails(theorem3):
    out = lines(theorem3)
    assert any("counts" in e for e in check_theorem("".join(out[:5] + out[6:]), 3))


def test_repeated_table_fails(theorem3):
    out = lines(theorem3)
    assert check_theorem("".join(out[:5] + [out[4]] + out[6:]), 3)


def test_non_associative_table_fails(theorem3):
    def break_table(rec):
        rec["table"] = [[0, 1], [0, 0]]

    assert any("not associative" in e for e in check_theorem(edit_report(theorem3, 0, break_table), 3))


def test_missing_summary_fails(theorem3):
    assert check_theorem("".join(lines(theorem3)[:-1]), 3)


def test_failed_records_are_counted_not_checked(theorem3):
    def fail(rec):
        rec.clear()
        rec.update({"status": "budget_exceeded", "order": 2, "table": [[0, 0], [0, 0]], "size": 9})

    assert check_theorem(edit_report(theorem3, 0, fail), 3) == []


def test_two_probe_certificate():
    # Lemma 3 over Z2: a = 1, a^2 = 0, a^3 = 1
    assert two_probe_certifies(Z2, (0, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 0))
    assert not two_probe_certifies(Z2, (0, 0, 0), (1, 1, 1), (0, 1, 1))


def test_report_without_witness_fails():
    report = {
        "table": [[0, 1], [1, 0]], "elements": {}, "verified_identities": [],
        "target": None, "probe_points": {"inside": [], "outside": []},
        "separating_point": None, "is_equational_domain": True,
    }
    assert check_report(report)


# --- closure -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def closure_null2(eqdomain_cli, tmp_path_factory):
    path = tmp_path_factory.mktemp("closure") / "null2.txt"
    path.write_text("2\n1 1\n1 1\n")
    return eqdomain_cli("closure", str(path), "--set", "m4")


def null2_reference():
    kept, _ = reference.closure(NULL2, 4, reference.target_m4(2))
    return kept


def test_closure_passes(closure_null2):
    assert check_closure(closure_null2, NULL2, "m4", null2_reference()) == []


def test_closure_point_removed_fails(closure_null2):
    out = json.loads(closure_null2)
    extra = [p for p in out["closure"] if not (p[0] == p[1] or p[2] == p[3])]
    out["closure"].remove(extra[-1])
    out["closure_size"] -= 1
    assert any("reference" in e for e in check_closure(json.dumps(out), NULL2, "m4", null2_reference()))


def test_closure_missing_target_point_fails(closure_null2):
    out = json.loads(closure_null2)
    out["closure"].remove([0, 0, 0, 0])
    out["closure_size"] -= 1
    assert check_closure(json.dumps(out), NULL2, "m4", null2_reference())


def test_separating_point_not_least_fails(closure_null2):
    out = json.loads(closure_null2)
    extra = sorted(p for p in out["closure"] if not (p[0] == p[1] or p[2] == p[3]))
    assert len(extra) > 1
    out["separating_point"] = extra[1]
    assert any("separating" in e for e in check_closure(json.dumps(out), NULL2, "m4", null2_reference()))


def test_wrong_input_size_fails(closure_null2):
    out = json.loads(closure_null2)
    out["input_size"] += 1
    assert check_closure(json.dumps(out), NULL2, "m4", null2_reference())


def test_reference_clone_matches_term_function_counts(eqdomain_cli, tmp_path):
    for table in (Z2, NULL2, ((0, 0, 0), (0, 0, 1), (0, 1, 2)), relabel(A2, permutation(3, 5))):
        path = tmp_path / "t.txt"
        path.write_text("\n".join([str(len(table))] + [" ".join(map(str, r)) for r in table]))
        count = json.loads(eqdomain_cli("term-functions", str(path), "--arity", "2"))["count"]
        assert len(reference.clone(table, 2)) == count


def test_stored_reference_is_current():
    stored = json.loads(reference.REFERENCE_FILE.read_text())
    kept, functions = reference.closure(A2, 4, reference.target_m4(5))
    assert stored["table"] == [list(r) for r in A2]
    assert stored["closure"] == [list(p) for p in kept]
    assert stored["term_functions"] == functions == 442_392


def test_relabeled_reference_matches_relabeled_closure():
    perm = permutation(7, 5)
    table = relabel(A2, perm)
    kept, _ = reference.closure(table, 4, reference.target_m4(5))
    stored = json.loads(reference.REFERENCE_FILE.read_text())["closure"]
    assert {tuple(p) for p in kept} == {tuple(perm[c] for c in p) for p in stored}


# --- enumerate -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def enum3(eqdomain_cli):
    return {m: eqdomain_cli("enumerate", "--order", "3", "--mode", m) for m in ("raw", "iso", "iso-anti")}


@pytest.mark.parametrize("mode", ["raw", "iso", "iso-anti"])
def test_enumeration_passes(enum3, mode):
    assert check_enumeration(enum3[mode], 3, mode) == []


@pytest.mark.parametrize("mode", ["raw", "iso", "iso-anti"])
def test_dropped_table_fails_enumeration(enum3, mode):
    out = lines(enum3[mode])
    assert check_enumeration("".join(out[:3] + out[4:]), 3, mode)


def test_raw_stream_out_of_order_fails(enum3):
    out = lines(enum3["raw"])
    out[3], out[4] = out[4], out[3]
    assert any("increasing" in e for e in check_enumeration("".join(out), 3, "raw"))


@pytest.mark.parametrize("mode", ["iso", "iso-anti"])
def test_isomorphic_pair_fails(enum3, mode):
    out = lines(enum3[mode])
    tables = parse_tables(enum3[mode])
    twin = next(relabel(t, (1, 2, 0)) for t in tables if relabel(t, (1, 2, 0)) != t)
    out[-1] = json.dumps({"order": 3, "table": [list(r) for r in twin]}) + "\n"
    assert any("same class" in e for e in check_enumeration("".join(out), 3, mode))


def test_anti_isomorphic_pair_fails_only_up_to_anti(enum3):
    left_zero = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    right_zero = tuple(zip(*left_zero))
    assert {left_zero, right_zero} <= set(parse_tables(enum3["iso"]))
    assert check_enumeration(enum3["iso"], 3, "iso") == []
    anti = lines(enum3["iso-anti"])
    assert left_zero in parse_tables(enum3["iso-anti"])
    anti[-1] = json.dumps({"order": 3, "table": [list(r) for r in right_zero]}) + "\n"
    assert any("same class" in e for e in check_enumeration("".join(anti), 3, "iso-anti"))


def test_non_associative_table_fails_enumeration(enum3):
    out = lines(enum3["iso"])
    out[0] = json.dumps({"order": 3, "table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}) + "\n"
    assert any("associativity" in e for e in check_enumeration("".join(out), 3, "iso"))
