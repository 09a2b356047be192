"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Frozen regression values in this module were produced by independent brute
force (raw associative-table counts at orders 1-3) or computed once by the
validated enumerator and frozen (order-4 raw count, reduced-mode counts).
"""

import json
import random
import subprocess
import sys
import time

import pytest

from eqdomain import (
    Semigroup,
    algebraic_closure,
    classify,
    enumerate_tables,
    in_pair_closure,
    is_algebraic,
    union_target_m3,
    union_target_m4,
    witness_lemma1_case1,
    witness_lemma1_case2,
    witness_lemma2,
    witness_lemma3,
)
from eqdomain.semigroups import Case
from support import (
    NULL2,
    RECT_BAND_2X2,
    Z2,
    ExponentVector,
    brute_force_assoc_tables,
    element_profile,
    in_m3,
    in_m4,
    is_nowhere_commutative,
    is_rectangular_band,
    monogenic_table,
    naive_closure_mask,
    naive_is_algebraic,
    random_point_set,
    search_free_pair,
    uniform_pair,
    verify_eq1_argument,
)

RAW_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}
ISO_COUNTS = {2: 5, 3: 24}
ANTI_COUNTS = {2: 4, 3: 18}
# iso-anti classes at orders 2-5 (OEIS A001423)
ANTI_CLASSES = {2: 4, 3: 18, 4: 126, 5: 1160}


def verdict(number, label, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "eqdomain", *argv],
        capture_output=True,
        text=True,
    )


def parse_stream(stdout):
    lines = [json.loads(line) for line in stdout.splitlines()]
    return lines[:-1], lines[-1]


def separating_point_verified(report):
    S = Semigroup(report["table"])
    target = union_target_m3(S) if report["target"] == "m3" else union_target_m4(S)
    sep = tuple(report["separating_point"])
    closure = algebraic_closure(S, target).closure
    return sep in closure and sep not in target


@pytest.fixture(scope="module")
def verify3():
    start = time.monotonic()
    proc = run_cli("verify-theorem", "--max-order", "3", "--mode", "raw", "--jobs", "1")
    return proc, time.monotonic() - start


def test_criterion_1_main_theorem_up_to_order_3(verify3):
    proc, elapsed = verify3
    assert proc.returncode == 0, proc.stderr
    reports, summary = parse_stream(proc.stdout)
    brute = {n: len(brute_force_assoc_tables(n)) for n in (2, 3)}
    ok = brute == {2: 8, 3: 113}
    ok = ok and summary["per_order"]["2"]["tables"] == brute[2]
    ok = ok and summary["per_order"]["3"]["tables"] == brute[3]
    ok = ok and len(reports) == brute[2] + brute[3]
    ok = ok and all(r["is_equational_domain"] is False for r in reports)
    ok = ok and all(separating_point_verified(r) for r in reports)
    ok = ok and elapsed < 60.0
    verdict(1, f"all {len(reports)} tables of order <= 3 verified in {elapsed:.1f}s", ok)


def test_criterion_2_main_theorem_order_4():
    start = time.monotonic()
    proc = run_cli("verify-theorem", "--max-order", "4", "--mode", "raw", "--jobs", "1")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    reports, summary = parse_stream(proc.stdout)
    order4 = summary["per_order"]["4"]
    ok = summary["budget"] == 10**6
    ok = ok and order4["tables"] == RAW_COUNTS[4]
    ok = ok and order4["budget_exceeded"] == 0 and order4["inconsistent"] == 0
    ok = ok and all(r["is_equational_domain"] is False for r in reports)
    ok = ok and all(
        separating_point_verified(r) for r in reports if r["order"] == 4
    )
    ok = ok and elapsed < 900.0
    verdict(2, f"all {order4['tables']} order-4 tables verified in {elapsed:.1f}s", ok)


def test_criterion_3_nowhere_commutative_iff_rectangular_band(
    semigroups_le3, semigroups_order4
):
    counterexamples = [
        S.table
        for S in semigroups_le3 + semigroups_order4
        if is_nowhere_commutative(S) != is_rectangular_band(S)
    ]
    verdict(
        3,
        f"predicate equivalence on {len(semigroups_le3) + len(semigroups_order4)} "
        f"tables of order <= 4, {len(counterexamples)} counterexamples",
        not counterexamples,
    )


def test_criterion_4_oracle_equivalence(semigroups_le3):
    rng = random.Random(20240)
    instances = 1000
    disagreements = 0
    for _ in range(instances):
        S = rng.choice(semigroups_le3)
        k = rng.randint(1, 3)
        Y = random_point_set(rng, S.order, k)
        cert = algebraic_closure(S, Y)
        if cert.closure.mask != naive_closure_mask(S, Y):
            disagreements += 1
        elif is_algebraic(S, Y) != naive_is_algebraic(S, Y):
            disagreements += 1
    verdict(
        4,
        f"{instances} random (S, Y, k) instances vs the word oracle, "
        f"{disagreements} disagreements",
        disagreements == 0,
    )


def test_criterion_5_exponent_argument_sweep():
    vectors = [
        ExponentVector((n1, n2, n3, n4))
        for n1 in range(4)
        for n2 in range(4)
        for n3 in range(4)
        for n4 in range(4)
    ]
    profiles = [
        element_profile(monogenic_table(m, r), 0)
        for m in range(1, 5)
        for r in range(1, 5)
    ]
    checked = 0
    failures = 0
    for prof in profiles:
        for t in vectors:
            for s in vectors:
                checked += 1
                if not verify_eq1_argument(prof, t, s):
                    failures += 1
    verdict(5, f"{checked} exponent implications checked, {failures} failures", failures == 0)


def test_criterion_6_lemma_probe_points(semigroups_le3, semigroups_order4):
    builders = {
        Case.IDEMPOTENT_NOWHERE_COMMUTATIVE: witness_lemma1_case1,
        Case.IDEMPOTENT_COMMUTING_PAIR: witness_lemma1_case2,
        Case.BOUNDED_NON_IDEMPOTENT: witness_lemma2,
        Case.UNBOUNDED: witness_lemma3,
    }
    checked = 0
    failures = 0
    for S in semigroups_le3 + semigroups_order4:
        cls = classify(S)
        if cls.case is Case.TRIVIAL:
            continue
        checked += 1
        report = builders[cls.case](S)
        member = in_m3 if report.target == "m3" else in_m4
        if not all(holds for _, holds in report.verified_identities):
            failures += 1
        elif not all(member(p) for p in report.inside_points):
            failures += 1
        elif any(member(p) for p in report.outside_points):
            failures += 1
    verdict(
        6,
        f"identities and probe memberships on {checked} nontrivial tables, "
        f"{failures} failures",
        failures == 0,
    )


def test_criterion_7_closure_operator_laws(semigroups_le3):
    rng = random.Random(20241)
    instances = 1000
    failures = 0
    for _ in range(instances):
        S = rng.choice(semigroups_le3)
        k = rng.randint(1, 3)
        Y = random_point_set(rng, S.order, k)
        Z = Y | random_point_set(rng, S.order, k)
        clY = algebraic_closure(S, Y).closure
        clZ = algebraic_closure(S, Z).closure
        extensive = Y.issubset(clY)
        idempotent = algebraic_closure(S, clY).closure == clY
        monotone = clY.issubset(clZ)
        if not (extensive and idempotent and monotone):
            failures += 1
    verdict(
        7,
        f"closure laws on {instances} random point sets, {failures} failures",
        failures == 0,
    )


def test_criterion_8_regression_counts_and_determinism(verify3):
    counts_ok = True
    for n in (2, 3):
        counts_ok &= sum(1 for _ in enumerate_tables(n, "raw")) == RAW_COUNTS[n]
        counts_ok &= sum(1 for _ in enumerate_tables(n, "up_to_iso")) == ISO_COUNTS[n]
        counts_ok &= (
            sum(1 for _ in enumerate_tables(n, "up_to_iso_and_anti")) == ANTI_COUNTS[n]
        )
    jobs1, _ = verify3
    jobs2 = run_cli("verify-theorem", "--max-order", "3", "--mode", "raw", "--jobs", "2")
    deterministic = jobs1.stdout == jobs2.stdout and jobs2.returncode == 0
    verdict(
        8,
        f"enumeration counts frozen (raw {RAW_COUNTS[2]}/{RAW_COUNTS[3]}, "
        f"iso {ISO_COUNTS[2]}/{ISO_COUNTS[3]}, anti {ANTI_COUNTS[2]}/{ANTI_COUNTS[3]}) "
        "and byte-identical output across --jobs",
        counts_ok and deterministic,
    )


# the iso-anti classes of each order by the case of search_free_pair
FREE_PAIR_CASES = {
    2: {"A": 2, "B-rect": 1, "B-nil": 1},
    3: {"A": 14, "B-rect": 2, "B-nil": 2},
    4: {"A": 109, "B-rect": 7, "B-nil": 10},
    5: {"A": 1_038, "B-rect": 29, "B-nil": 93},
    6: {"A": 12_876, "B-rect": 284, "B-nil": 2_813},
}


def free_pair_cases(tables):
    """The count of each case of search_free_pair over ``tables``, and the
    tables whose chosen pair ``in_pair_closure`` rejects."""
    cases, rejected = {}, []
    for S in tables:
        case, x, y = search_free_pair(S)
        cases[case] = cases.get(case, 0) + 1
        if not in_pair_closure(S, (x, x, y), (x, y, x), (x, y, y)):
            rejected.append(S.table)
    return cases, rejected


@pytest.mark.parametrize("order", sorted(ANTI_CLASSES))
def test_uniform_pair_certificate_on_every_class(order):
    """Beyond the paper: every class up to order 5 has an idempotent x and
    a y != x with (x, y, y) in the closure of (x, x, y) and (x, y, x), the
    unbounded tables of lemma 3 included.  Finding such a pair is invariant
    under isomorphism and anti-isomorphism, so the classes cover every table.
    The pair search_free_pair chooses is certified too.
    """
    tables = list(enumerate_tables(order, "up_to_iso_and_anti"))
    missing = [S.table for S in tables if uniform_pair(S) is None]
    print(f"order {order}: {len(tables)} classes, {len(missing)} without a certified pair")
    assert len(tables) == ANTI_CLASSES[order]
    assert not missing
    assert free_pair_cases(tables) == (FREE_PAIR_CASES[order], [])


def test_uniform_pair_certificate_at_order_6(order6_stream):
    """The same sweep over the 15,973 iso-anti classes of order 6, read from
    the ``enumerate`` stream whose count test_cli.py checks."""
    code, lines = order6_stream("iso-anti")
    assert code == 0
    tables = [tuple(map(tuple, json.loads(line)["table"])) for line in lines]
    missing = [t for t in tables if uniform_pair(Semigroup._trusted(t)) is None]
    print(f"order 6: {len(tables)} classes, {len(missing)} without a certified pair")
    assert len(tables) == 15_973
    assert not missing
    assert free_pair_cases(map(Semigroup._trusted, tables)) == (FREE_PAIR_CASES[6], [])


@pytest.mark.parametrize(
    "S, pair",
    [(Z2, ("A", 0, 1)), (RECT_BAND_2X2, ("B-rect", 0, 1)), (NULL2, ("B-nil", 1, 0))],
    ids=["Z2", "rect-band-2x2", "null2"],
)
def test_search_free_pair_cases(S, pair):
    assert search_free_pair(S) == pair
