from itertools import chain

import pytest

import eqdomain.witnesses as witnesses
from eqdomain import (
    BudgetExceeded,
    Case,
    Semigroup,
    algebraic_closure,
    check_semigroup,
    classify,
    enumerate_tables,
    in_pair_closure,
    union_target_m3,
    union_target_m4,
    witness_lemma1_case1,
    witness_lemma1_case2,
    witness_lemma2,
    witness_lemma3,
)
from support import (
    CHAIN3,
    LEFT_ZERO,
    MIN2,
    NULL2,
    RECT_BAND_2X2,
    RIGHT_ZERO,
    Z2,
    Z3,
    ExponentVector,
    element_profile,
    in_m3,
    in_m4,
    monogenic_table,
    reference_report,
    verify_eq1_argument,
)


def identities_hold(report):
    return all(holds for _, holds in report.verified_identities)


class TestCase1Witness:
    def test_right_zero_uses_product_pair(self):
        r = witness_lemma1_case1(RIGHT_ZERO)
        assert r.elements == {"a": 0, "b": 1, "c": 1}
        names = [name for name, _ in r.verified_identities]
        assert "a*c = c" in names and "c*a = a" in names
        assert identities_hold(r)

    def test_left_zero_falls_back_to_mirror_pair(self):
        r = witness_lemma1_case1(LEFT_ZERO)
        assert r.elements == {"a": 0, "b": 1, "c": 1}
        names = [name for name, _ in r.verified_identities]
        assert "a*c = a" in names and "c*a = c" in names
        assert identities_hold(r)
        assert r.outside_points == ((0, 1, 1),)
        assert r.inside_points == ((0, 0, 1), (0, 1, 0))

    def test_rect_band_2x2(self):
        r = witness_lemma1_case1(RECT_BAND_2X2)
        a, c = r.elements["a"], r.elements["c"]
        assert a != c
        assert RECT_BAND_2X2.mul(a, c) == c and RECT_BAND_2X2.mul(c, a) == a
        assert identities_hold(r)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            witness_lemma1_case1(MIN2)


class TestCase2Witness:
    def test_two_element_semilattice(self):
        r = witness_lemma1_case2(MIN2)
        assert r.elements == {"a": 0, "b": 1, "c": 0, "d": 1}
        assert identities_hold(r)
        assert r.outside_points == ((1, 0, 0),)
        assert r.inside_points == ((1, 1, 0), (1, 0, 1))

    def test_chain_semilattice(self):
        r = witness_lemma1_case2(CHAIN3)
        assert r.elements == {"a": 0, "b": 1, "c": 0, "d": 1}
        assert identities_hold(r)

    def test_product_outside_pair_keeps_d_equal_a(self):
        # band on {a, b, c=ab} where ab = ba differs from both arguments
        S = Semigroup(
            [
                [0, 2, 2],
                [2, 1, 2],
                [2, 2, 2],
            ]
        )
        r = witness_lemma1_case2(S)
        assert r.elements["c"] == 2 and r.elements["d"] == 0
        assert identities_hold(r)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            witness_lemma1_case2(LEFT_ZERO)


class TestLemma2Witness:
    def test_null_pair(self):
        r = witness_lemma2(NULL2)
        assert r.elements == {"a": 0, "a2": 1}
        assert identities_hold(r)
        assert r.outside_points == ((0, 1, 1),)
        assert r.inside_points == ((0, 0, 1), (0, 1, 0))

    def test_zero_element_variant(self):
        # a=1 with a^2 = 0 absorbing; 2 is an unrelated idempotent
        S = Semigroup([[0, 0, 0], [0, 0, 0], [0, 0, 2]])
        r = witness_lemma2(S)
        a, a2 = r.elements["a"], r.elements["a2"]
        assert S.mul(a, a) == a2 and a != a2
        assert identities_hold(r)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            witness_lemma2(Z2)


class TestLemma3Witness:
    def test_z2(self):
        r = witness_lemma3(Z2)
        assert r.elements == {"a": 1, "a2": 0, "a3": 1}
        assert r.inside_points == ((0, 1, 1, 1), (1, 1, 0, 1))
        assert r.outside_points == ((1, 0, 1, 0),)
        assert identities_hold(r)

    def test_z3(self):
        r = witness_lemma3(Z3)
        assert r.elements == {"a": 1, "a2": 2, "a3": 0}
        assert r.outside_points == ((0, 2, 0, 2),)
        assert identities_hold(r)

    def test_monogenic_index3(self):
        S = monogenic_table(3, 1)
        r = witness_lemma3(S)
        assert r.elements == {"a": 0, "a2": 1, "a3": 2}
        assert identities_hold(r)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            witness_lemma3(NULL2)


class TestProbeInvariants:
    def test_probe_membership_and_subsemigroup(self, semigroups_le3):
        for S in semigroups_le3:
            cls = classify(S)
            if cls.case is Case.TRIVIAL:
                continue
            r = {
                Case.IDEMPOTENT_NOWHERE_COMMUTATIVE: witness_lemma1_case1,
                Case.IDEMPOTENT_COMMUTING_PAIR: witness_lemma1_case2,
                Case.BOUNDED_NON_IDEMPOTENT: witness_lemma2,
                Case.UNBOUNDED: witness_lemma3,
            }[cls.case](S)
            assert identities_hold(r)
            member = in_m3 if r.target == "m3" else in_m4
            for p in r.inside_points:
                assert member(p)
            for p in r.outside_points:
                assert not member(p)
            if r.lemma == "3":
                allowed = set(element_profile(S, r.elements["a"]).cycle_powers)
            elif r.lemma == "2":
                allowed = {r.elements["a"], r.elements["a2"]}
            elif r.lemma == "1.2":
                allowed = {r.elements["d"], r.elements["c"]}
            else:
                allowed = {r.elements["a"], r.elements["c"]}
            for p in r.inside_points + r.outside_points:
                assert set(p) <= allowed


class TestPairCertificate:
    def test_outside_probe_certified_up_to_order_4(self, semigroups_le3, semigroups_order4):
        for S in semigroups_le3 + semigroups_order4:
            cls = classify(S)
            if cls.case is Case.TRIVIAL:
                continue
            r = witnesses._BUILDERS[cls.case](S, cls)
            assert in_pair_closure(S, *r.inside_points, r.outside_points[0]), S.table

    def test_builders_claim_their_outside_probe(self, semigroups_le3, semigroups_order4):
        for S in semigroups_le3 + semigroups_order4:
            cls = classify(S)
            if cls.case is Case.TRIVIAL:
                continue
            r = reference_report(S)
            assert r.separating_point == r.outside_points[0], S.table
            assert check_semigroup(S) == r

    def test_rejected_probe_is_an_inconsistency(self, monkeypatch):
        # on an empty memo, so that Z2's shape is certified afresh
        monkeypatch.setattr(witnesses, "_REPORTS", {})
        monkeypatch.setattr(witnesses, "in_pair_closure", lambda *args, **kwargs: False)
        with pytest.raises(witnesses.WitnessNotFound):
            check_semigroup(Z2)

    def test_builders_accept_a_classification(self):
        cls = classify(Z2)
        assert witness_lemma3(Z2, cls) == witness_lemma3(Z2)
        with pytest.raises(ValueError):
            witness_lemma2(Z2, cls)


def uncached_report(S):
    """The reference report of a nontrivial S, checked as check_semigroup
    checks it on an empty memo, and its certificate's triple count."""
    r = reference_report(S)
    assert identities_hold(r), S.table
    member = in_m3 if r.target == "m3" else in_m4
    assert all(member(p) for p in r.inside_points), S.table
    assert not any(member(p) for p in r.outside_points), S.table
    triples = []
    assert in_pair_closure(S, *r.inside_points, r.separating_point, triples=triples), S.table
    return r, len(triples)


class TestShapeMemo:
    def test_warm_memo_equals_the_uncached_path(self, semigroups_le3, semigroups_order4):
        tables = [
            S
            for S in semigroups_le3 + semigroups_order4 + list(enumerate_tables(5, "up_to_iso_and_anti"))
            if S.order > 1
        ]
        for S in tables:
            check_semigroup(S)
        for S in tables:
            got = check_semigroup(S)
            want, size = uncached_report(S)
            assert got.semigroup is S
            for field in witnesses.WitnessReport._fields:
                assert getattr(got, field) == getattr(want, field), (field, S.table)
            assert got.to_jsonable() == want.to_jsonable()
            # the key's stored report and triple count are this table's own
            fields, stored_size = witnesses._REPORTS[witnesses._shape_key(S, classify(S))]
            assert fields == want[1:] and stored_size == size, S.table

    def test_budget_trips_as_on_an_empty_memo(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(witnesses, "_REPORTS", {})
            with pytest.raises(BudgetExceeded) as cold:
                check_semigroup(Z3, budget=2)
            assert witnesses._REPORTS == {}
        check_semigroup(Z3)
        with pytest.raises(BudgetExceeded) as warm:
            check_semigroup(Z3, budget=2)
        assert warm.value.size == cold.value.size == 3
        size = witnesses._REPORTS[witnesses._shape_key(Z3, classify(Z3))][1]
        assert check_semigroup(Z3, budget=size).semigroup is Z3
        with pytest.raises(BudgetExceeded):
            check_semigroup(Z3, budget=size - 1)

    def test_zero_budget_is_rejected_on_a_warm_memo(self):
        check_semigroup(Z3)
        with pytest.raises(ValueError):
            check_semigroup(Z3, budget=0)

    def test_zero_budget_is_rejected_on_the_trivial_table(self):
        with pytest.raises(ValueError):
            check_semigroup(Semigroup([[0]]), budget=0)

    def test_one_shape_one_record(self):
        # every raw table of orders 1 to 4 and every order-5 iso-anti class;
        # the records compared are the reference's, built without the memo
        orders = [enumerate_tables(n) for n in range(1, 5)]
        records = {}
        for S in chain(*orders, enumerate_tables(5, "up_to_iso_and_anti")):
            report = reference_report(S) if S.order > 1 else check_semigroup(S)
            record = report.to_jsonable()
            assert "shape" not in record
            del record["table"]
            assert records.setdefault(report.shape, record) == record, S.table

    def test_failed_identity_leaves_no_entry(self, monkeypatch):
        def false_identity(S, cls=None):
            r = witness_lemma3(S, cls)
            return r._replace(verified_identities=(*r.verified_identities, ("a = a", False)))

        monkeypatch.setattr(witnesses, "_REPORTS", {})
        monkeypatch.setitem(witnesses._BUILDERS, Case.UNBOUNDED, false_identity)
        for _ in range(3):
            with pytest.raises(witnesses.WitnessNotFound):
                check_semigroup(Z2)
        assert witnesses._REPORTS == {}


class TestEq1Argument:
    def test_reflexive_counts(self):
        prof = element_profile(Z3, 1)
        ev = ExponentVector((1, 2, 0, 1))
        assert verify_eq1_argument(prof, ev, ev)

    def test_vacuous_when_premise_fails(self):
        prof = element_profile(monogenic_table(1, 2), 0)
        assert verify_eq1_argument(prof, ExponentVector((1, 0, 0, 0)), ExponentVector((0, 0, 1, 0)))

    def test_requires_four_variables(self):
        prof = element_profile(Z2, 1)
        with pytest.raises(ValueError):
            verify_eq1_argument(prof, ExponentVector((1, 1)), ExponentVector((1, 1)))

    def test_small_sweep(self):
        vectors = [
            ExponentVector((a, b, c, d))
            for a in range(3)
            for b in range(3)
            for c in range(3)
            for d in range(3)
        ]
        for m in (1, 2):
            for r in (1, 2):
                prof = element_profile(monogenic_table(m, r), 0)
                assert all(
                    verify_eq1_argument(prof, t, s) for t in vectors for s in vectors
                )


class TestCheckSemigroup:
    def test_trivial_is_equational_domain(self):
        r = check_semigroup(Semigroup([[0]]))
        assert r.is_equational_domain
        assert r.lemma is None and r.target is None and r.separating_point is None

    def test_left_zero_report(self):
        r = check_semigroup(LEFT_ZERO)
        assert r.lemma == "1.1"
        assert not r.is_equational_domain
        assert r.separating_point == (0, 1, 1)

    def test_z2_prefers_the_power_probe(self):
        r = check_semigroup(Z2)
        assert r.lemma == "3"
        assert r.separating_point == (1, 0, 1, 0)

    def test_every_small_semigroup_fails_to_be_a_domain(self, semigroups_le3):
        for S in semigroups_le3:
            r = check_semigroup(S)
            if S.order == 1:
                assert r.is_equational_domain
                continue
            assert not r.is_equational_domain
            target = union_target_m3(S) if r.target == "m3" else union_target_m4(S)
            closure = algebraic_closure(S, target).closure
            assert r.separating_point in closure
            assert r.separating_point not in target

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            check_semigroup(Z3, budget=2)

    def test_jsonable_schema(self):
        doc = check_semigroup(Z2).to_jsonable()
        assert set(doc) == {
            "order",
            "table",
            "classification",
            "lemma",
            "elements",
            "target",
            "verified_identities",
            "probe_points",
            "separating_point",
            "is_equational_domain",
        }
        assert doc["classification"] == "Unbounded"
        assert doc["probe_points"]["outside"] == [[1, 0, 1, 0]]
        assert doc["separating_point"] == [1, 0, 1, 0]
