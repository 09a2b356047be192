import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqdomain import (
    AssociativityViolation,
    Case,
    OutOfRangeEntry,
    Semigroup,
    TableError,
    classify,
)
from support import (
    LEFT_ZERO,
    MIN2,
    NULL2,
    RECT_BAND_2X2,
    RIGHT_ZERO,
    Z2,
    Z3,
    element_profile,
    generated_subset,
    is_idempotent,
    is_nowhere_commutative,
    is_rectangular_band,
    monogenic_equal,
    monogenic_table,
    power_by_table,
)


class TestValidation:
    def test_trivial_table(self):
        assert Semigroup([[0]]).order == 1

    def test_left_zero_is_valid(self):
        S = Semigroup([[0, 0], [1, 1]])
        assert S.order == 2
        assert S.mul(0, 1) == 0

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeEntry) as exc:
            Semigroup([[0, 1], [1, 2]])
        assert (exc.value.row, exc.value.col, exc.value.value) == (1, 1, 2)

    def test_long_entry_is_cut_in_the_message_only(self):
        big = 10**4000 - 1
        with pytest.raises(OutOfRangeEntry) as exc:
            Semigroup([[0, 0], [0, big]])
        assert exc.value.value == big
        assert str(exc.value) == f"table[1][1] = {'9' * 60}... is not an element index in 0..1"

    def test_negative_entry(self):
        with pytest.raises(OutOfRangeEntry):
            Semigroup([[0, -1], [0, 0]])

    def test_first_violating_triple_is_named(self):
        with pytest.raises(AssociativityViolation) as exc:
            Semigroup([[0, 0], [1, 0]])
        x, y, z = exc.value.triple
        assert (x, y, z) == (1, 0, 1)
        t = [[0, 0], [1, 0]]
        assert t[t[x][y]][z] != t[x][t[y][z]]

    def test_ragged_rows(self):
        with pytest.raises(TableError):
            Semigroup([[0, 0], [1]])

    def test_empty_table(self):
        with pytest.raises(TableError):
            Semigroup([])

    def test_equality_and_hash(self):
        assert Semigroup([[0]]) == Semigroup([[0]])
        assert hash(LEFT_ZERO) == hash(Semigroup([[0, 0], [1, 1]]))
        assert LEFT_ZERO != RIGHT_ZERO


class TestPowers:
    def test_profile_of_idempotent(self):
        p = element_profile(MIN2, 0)
        assert (p.index, p.period) == (1, 1)
        assert p.cycle_powers == (0,)

    def test_profile_of_cyclic_generator(self):
        p = element_profile(Z3, 1)
        assert (p.index, p.period) == (1, 3)
        assert p.cycle_powers == (1, 2, 0)

    def test_profile_index2_period1(self):
        S = monogenic_table(2, 1)
        assert S.table == ((1, 1), (1, 1))
        p = element_profile(S, 0)
        assert (p.index, p.period) == (2, 1)

    def test_profile_out_of_range(self):
        with pytest.raises(ValueError):
            element_profile(Z2, 2)

    def test_cycle_size_matches_generated_subsemigroup(self, semigroups_le3):
        for S in semigroups_le3:
            for a in range(S.order):
                p = element_profile(S, a)
                assert len(p.cycle_powers) == p.index + p.period - 1
                assert set(p.cycle_powers) == generated_subset(S, a)


class TestMonogenicEqual:
    def test_idempotent_collapses_powers(self):
        assert monogenic_equal(1, 1, 5, 9)

    def test_index2_period1(self):
        assert monogenic_equal(2, 1, 2, 3)
        assert not monogenic_equal(2, 1, 1, 2)

    def test_period3(self):
        assert monogenic_equal(1, 3, 2, 5)
        assert not monogenic_equal(1, 3, 2, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            monogenic_equal(0, 1, 1, 1)
        with pytest.raises(ValueError):
            monogenic_equal(1, 0, 1, 1)
        with pytest.raises(ValueError):
            monogenic_equal(1, 1, -1, 1)

    def test_matches_power_iteration(self, semigroups_le3):
        for S in semigroups_le3:
            bound = 3 * S.order
            for a in range(S.order):
                prof = element_profile(S, a)
                for p in range(1, bound + 1):
                    for q in range(1, bound + 1):
                        assert monogenic_equal(prof.index, prof.period, p, q) == (
                            power_by_table(S, a, p) == power_by_table(S, a, q)
                        )

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.tuples(st.integers(1, 20), st.integers(1, 20)),
        st.tuples(st.integers(1, 20), st.integers(1, 20)),
    )
    def test_power_additivity(self, m, r, pq1, pq2):
        p1, q1 = pq1
        p2, q2 = pq2
        if monogenic_equal(m, r, p1, q1) and monogenic_equal(m, r, p2, q2):
            assert monogenic_equal(m, r, p1 + p2, q1 + q2)

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_monogenic_table_round_trip(self, m, r):
        S = monogenic_table(m, r)
        assert S.order == m + r - 1
        prof = element_profile(S, 0)
        assert (prof.index, prof.period) == (m, r)


class TestPredicates:
    def test_left_zero(self):
        assert is_idempotent(LEFT_ZERO)
        assert is_nowhere_commutative(LEFT_ZERO)
        assert is_rectangular_band(LEFT_ZERO)

    def test_semilattice_commutes(self):
        assert is_idempotent(MIN2)
        assert not is_nowhere_commutative(MIN2)

    def test_group_not_idempotent(self):
        assert not is_idempotent(Z2)

    def test_null_semigroup_bounded(self):
        assert not is_idempotent(NULL2)

    def test_nowhere_commutative_iff_rectangular_band(self, semigroups_le3):
        for S in semigroups_le3:
            assert is_nowhere_commutative(S) == is_rectangular_band(S)


def bounded_by_powers(S):
    """x^2 = x^3, read off ``power_by_table``."""
    return all(power_by_table(S, a, 2) == power_by_table(S, a, 3) for a in range(S.order))


class TestClassify:
    def test_examples(self):
        assert classify(Semigroup([[0]])).case is Case.TRIVIAL
        assert classify(LEFT_ZERO).case is Case.IDEMPOTENT_NOWHERE_COMMUTATIVE
        assert classify(RECT_BAND_2X2).case is Case.IDEMPOTENT_NOWHERE_COMMUTATIVE
        c = classify(MIN2)
        assert c.case is Case.IDEMPOTENT_COMMUTING_PAIR and c.pair == (0, 1)
        c = classify(NULL2)
        assert c.case is Case.BOUNDED_NON_IDEMPOTENT and c.element == 0
        c = classify(Z2)
        assert c.case is Case.UNBOUNDED and c.element == 1

    def test_exactly_one_case_with_valid_witness(self, semigroups_le3, semigroups_order4):
        # every raw table of orders 1-4, against the powers
        for S in semigroups_le3 + semigroups_order4:
            c = classify(S)
            bounded = bounded_by_powers(S)
            tags = [
                S.order == 1,
                S.order > 1 and is_idempotent(S) and is_nowhere_commutative(S),
                S.order > 1 and is_idempotent(S) and not is_nowhere_commutative(S),
                S.order > 1 and not is_idempotent(S) and bounded,
                S.order > 1 and not bounded,
            ]
            assert sum(tags) == 1
            assert tags[
                [
                    Case.TRIVIAL,
                    Case.IDEMPOTENT_NOWHERE_COMMUTATIVE,
                    Case.IDEMPOTENT_COMMUTING_PAIR,
                    Case.BOUNDED_NON_IDEMPOTENT,
                    Case.UNBOUNDED,
                ].index(c.case)
            ]
            if c.case is Case.IDEMPOTENT_COMMUTING_PAIR:
                a, b = c.pair
                assert a != b and S.mul(a, b) == S.mul(b, a)
                for x in range(S.order):
                    for y in range(S.order):
                        if x != y and S.mul(x, y) == S.mul(y, x):
                            assert (a, b) <= (x, y)
                            break
                    else:
                        continue
                    break
            if c.case is Case.BOUNDED_NON_IDEMPOTENT:
                a = c.element
                assert S.mul(a, a) != a
                assert all(S.mul(x, x) == x for x in range(a))
            if c.case is Case.UNBOUNDED:
                a = c.element
                assert power_by_table(S, a, 2) != power_by_table(S, a, 3)
                assert all(power_by_table(S, x, 2) == power_by_table(S, x, 3) for x in range(a))
