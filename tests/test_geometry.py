import itertools
import random

import numpy as np
import pytest

import eqdomain.terms
from eqdomain import (
    BudgetExceeded,
    Equation,
    PointSet,
    Semigroup,
    System,
    Term,
    TermFunctions,
    algebraic_closure,
    enumerate_tables,
    in_pair_closure,
    is_algebraic,
    parse_equation,
    solution_set,
    term_functions,
    union_target_m3,
    union_target_m4,
)
from eqdomain.geometry import in_union_target
from eqdomain.terms import _RowLayout
from support import (
    A2,
    LEFT_ZERO,
    MIN2,
    Z2,
    Z3,
    eval_term,
    grouped_closure,
    naive_closure_mask,
    naive_is_algebraic,
    random_point_set,
)


class TestPointSet:
    def test_bitmap_round_trip(self):
        # n**k not a multiple of 8, so the last byte is partly padding
        rng = random.Random(5)
        for n, k in ((3, 3), (2, 3), (5, 2), (3, 1), (2, 4)):
            for _ in range(50):
                Y = random_point_set(rng, n, k)
                flags = Y._bool_array()
                assert flags.tolist() == [bool((Y.mask >> i) & 1) for i in range(n**k)]
                assert PointSet._from_bool(flags, n, k) == Y

    def test_from_points_and_membership(self):
        Y = PointSet.from_points(2, 2, [(0, 1), (1, 1)])
        assert (0, 1) in Y and (1, 0) not in Y
        assert len(Y) == 2
        assert list(Y) == [(0, 1), (1, 1)]

    def test_membership_checks_the_point_length(self):
        Y = PointSet.from_points(2, 3, [(0, 0, 1)])
        assert (0, 0, 1) in Y
        for point in ((0, 1), (0, 0, 0, 1)):
            with pytest.raises(ValueError):
                point in Y

    def test_set_algebra(self):
        a = PointSet.from_points(2, 2, [(0, 0), (0, 1)])
        b = PointSet.from_points(2, 2, [(0, 1), (1, 1)])
        assert list(a | b) == [(0, 0), (0, 1), (1, 1)]
        assert list(a & b) == [(0, 1)]
        assert list(a - b) == [(0, 0)]
        assert list(a.complement()) == [(1, 0), (1, 1)]
        assert (a & b).issubset(a)

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError):
            PointSet.full(2, 2).union(PointSet.full(2, 3))
        with pytest.raises(ValueError):
            PointSet(2, 2, 1 << 4)

    def test_least_point(self):
        assert PointSet.empty(2, 2).least_point() is None
        assert PointSet.from_points(2, 2, [(1, 0), (0, 1)]).least_point() == (0, 1)

    def test_points_serialization_round_trip(self):
        Y = PointSet.from_points(3, 2, [(2, 1), (0, 0)])
        obj = Y.to_points_obj()
        assert obj == {"n": 3, "k": 2, "points": [[0, 0], [2, 1]]}
        assert PointSet.from_jsonable(obj) == Y

    def test_bitmap_serialization_round_trip(self):
        Y = PointSet.from_points(2, 3, [(0, 1, 1), (1, 0, 0)])
        obj = Y.to_bitmap_obj()
        assert obj["encoding"] == "big-endian"
        assert len(obj["bitmap"]) == 2  # ceil(8 / 4) hex digits
        assert PointSet.from_jsonable(obj) == Y

    @pytest.mark.parametrize(
        "obj",
        [
            [[0, 1.5]],
            [[0, "a"]],
            [[0, True]],
            [[0, 1], 5],
            {"n": 2, "k": 2, "points": 5},
            {"n": [2], "k": 2, "points": []},
            {"n": 2, "k": "2", "points": []},
            {"n": 2, "k": 2, "bitmap": 5},
            {"n": 2, "k": 3, "points": []},
            {"n": 2, "k": 2, "points": [[0, 1]], "bitmap": "1"},  # each alone is valid
        ],
    )
    def test_malformed_json_is_value_error(self, obj):
        with pytest.raises(ValueError):
            PointSet.from_jsonable(obj, n=2, k=2)

    def test_bare_list_needs_dimensions(self):
        with pytest.raises(ValueError):
            PointSet.from_jsonable([[0, 1]])
        assert PointSet.from_jsonable([[0, 1]], n=2, k=2) == PointSet.from_points(2, 2, [(0, 1)])


class TestSolutionSets:
    def test_diagonal(self):
        eq = parse_equation("x1 = x2", 2)
        assert list(solution_set(LEFT_ZERO, eq)) == [(0, 0), (1, 1)]

    def test_tautology_is_full(self):
        eq = parse_equation("x1 = x1", 3)
        assert solution_set(Z2, eq) == PointSet.full(2, 3)

    def test_commutation_over_left_zero(self):
        eq = parse_equation("x1 x2 = x2 x1", 2)
        assert list(solution_set(LEFT_ZERO, eq)) == [(0, 0), (1, 1)]

    def test_system_intersects(self):
        system = System(
            (parse_equation("x1 = x2", 2), parse_equation("x1 x1 = x1", 2))
        )
        sol = solution_set(Z2, system)
        # in Z2 only the identity is idempotent
        assert list(sol) == [(0, 0)]

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            solution_set(Z2, "x1 = x2")

    def test_matches_eval_term(self, semigroups_le3):
        # the vectorized fold against the one-point fold, at every point
        rng = random.Random(37)
        for S in semigroups_le3[::4]:
            k = rng.randint(1, 3)
            lhs, rhs = (Term(tuple(rng.choices(range(k), k=rng.randint(1, 6))), k) for _ in "lr")
            sol = solution_set(S, Equation(lhs, rhs))
            for p in itertools.product(range(S.order), repeat=k):
                assert (p in sol) == (eval_term(S, lhs, p) == eval_term(S, rhs, p))


class TestUnionTargets:
    def test_sizes_order2(self):
        assert len(union_target_m3(LEFT_ZERO)) == 6
        assert len(union_target_m4(LEFT_ZERO)) == 12

    def test_definition(self):
        m3 = union_target_m3(Z3)
        for p in m3:
            assert p[0] == p[1] or p[0] == p[2]
        assert len(m3) == 9 + 9 - 3  # inclusion-exclusion over order 3

    def test_trivial_order_is_full(self):
        from eqdomain import Semigroup

        T = Semigroup([[0]])
        assert union_target_m3(T) == PointSet.full(1, 3)

    def test_in_union_target_matches_the_built_sets(self, semigroups_le3):
        for S in semigroups_le3:
            for name, build, k in (("m3", union_target_m3, 3), ("m4", union_target_m4, 4)):
                target = build(S)
                for p in itertools.product(range(S.order), repeat=k):
                    assert in_union_target(p, name) == (p in target)


class TestClosure:
    def test_left_zero_m3_closure_is_everything(self):
        cert = algebraic_closure(LEFT_ZERO, union_target_m3(LEFT_ZERO))
        assert cert.closure == PointSet.full(2, 3)
        assert cert.agreeing_pairs == ()

    def test_solution_sets_are_fixed_points(self):
        Y = solution_set(MIN2, parse_equation("x1 x2 = x2", 2))
        cert = algebraic_closure(MIN2, Y)
        assert cert.closure == Y

    def test_full_space_is_closed(self):
        Y = PointSet.full(2, 2)
        assert algebraic_closure(Z2, Y).closure == Y

    def test_certificate_reconstructs_closure(self, semigroups_le3):
        rng = random.Random(7)
        for _ in range(60):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 3)
            Y = random_point_set(rng, S.order, k)
            cert = algebraic_closure(S, Y)
            assert Y.issubset(cert.closure)
            npts = S.order**k
            keep = np.ones(npts, dtype=bool)
            for f, g in cert.agreeing_pairs:
                fv = np.frombuffer(f.values, dtype=np.uint8)
                gv = np.frombuffer(g.values, dtype=np.uint8)
                keep &= fv == gv
                # the pair really does agree on Y
                for p in Y:
                    assert f(p) == g(p)
            rebuilt = PointSet._from_bool(keep, S.order, k)
            assert rebuilt == cert.closure

    def test_empty_set_closure(self):
        # every equation holds vacuously, so all term functions must agree
        cert = algebraic_closure(LEFT_ZERO, PointSet.empty(2, 3))
        assert cert.closure == PointSet.from_points(2, 3, [(0, 0, 0), (1, 1, 1)])

    def test_closure_laws(self, semigroups_le3):
        rng = random.Random(11)
        for _ in range(40):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 2)
            Y = random_point_set(rng, S.order, k)
            Z = Y | random_point_set(rng, S.order, k)
            clY = algebraic_closure(S, Y).closure
            clZ = algebraic_closure(S, Z).closure
            assert Y.issubset(clY)
            assert algebraic_closure(S, clY).closure == clY
            assert clY.issubset(clZ)

    def test_intersection_of_closed_sets_is_closed(self, semigroups_le3):
        rng = random.Random(13)
        for _ in range(25):
            S = rng.choice(semigroups_le3)
            Y = algebraic_closure(S, random_point_set(rng, S.order, 2)).closure
            Z = algebraic_closure(S, random_point_set(rng, S.order, 2)).closure
            meet = Y & Z
            assert algebraic_closure(S, meet).closure == meet


class TestPairClosure:
    def test_matches_full_closure(self, semigroups_le3):
        rng = random.Random(2019)
        verdicts = []
        for _ in range(1000):
            S = rng.choice(semigroups_le3)
            n, k = S.order, rng.randint(1, 4)
            q1, q2, p = (tuple(rng.randrange(n) for _ in range(k)) for _ in range(3))
            closure = algebraic_closure(S, PointSet.from_points(n, k, [q1, q2])).closure
            verdict = in_pair_closure(S, q1, q2, p)
            assert verdict == (p in closure), (S.table, q1, q2, p)
            verdicts.append(verdict)
        assert 100 < sum(verdicts) < 900  # both verdicts are well represented

    def test_left_zero_probe(self):
        assert in_pair_closure(LEFT_ZERO, (0, 0, 1), (0, 1, 0), (0, 1, 1))

    def test_separated_by_an_equation(self):
        # x^2 = x holds at 0 in Z2 and fails at 1
        assert not in_pair_closure(Z2, (0,), (0,), (1,))

    def test_budget_counts_distinct_triples(self):
        # generators (0,1,1), (1,1,0), (1,0,1) are 3 distinct triples
        q1, q2, p = (0, 1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 0)
        with pytest.raises(BudgetExceeded) as info:
            in_pair_closure(Z2, q1, q2, p, budget=2)
        assert info.value.size == 3
        assert in_pair_closure(Z2, q1, q2, p, budget=4)  # the 4 triples with c = a + b

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            in_pair_closure(Z2, (0, 1), (0,), (1, 1))
        with pytest.raises(ValueError):
            in_pair_closure(Z2, (0, 2), (0, 1), (1, 1))
        with pytest.raises(ValueError):
            in_pair_closure(Z2, (0,), (0,), (1,), budget=0)


class TestIsAlgebraic:
    def test_solution_sets_are_algebraic(self):
        Y = solution_set(Z3, parse_equation("x1 x2 = x2 x1", 2))
        algebraic, sep = is_algebraic(Z3, Y)
        assert algebraic and sep is None

    def test_left_zero_m3(self):
        algebraic, sep = is_algebraic(LEFT_ZERO, union_target_m3(LEFT_ZERO))
        assert not algebraic
        assert sep == (0, 1, 1)

    def test_z2_m4_contains_the_power_probe(self):
        m4 = union_target_m4(Z2)
        algebraic, sep = is_algebraic(Z2, m4)
        assert not algebraic
        cert = algebraic_closure(Z2, m4)
        assert (1, 0, 1, 0) in cert.closure and (1, 0, 1, 0) not in m4
        assert sep == (0, 1, 0, 1)  # least added point comes first

    def test_matches_naive_oracle_sample(self, semigroups_le3):
        rng = random.Random(97)
        for _ in range(120):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 3)
            Y = random_point_set(rng, S.order, k)
            cert = algebraic_closure(S, Y)
            assert cert.closure.mask == naive_closure_mask(S, Y)
            assert is_algebraic(S, Y) == naive_is_algebraic(S, Y)


def pair_listing(pairs):
    return [(f.values, f.witness.word, g.values, g.witness.word) for f, g in pairs]


def patch_grouping(monkeypatch, **names):
    """Set ``names`` in ``eqdomain.terms`` only while a clone is grouped by
    :meth:`TermFunctions.agreement`, so the clone is built with the real
    ones first."""
    agreement = TermFunctions.agreement

    def patched(funcs):
        with monkeypatch.context() as m:
            for name, value in names.items():
                m.setattr(eqdomain.terms, name, value)
            return agreement(funcs)

    monkeypatch.setattr(TermFunctions, "agreement", patched)


class TestClosureGrouping:
    """The numpy grouping against grouping by the bytes of each restriction."""

    def check(self, S, Y):
        cert = algebraic_closure(S, Y)
        pairs, mask = grouped_closure(S, Y)
        assert len(cert.agreeing_pairs) == len(pairs)
        assert pair_listing(cert.agreeing_pairs) == pair_listing(pairs)
        assert cert.closure.mask == mask

    def test_matches_oracle_grouping(self, semigroups_le3):
        rng = random.Random(23)
        for _ in range(80):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 3)
            self.check(S, random_point_set(rng, S.order, k))
        self.check(A2, union_target_m3(A2))
        self.check(A2, PointSet.empty(5, 2))

    @pytest.mark.parametrize("n", [16, 17])
    def test_matches_oracle_grouping_across_the_packing_bound(self, n):
        # at order 16 the values are stored two per byte and the last
        # point, 255, is the high digit of its byte; at order 17 the
        # values are bytes and 16 needs their fifth bit
        S = Semigroup([[(a + b) % n for b in range(n)] for a in range(n)])
        rng = random.Random(37)
        for extra in (0, 1, 5, 40):
            points = {rng.randrange(n * n) for _ in range(extra)} | {n * n - 1}
            self.check(S, PointSet(n, 2, sum(1 << i for i in points)))

    def test_constant_hash_changes_nothing(self, constant_hash, semigroups_le3):
        rng = random.Random(29)
        for _ in range(30):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 3)
            self.check(S, random_point_set(rng, S.order, k))
        self.check(A2, union_target_m3(A2))

    @pytest.mark.parametrize("block_bytes", [None, 1 << 9], ids=["low2", "low2-small"])
    def test_shared_hashes_change_nothing(self, monkeypatch, semigroups_le3, block_bytes):
        # Only the 2 low bits of each restriction's hash are kept, so many
        # different restrictions share a hash; with small blocks they do so
        # across the blocks of the hashing and of the fold too.  The clone
        # is built with the real hash and blocks first, so the regroups
        # counted are the grouping's own.
        row_hashes = eqdomain.terms._row_hashes
        regrouped = []
        regroup = eqdomain.terms._regroup
        patch_grouping(
            monkeypatch,
            _row_hashes=lambda rows: row_hashes(rows) & np.uint64(3),
            _regroup=lambda *args: regrouped.append(regroup(*args)),
            BLOCK_BYTES=block_bytes or eqdomain.terms.BLOCK_BYTES,
        )
        rng = random.Random(31)
        for _ in range(30):
            S = rng.choice(semigroups_le3)
            k = rng.randint(1, 3)
            self.check(S, random_point_set(rng, S.order, k))
        Y = union_target_m3(A2)
        assert len(Y) % 8  # restrictions that are no whole number of words
        self.check(A2, Y)
        self.check(A2, PointSet.empty(5, 3))
        assert regrouped

    @pytest.mark.parametrize("kept_bits", [0, 3], ids=["constant", "low2"])
    def test_agreement_matches_oracle_grouping(self, monkeypatch, semigroups_le3, kept_bits):
        # the grouping method alone, on clones built and grouped under a
        # hash with only the kept bits left
        row_hashes = eqdomain.terms._row_hashes
        keep = np.uint64(kept_bits)
        monkeypatch.setattr(eqdomain.terms, "_row_hashes", lambda rows: row_hashes(rows) & keep)
        rng = random.Random(53)
        cases = [(A2, union_target_m3(A2)), (A2, PointSet.empty(5, 2))]
        for _ in range(30):
            S = rng.choice(semigroups_le3)
            cases.append((S, random_point_set(rng, S.order, rng.randint(1, 3))))
        for S, Y in cases:
            funcs = term_functions(S, Y.k, first=Y._bool_array().nonzero()[0])
            rep, members, differ = funcs.agreement()
            pairs, mask = grouped_closure(S, Y)
            number = {word: i for i, word in enumerate(funcs.words())}
            expected = np.arange(len(funcs))
            for f, g in pairs:
                expected[number[g.witness.word]] = number[f.witness.word]
            assert rep.tolist() == expected.tolist()
            assert members.tolist() == sorted(number[g.witness.word] for _, g in pairs)
            assert differ.dtype == bool and differ.shape == (S.order**Y.k,)
            assert PointSet._from_bool(~differ, Y.n, Y.k).mask == mask

    def test_pairs_index_like_a_tuple(self):
        pairs = algebraic_closure(A2, union_target_m3(A2)).agreeing_pairs
        listed = list(pairs)
        assert pair_listing([pairs[-1]]) == pair_listing(listed[-1:])
        assert pair_listing(pairs[2:5]) == pair_listing(listed[2:5])
        assert pairs == listed and pairs != listed[:-1]
        with pytest.raises(IndexError):
            pairs[len(pairs)]


@pytest.fixture(scope="module")
def classes_le4():
    """The iso-anti classes of orders 2 to 4, by order."""
    return {n: list(enumerate_tables(n, "up_to_iso_and_anti")) for n in (2, 3, 4)}


class TestGeneratingPairs:
    """The closure is read from the generating pairs alone, (u, rep(u)) for
    the members u whose parent is -1 or a representative; the oracle
    groups every function and reads every pair."""

    check = TestClosureGrouping.check

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_union_targets_of_every_class(self, classes_le4, n):
        for S in classes_le4[n]:
            self.check(S, union_target_m3(S))
            self.check(S, union_target_m4(S))

    def test_seeded_random_sets(self, classes_le4):
        # small sets, where projections often agree on Y and so are
        # members without a parent
        rng = random.Random(47)
        for _ in range(60):
            S = rng.choice(classes_le4[rng.randint(2, 4)])
            k = rng.randint(1, 3 if S.order < 4 else 2)
            size = rng.randint(0, min(4, S.order**k))
            Y = PointSet(S.order, k, sum(1 << i for i in rng.sample(range(S.order**k), size)))
            self.check(S, Y)

    @pytest.mark.parametrize("kept_bits", [3, 0], ids=["low2", "zero"])
    def test_shared_lead_hashes(self, monkeypatch, classes_le4, kept_bits):
        # Only the kept bits of each restriction's hash are left, so
        # different restrictions share a hash and the generating pairs'
        # leading words must be confirmed; a regroup changes which members
        # are generating, so some closures regroup more than once.  The
        # clone is built with the real hash first, so the passes counted
        # are the grouping's own.
        row_hashes = eqdomain.terms._row_hashes
        keep = np.uint64(kept_bits)
        passes = []
        regroup = eqdomain.terms._regroup
        patch_grouping(
            monkeypatch,
            _row_hashes=lambda rows: row_hashes(rows) & keep,
            _regroup=lambda *args: passes.append(regroup(*args)),
        )
        counts = []
        for n in (2, 3, 4):
            for S in classes_le4[n]:
                for Y in (union_target_m3(S), union_target_m4(S)):
                    passes.clear()
                    self.check(S, Y)
                    counts.append(len(passes))
        assert max(counts) >= (2 if kept_bits else 1)

    def test_a2_m4_reads_a_tenth_of_the_pairs(self, monkeypatch):
        read = []
        differing = _RowLayout.differing

        def counting(layout, rows, a, b):
            read.append(len(a))
            return differing(layout, rows, a, b)

        monkeypatch.setattr(_RowLayout, "differing", counting)
        cert = algebraic_closure(A2, union_target_m4(A2))
        assert read == [31_728]
        assert len(cert.agreeing_pairs) == 337_280
        assert len(cert.closure) > len(union_target_m4(A2))


class TestYFirstClosure:
    """The closure of a clone stored with Y's points first, at the edges of
    that layout: Y empty, Y everything, and Y one point short of, equal to
    and one point past whole words of Y's slots (8 * per_byte points)."""

    @staticmethod
    def check(S, Y, mask):
        cert = algebraic_closure(S, Y)
        assert cert.closure.mask == mask
        # the pairs' values read back in encoded point order, as from a
        # clone stored in that order
        plain = {f.witness.word: f.values for f in term_functions(S, Y.k)}
        for f, g in cert.agreeing_pairs:
            assert f.values == plain[f.witness.word]
            assert g.values == plain[g.witness.word]

    @pytest.mark.parametrize("n, every", [(2, 1), (3, 3), (4, 23)])
    def test_empty_and_full(self, n, every):
        for S in list(enumerate_tables(n, "up_to_iso"))[::every]:
            for k in (1, 2, 3):
                for Y in (PointSet.empty(n, k), PointSet.full(n, k)):
                    self.check(S, Y, naive_closure_mask(S, Y))

    @pytest.mark.parametrize("n, k, max_len, every", [(3, 4, 8, 11), (4, 3, 9, 37)])
    def test_around_a_word_of_y_against_the_naive_oracle(self, n, k, max_len, every):
        rng = random.Random(41 + n)
        word = 8 * {3: 5, 4: 4}[n]
        for S in list(enumerate_tables(n, "up_to_iso"))[::every]:
            # the oracle's words reach every term function
            assert max(map(len, term_functions(S, k).words())) <= max_len
            for size in (word - 1, word, word + 1):
                Y = PointSet(n, k, sum(1 << i for i in rng.sample(range(n**k), size)))
                self.check(S, Y, naive_closure_mask(S, Y, max_len))

    def test_around_a_word_of_y_at_order_2(self):
        # 64 points fill a word at order 2, so the arity is 7, where the
        # naive oracle's words are too many; the oracle grouping is used
        rng = random.Random(43)
        for S in enumerate_tables(2, "up_to_iso"):
            for size in (63, 64, 65):
                Y = PointSet(2, 7, sum(1 << i for i in rng.sample(range(128), size)))
                self.check(S, Y, grouped_closure(S, Y)[1])
