import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqdomain.terms
from eqdomain import (
    BudgetExceeded,
    EmptyTermError,
    Equation,
    System,
    Term,
    TermSyntaxError,
    VariableOutOfRange,
    decode_point,
    encode_point,
    parse_equation,
    parse_equations,
    parse_term,
    enumerate_tables,
    term_functions,
)
from eqdomain import Semigroup
from eqdomain.terms import (
    TermFunctions,
    _CloneTable,
    _ProductCodes,
    _RowLayout,
    _right_products,
    coordinate_grid,
    format_word,
)
from support import (
    A2,
    LEFT_ZERO,
    MIN2,
    NULL2,
    Z2,
    Z3,
    ExponentVector,
    eval_term,
    exponent_vector,
    monogenic_table,
    per_head_term_functions,
    power_by_table,
    power_eval,
    raw_word_vectors,
)

words = st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple)
# a lemma-3 table of order 4, with 26,216 term functions at arity 4
LEMMA3_TABLE = Semigroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 3, 3, 3]])
Z16 = Semigroup([[(a + b) % 16 for b in range(16)] for a in range(16)])
Z17 = Semigroup([[(a + b) % 17 for b in range(17)] for a in range(17)])


def digits_of(rows, n, per_byte):
    """The slots of stored rows: digit t of byte j is slot j*per_byte + t."""
    digits = (rows[..., None].astype(np.intp) // n ** np.arange(per_byte) % n).astype(np.uint8)
    return digits.reshape(rows.shape[:-1] + (-1,))


class TestParser:
    def test_exponent_expansion(self):
        assert parse_term("x1 x2^2", 3).word == (0, 1, 1)

    def test_single_letter(self):
        assert parse_term("x1", 1).word == (0,)

    def test_juxtaposition_without_spaces(self):
        assert parse_term("x1x2^2", 3).word == (0, 1, 1)

    def test_whitespace_insignificant(self):
        assert parse_term("  x2 ^ 3 ", 2).word == (1, 1, 1)

    def test_multidigit_variable(self):
        assert parse_term("x12", 12).word == (11,)

    def test_zero_exponent_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x1^0", 1)

    def test_huge_exponent_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x1^65", 1)

    def test_empty_input(self):
        with pytest.raises(EmptyTermError):
            parse_term("   ", 2)

    def test_variable_out_of_range(self):
        with pytest.raises(VariableOutOfRange):
            parse_term("x5", 3)
        with pytest.raises(VariableOutOfRange):
            parse_term("x0", 3)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("x1 y2", 2)
        assert exc.value.position == 3
        with pytest.raises(TermSyntaxError):
            parse_term("x", 2)
        with pytest.raises(TermSyntaxError):
            parse_term("x1^", 2)

    def test_parse_equation(self):
        eq = parse_equation("x1 x2^2 = x3 x1", 3)
        assert eq.lhs.word == (0, 1, 1)
        assert eq.rhs.word == (2, 0)

    def test_equation_needs_one_equals(self):
        with pytest.raises(TermSyntaxError):
            parse_equation("x1", 2)
        with pytest.raises(TermSyntaxError):
            parse_equation("x1 = x2 = x1", 2)

    def test_parse_equations_file(self):
        text = "# commuting\nx1 x2 = x2 x1\n\nx1 = x1 x1  # idempotent\n"
        system = parse_equations(text, 2)
        assert len(system.equations) == 2
        assert system.arity == 2

    def test_parse_equations_reports_line(self):
        with pytest.raises(TermSyntaxError, match="line 2"):
            parse_equations("x1 = x1\nx9 = x1\n", 2)
        with pytest.raises(TermSyntaxError):
            parse_equations("# nothing here\n", 2)

    def test_parse_equations_reports_overlong_numbers(self):
        # int() refuses more than 4,300 digits: such a variable number is
        # out of range, and such an exponent too large
        big = "9" * 5000
        with pytest.raises(TermSyntaxError, match=r"^line 2: variable x9+ is outside x1\.\.x2 \(at position 0\)$"):
            parse_equations(f"x1 = x1\nx{big} = x1\n", 2)
        with pytest.raises(TermSyntaxError, match=r"^line 2: exponent exceeds 64 \(at position 3\)$"):
            parse_equations(f"x1 = x1\nx1^{big} = x1\n", 2)

    @given(words)
    def test_round_trip(self, word):
        t = Term(word, 3)
        assert parse_term(str(t), 3) == t

    def test_round_trip_splits_long_runs(self):
        t = Term((0,) * 130, 1)
        assert "^64" in str(t)
        assert parse_term(str(t), 1) == t


class TestTypes:
    def test_term_rejects_empty_word(self):
        with pytest.raises(EmptyTermError):
            Term((), 2)

    def test_term_rejects_bad_letter(self):
        with pytest.raises(VariableOutOfRange):
            Term((2,), 2)

    def test_equation_arities_must_match(self):
        with pytest.raises(ValueError):
            Equation(Term((0,), 1), Term((0,), 2))

    def test_system_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            System(())
        with pytest.raises(ValueError):
            System(
                (
                    Equation(Term((0,), 1), Term((0,), 1)),
                    Equation(Term((0,), 2), Term((1,), 2)),
                )
            )


class TestEncoding:
    def test_big_endian(self):
        assert encode_point((0, 1, 1), 2) == 3
        assert encode_point((1, 0, 0), 2) == 4
        assert decode_point(3, 2, 3) == (0, 1, 1)

    def test_enumeration_order_matches_encoding(self):
        pts = list(itertools.product(range(3), repeat=2))
        assert [encode_point(p, 3) for p in pts] == list(range(9))

    @given(st.integers(2, 4), st.integers(1, 4), st.data())
    def test_round_trip(self, n, k, data):
        point = tuple(data.draw(st.integers(0, n - 1)) for _ in range(k))
        assert decode_point(encode_point(point, n), n, k) == point


class TestEval:
    def test_left_zero_projects_first_letter(self):
        t = parse_term("x2 x1 x3", 3)
        for p in itertools.product(range(2), repeat=3):
            assert eval_term(LEFT_ZERO, t, p) == p[1]

    def test_group_square(self):
        assert eval_term(Z2, Term((0, 0), 1), (1,)) == 0

    def test_identity_projection(self):
        for p in itertools.product(range(3), repeat=2):
            assert eval_term(Z3, Term((0,), 2), p) == p[0]

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            eval_term(Z2, Term((0,), 2), (1,))

    def test_coordinate_out_of_range(self):
        for point in ((0, 2), (-1, 0)):
            with pytest.raises(ValueError):
                eval_term(Z2, Term((0, 1), 2), point)

    @given(words, words, st.data())
    @settings(max_examples=60)
    def test_concatenation_homomorphism(self, u, v, data):
        S = Z3
        point = tuple(data.draw(st.integers(0, 2)) for _ in range(3))
        tu, tv, tuv = Term(u, 3), Term(v, 3), Term(u + v, 3)
        assert eval_term(S, tuv, point) == S.mul(eval_term(S, tu, point), eval_term(S, tv, point))

    @given(st.integers(1, 4), st.integers(1, 4), words, st.data())
    @settings(max_examples=60)
    def test_monogenic_evaluation_law(self, m, r, word, data):
        S = monogenic_table(m, r)
        t = Term(word, 3)
        exps = tuple(data.draw(st.integers(1, 6)) for _ in range(3))
        point = tuple(power_by_table(S, 0, e) for e in exps)
        total = power_eval(exponent_vector(t), exps)
        assert eval_term(S, t, point) == power_by_table(S, 0, total)


class TestExponentVectors:
    def test_counts(self):
        assert exponent_vector(Term((0, 1, 1, 0), 4)).counts == (2, 2, 0, 0)

    def test_dot_product(self):
        assert power_eval(ExponentVector((2, 2, 0, 0)), (2, 1, 1, 1)) == 6

    def test_symbolic_weighting(self):
        counts = (1, 2, 0, 3)
        n1, n2, n3, n4 = counts
        assert power_eval(ExponentVector(counts), (3, 2, 3, 2)) == 3 * n1 + 2 * n2 + 3 * n3 + 2 * n4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            power_eval(ExponentVector((1, 1)), (1,))


class TestTermFunctions:
    def test_left_zero_k3_has_three_projections(self):
        funcs = term_functions(LEFT_ZERO, 3)
        assert len(funcs) == 3
        assert [f.witness.word for f in funcs] == [(0,), (1,), (2,)]

    def test_semilattice_k2(self):
        funcs = term_functions(MIN2, 2)
        assert len(funcs) == 3

    def test_idempotent_k1_collapses(self):
        assert len(term_functions(MIN2, 1)) == 1

    def test_call_checks_the_point_length(self):
        f = term_functions(Z2, 3)[0]
        assert f((1, 0, 0)) == 1
        for point in ((1,), (0, 0, 1, 0)):
            with pytest.raises(ValueError):
                f(point)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded) as exc:
            term_functions(Z3, 2, budget=2)
        assert exc.value.size == 3

    def test_deterministic(self):
        a = term_functions(Z3, 2)
        b = term_functions(Z3, 2)
        assert [(f.values, f.witness.word) for f in a] == [(g.values, g.witness.word) for g in b]

    def test_witness_realizes_values(self, semigroups_le3):
        for S in semigroups_le3[:40]:
            for f in term_functions(S, 2):
                for p in itertools.product(range(S.order), repeat=2):
                    assert f(p) == eval_term(S, f.witness, p)

    def test_closure_complete_for_short_words(self, semigroups_le3):
        # every raw word of length <= 6 induces a function already in the set
        for S in semigroups_le3:
            if S.order > 2:
                continue
            for k in (1, 2, 3):
                keys = {f.values for f in term_functions(S, k)}
                for vec in raw_word_vectors(S, k, 6):
                    assert vec.tobytes() in keys

    def test_closure_complete_order3_sample(self, semigroups_le3):
        for S in semigroups_le3[60:75]:
            keys = {f.values for f in term_functions(S, 2)}
            for vec in raw_word_vectors(S, 2, 6):
                assert vec.tobytes() in keys

    def test_function_call_indexes_values(self):
        f = term_functions(Z2, 2)[0]
        assert f((1, 0)) == 1


def listing(funcs):
    return [(f.values, f.witness.word) for f in funcs]


class TestBlockEngine:
    """The block engine against the one-by-one search it replaced."""

    def test_matches_oracle_up_to_order_3(self, semigroups_le3):
        for S in semigroups_le3:
            for k in (1, 2, 3):
                assert listing(term_functions(S, k)) == listing(per_head_term_functions(S, k))

    def test_matches_oracle_on_order_4_iso_classes_at_arity_3(self):
        classes = list(enumerate_tables(4, "up_to_iso"))
        assert len(classes) == 188
        for S in classes:
            assert listing(term_functions(S, 3)) == listing(per_head_term_functions(S, 3))

    def test_matches_oracle_on_a2_at_arity_3(self):
        funcs = term_functions(A2, 3)
        assert len(funcs) == 1614
        assert listing(funcs) == listing(per_head_term_functions(A2, 3))

    def test_matches_oracle_on_order_16(self):
        # the largest order whose values are stored two per byte
        funcs = term_functions(Z16, 2)
        assert len(funcs) == 16 * 16
        assert listing(funcs) == listing(per_head_term_functions(Z16, 2))

    def test_matches_oracle_on_order_17(self):
        # past the one-group byte code (n * n <= 256) of the product kernel
        funcs = term_functions(Z17, 2)
        assert len(funcs) == 17 * 17
        assert listing(funcs) == listing(per_head_term_functions(Z17, 2))

    def test_matches_oracle_on_the_lemma_3_table_at_arity_4(self):
        funcs = term_functions(LEMMA3_TABLE, 4)
        assert len(funcs) == 26216
        assert listing(funcs) == listing(per_head_term_functions(LEMMA3_TABLE, 4))

    @pytest.mark.parametrize("S, arity", [(A2, 3), (LEMMA3_TABLE, 4)], ids=["A2", "lemma3"])
    def test_witness_words_are_factor_closed(self, S, arity):
        # each witness is a reduced word, so with its first or its last
        # letter dropped it is the witness of an earlier function
        index = {}
        for i, word in enumerate(term_functions(S, arity).words()):
            if len(word) > 1:
                assert index[word[1:]] < i
                assert index[word[:-1]] < i
            index[word] = i

    @pytest.mark.parametrize(
        "S, arity, size, most",
        [(A2, 3, 1614, 1910), (LEMMA3_TABLE, 4, 26216, 29772), (Z17, 2, 289, 291)],
        ids=["A2", "lemma3", "Z17"],
    )
    def test_only_products_with_a_reduced_suffix_are_formed(self, monkeypatch, S, arity, size, most):
        # the full search forms size * arity products
        formed = []
        right_products = eqdomain.terms._right_products

        def counting(cells, letters, codes):
            formed.append(len(cells))
            return right_products(cells, letters, codes)

        monkeypatch.setattr(eqdomain.terms, "_right_products", counting)
        assert len(term_functions(S, arity)) == size
        assert sum(formed) <= most

    def test_words_are_the_witness_words(self):
        funcs = term_functions(A2, 3)
        witnesses = [f.witness for f in per_head_term_functions(A2, 3)]
        assert list(funcs.words()) == [t.word for t in witnesses]
        assert [format_word(w) for w in funcs.words()] == [str(t) for t in witnesses]
        assert list(funcs.texts()) == [str(t) for t in witnesses]

    def test_texts_split_long_runs_like_format_word(self):
        # every prefix of one word, plus a branch off each run's 64th letter
        word = (0,) * 130 + (1,) * 65 + (0,) + (1,) * 64 + (0,) * 2
        parent = list(range(-1, len(word) - 1))
        letter = list(word)
        for j in (63, 127, 193):
            parent += [j, j]
            letter += [word[j], 1 - word[j]]
        funcs = TermFunctions(_RowLayout(1, 2), np.zeros((len(letter), 8), np.uint8), np.array(parent), np.array(letter))
        words = list(funcs.words())
        assert list(funcs.texts()) == [format_word(w) for w in words]
        assert all(parse_term(t, 2).word == w for t, w in zip(funcs.texts(), words))

    @pytest.mark.parametrize("heads", [1, 2, 3, 7])
    def test_blocks_of_a_few_heads_keep_the_order(self, monkeypatch, heads):
        # blocks of 3 * heads products, which end inside a breadth-first
        # level and at its end
        width = 48  # A2 at arity 3: 125 values, three per byte, in 6 words
        monkeypatch.setattr(eqdomain.terms, "BLOCK_BYTES", heads * 3 * width)
        assert listing(term_functions(A2, 3)) == listing(per_head_term_functions(A2, 3))

    @staticmethod
    def check_exact(semigroups):
        for S in semigroups:
            for k in (1, 2, 3):
                expected = listing(per_head_term_functions(S, k))
                # a missed duplicate would overrun the budget instead of growing on
                assert listing(term_functions(S, k, budget=len(expected))) == expected

    def test_constant_hash_changes_nothing(self, constant_hash, semigroups_le3):
        self.check_exact(semigroups_le3[::5] + [A2])

    @pytest.mark.parametrize(
        "low_bits, block_bytes", [(0, 1 << 13), (2, None), (2, 1 << 13)], ids=["zero-small", "low2", "low2-small"]
    )
    def test_colliding_hashes_change_nothing(self, monkeypatch, semigroups_le3, low_bits, block_bytes):
        # Only the low bits of each hash are kept, so every row starts at
        # slot 0 and one chain mixes equal and different keys; with small
        # blocks it also runs across many blocks and growths of the index
        # (A2 at arity 3 has 1,614 functions, the first index 1,024 slots).
        row_hashes = eqdomain.terms._row_hashes
        low = np.uint64((1 << low_bits) - 1)
        monkeypatch.setattr(eqdomain.terms, "_row_hashes", lambda rows: row_hashes(rows) & low)
        if block_bytes:
            monkeypatch.setattr(eqdomain.terms, "BLOCK_BYTES", block_bytes)
        self.check_exact(semigroups_le3[::5] + [A2])

    def test_budget_edge(self):
        size = len(term_functions(A2, 3))
        assert len(term_functions(A2, 3, budget=size)) == size
        with pytest.raises(BudgetExceeded) as exc:
            term_functions(A2, 3, budget=size - 1)
        assert exc.value.size == size

    def test_sequence_access(self):
        funcs = term_functions(Z3, 2)
        listed = list(funcs)
        assert listing(funcs[i] for i in range(len(funcs))) == listing(listed)
        assert listing([funcs[-1]]) == listing(listed[-1:])
        assert listing(funcs[1:4]) == listing(listed[1:4])
        with pytest.raises(IndexError):
            funcs[len(funcs)]

    def test_rows_are_zero_padded_values(self):
        # base-3 digits, five values per byte: point 5j+t is digit t of
        # byte j, so 9 values fill the first 2 bytes of one word; the pad
        # slots hold the value at (0, 0), and 0 is Z3's idempotent
        funcs = term_functions(Z3, 2)
        assert funcs.layout.per_byte == 5
        assert funcs.rows.shape == (len(funcs), 8)
        values = digits_of(funcs.rows, 3, 5)
        assert not values[:, 9:].any()
        assert [v[:9].tobytes() for v in values] == [f.values for f in funcs]

    def test_rows_at_order_17_are_one_value_per_byte(self):
        # the pad slots hold the value at (0, 0), and 0 is Z17's idempotent
        funcs = term_functions(Z17, 2)
        assert funcs.layout.per_byte == 1
        assert funcs.rows.shape == (len(funcs), 296)
        assert not funcs.rows[:, 289:].any()
        assert [r[:289].tobytes() for r in funcs.rows] == [f.values for f in funcs]

    def test_pad_slots_hold_the_idempotent(self, semigroups_le3):
        # every term function takes the value e at (e, ..., e), so the pad
        # slots, which hold that point, read e in every stored row
        for S in semigroups_le3 + [A2, NULL2]:
            e = min(x for x in range(S.order) if S.mul(x, x) == x)
            for arity in (1, 2, 3):
                funcs = term_functions(S, arity)
                layout = funcs.layout
                assert (layout.slots[layout.where] == np.arange(layout.npoints)).all()
                pad = np.ones(len(layout.slots), dtype=bool)
                pad[layout.where] = False
                assert (layout.slots[pad] == encode_point((e,) * arity, S.order)).all()
                slots = digits_of(funcs.rows, S.order, layout.per_byte)
                assert (slots[:, pad] == e).all()
                values = [f.values for f in funcs]
                assert [row[layout.where].tobytes() for row in slots] == values

    @pytest.mark.parametrize(
        "spread", [lambda h: h | np.uint64(0xF << 60), lambda h: h & np.uint64(0xF)], ids=["high-bits", "low-bits"]
    )
    def test_the_index_is_sorted_and_exact(self, monkeypatch, spread):
        # Blocks of 21 products merge into the index about a hundred times.
        # With the top 4 bits of every hash set, the hashes crowd the end
        # of the index; with only the low 4 bits kept, 1,614 functions
        # share 16 hashes, so most merges follow a regroup.
        row_hashes = eqdomain.terms._row_hashes
        monkeypatch.setattr(eqdomain.terms, "_row_hashes", lambda rows: spread(row_hashes(rows)))
        monkeypatch.setattr(eqdomain.terms, "BLOCK_BYTES", 1 << 10)
        kept = []
        functions = _CloneTable.functions

        def keeping(self, layout):
            kept.append((self.hashes, self.ids))
            return functions(self, layout)

        monkeypatch.setattr(_CloneTable, "functions", keeping)
        funcs = term_functions(A2, 3)
        assert listing(funcs) == listing(per_head_term_functions(A2, 3))
        [(hashes, ids)] = kept
        assert (hashes[:-1] <= hashes[1:]).all()
        assert (np.sort(ids) == np.arange(len(funcs))).all()
        assert (spread(row_hashes(funcs.rows))[ids] == hashes).all()


class TestRowLayout:
    """Packing and unpacking base-n digits, with and without first points."""

    @pytest.mark.parametrize("n, arity", [(1, 1), (3, 1), (3, 2), (5, 3), (15, 1), (15, 2), (17, 1), (17, 2)])
    def test_round_trip_on_odd_point_counts(self, n, arity):
        layout = _RowLayout(n, arity)
        npoints = n**arity
        assert npoints % 2
        values = np.random.default_rng(npoints).integers(0, n, (4, npoints)).astype(np.uint8)
        rows = layout.pack(values)
        d = layout.per_byte
        assert rows.shape == (4, layout.width) and layout.width == -(-npoints // (8 * d)) * 8
        # point p is digit p % d of byte p // d, and the pad holds point 0
        padded = np.concatenate([values, np.repeat(values[:, :1], layout.width * d - npoints, axis=1)], axis=1)
        weights = n ** np.arange(d)
        assert (rows == (padded.reshape(4, layout.width, d) * weights).sum(axis=2)).all()
        assert (layout.unpack(rows) == values).all()
        assert (layout.unpack(rows[1]) == values[1]).all()

    @pytest.mark.parametrize("n", range(1, 21))
    def test_round_trip_at_every_order(self, n):
        rng = np.random.default_rng(100 + n)
        for arity in (1, 2, 3):
            npoints = n**arity
            first = np.flatnonzero(rng.random(npoints) < 0.3)
            pad = int(rng.integers(n))
            layout = _RowLayout(n, arity, pad, first)
            word = 8 * layout.per_byte
            assert layout.lead == -(-len(first) // word) * 8
            assert layout.width == layout.lead + -(-(npoints - len(first)) // word) * 8
            # the first points lead in encoded order, then the rest
            rest = np.setdiff1d(np.arange(npoints), first)
            assert (layout.slots[: len(first)] == first).all()
            assert (layout.slots[layout.lead * layout.per_byte :][: len(rest)] == rest).all()
            values = rng.integers(0, n, (5, npoints)).astype(np.uint8)
            rows = layout.pack(values)
            assert rows.shape == (5, layout.width) and rows.flags.c_contiguous
            slots = digits_of(rows, n, layout.per_byte)
            assert (slots == values[:, layout.slots]).all()
            assert (layout.unpack(rows) == values).all()

    @pytest.mark.parametrize(
        "n, per_byte", [(1, 8), (2, 8), (3, 5), (4, 4), (5, 3), (6, 3), (7, 2), (16, 2), (17, 1), (20, 1), (255, 1)]
    )
    def test_values_per_byte(self, n, per_byte):
        assert _RowLayout(n, 1).per_byte == per_byte
        assert n**per_byte <= 256 and (per_byte == 8 or n ** (per_byte + 1) > 256)

    @pytest.mark.parametrize("n, arity, width", [(2, 4, 8), (2, 7, 16), (3, 4, 24), (4, 4, 64), (5, 4, 216), (16, 2, 128)])
    def test_width(self, n, arity, width):
        assert _RowLayout(n, arity).width == width

    def test_differing_reads_only_the_rest(self):
        n, arity = 5, 3
        rng = np.random.default_rng(5)
        first = np.arange(0, 125, 3)
        layout = _RowLayout(n, arity, 0, first)
        values = rng.integers(0, n, (40, 125)).astype(np.uint8)
        values[:, 0] = 0  # the pad point holds the idempotent 0
        a, b = np.arange(0, 20), np.arange(20, 40)
        expected = (values[a] != values[b]).any(axis=0)
        expected[first] = False
        assert (layout.differing(layout.pack(values), a, b) == expected).all()
        assert not layout.differing(layout.pack(values), a[:0], b[:0]).any()


class TestProductKernel:
    """``_right_products`` on stored rows against a plain numpy product of
    the same values, stored."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_table_lookup(self, n):
        rng = np.random.default_rng(n)
        table = rng.integers(0, n, (n, n))
        for arity in (1, 2, 3):
            npoints = n**arity
            # a random table may have no idempotent, so the pad element is
            # any element, and some points are stored first
            pad = int(rng.integers(n))
            layout = _RowLayout(n, arity, pad, np.flatnonzero(rng.random(npoints) < 0.5))
            codes = _ProductCodes(table, layout)
            grid = coordinate_grid(n, arity)
            assert (codes.projections == layout.pack(grid)).all()
            # 5 heads, then 7 on the same codes, so its products buffer grows
            for count in (5, 7):
                heads = rng.integers(0, n, (count, npoints))
                expected = np.stack([table[heads, grid[i]] for i in range(arity)], axis=1)
                cells = np.repeat(layout.pack(heads), arity, axis=0)
                letters = np.tile(np.arange(arity), count)
                got = _right_products(cells, letters, codes)
                assert got.shape == (count * arity, layout.width)
                assert (got == layout.pack(expected.reshape(count * arity, -1))).all()
                # the pad slots hold the products at the point (pad, ..., pad)
                pad_slots = np.ones(len(layout.slots), dtype=bool)
                pad_slots[layout.where] = False
                at_pad = expected.reshape(count * arity, -1)[:, [encode_point((pad,) * arity, n)]]
                assert (digits_of(got, n, layout.per_byte)[:, pad_slots] == at_pad).all()
