import random
from itertools import zip_longest

import pytest

from eqdomain import (
    CanonicalForm,
    CorpusError,
    CorpusWarning,
    Semigroup,
    canonicalize,
    enumerate_tables,
    format_table,
    parse_corpus,
    read_corpus,
)
from eqdomain.enumeration import MODES, _assoc_tables, canonical_table, is_canonical, split_search
from support import LEFT_ZERO, RIGHT_ZERO, Z2, brute_force_assoc_tables, cell_scan_assoc_tables

RAW_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3_492}
ISO_COUNTS = {2: 5, 3: 24, 4: 188}
ANTI_COUNTS = {2: 4, 3: 18, 4: 126}
# OEIS A023814, A027851 and A001423 at order 5
ORDER5_COUNTS = {"raw": 183_732, "up_to_iso": 1_915, "up_to_iso_and_anti": 1_160}
REDUCED = ("up_to_iso", "up_to_iso_and_anti")


@pytest.fixture(scope="module")
def order5_raw():
    """The raw order-5 stream, read once: its length, 2,000 seeded tables
    from it, and its tables that pass ``is_canonical`` in each reduced mode."""
    picks = set(random.Random(5).sample(range(ORDER5_COUNTS["raw"]), 2000))
    count, sample = 0, []
    canonical = {mode: [] for mode in REDUCED}
    for i, S in enumerate(enumerate_tables(5)):
        count += 1
        if i in picks:
            sample.append(S.table)
        for mode in REDUCED:
            if is_canonical(S.table, mode):
                canonical[mode].append(S.table)
    return count, sample, canonical


class TestEnumerate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_raw_matches_brute_force(self, n):
        expected = set(brute_force_assoc_tables(n))
        got = [S.table for S in enumerate_tables(n)]
        assert len(got) == RAW_COUNTS[n]
        assert set(got) == expected
        assert len(set(got)) == len(got)

    @pytest.mark.parametrize("n", [2, 3])
    def test_reduced_counts(self, n):
        assert sum(1 for _ in enumerate_tables(n, "up_to_iso")) == ISO_COUNTS[n]
        assert sum(1 for _ in enumerate_tables(n, "up_to_iso_and_anti")) == ANTI_COUNTS[n]

    @pytest.mark.parametrize("mode", ["up_to_iso", "up_to_iso_and_anti"])
    def test_reduced_streams_cover_and_separate(self, mode):
        for n in (2, 3):
            reps = [S.table for S in enumerate_tables(n, mode)]
            # representatives are canonical and pairwise inequivalent
            canon = [canonical_table(t, mode) for t in reps]
            assert canon == reps
            assert len(set(canon)) == len(canon)
            # every raw table reduces to some emitted representative
            reachable = {canonical_table(S.table, mode) for S in enumerate_tables(n)}
            assert reachable == set(reps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_raw_stream_matches_cell_scan_oracle(self, n):
        assert [S.table for S in enumerate_tables(n)] == list(cell_scan_assoc_tables(n))

    def test_order5_raw_count(self, order5_raw):
        assert order5_raw[0] == ORDER5_COUNTS["raw"]

    @pytest.mark.parametrize("mode", REDUCED)
    def test_order5_reduced_counts(self, mode):
        assert sum(1 for _ in enumerate_tables(5, mode)) == ORDER5_COUNTS[mode]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", REDUCED)
    def test_pruned_stream_matches_filtered_oracle(self, mode, n):
        # content and order: the canonical tables of the cell-scan raw stream
        expected = [t for t in cell_scan_assoc_tables(n) if is_canonical(t, mode)]
        assert [S.table for S in enumerate_tables(n, mode)] == expected

    @pytest.mark.parametrize("mode", REDUCED)
    def test_order5_pruned_stream_matches_filtered_raw(self, mode, order5_raw):
        expected = order5_raw[2][mode]
        assert len(expected) == ORDER5_COUNTS[mode]
        assert [S.table for S in enumerate_tables(5, mode)] == expected

    def test_search_prunes_in_reduced_modes_only(self):
        # the search itself yields the classes, not all 3,492 raw tables
        assert sum(1 for _ in _assoc_tables(4)) == RAW_COUNTS[4]
        assert sum(1 for _ in _assoc_tables(4, "up_to_iso")) == ISO_COUNTS[4]
        assert sum(1 for _ in _assoc_tables(4, "up_to_iso_and_anti")) == ANTI_COUNTS[4]

    def test_deterministic_order(self):
        assert [S.table for S in enumerate_tables(2)] == [
            S.table for S in enumerate_tables(2)
        ]

    def test_argument_validation_is_eager(self):
        with pytest.raises(ValueError):
            enumerate_tables(0)
        with pytest.raises(ValueError):
            enumerate_tables(2, "bogus")
        with pytest.raises(ValueError):
            enumerate_tables(6)


def shard_streams(n, mode, starts):
    """The tables of each shard of a split search, one shard after another."""
    for start, stop in zip(starts, starts[1:] + [None]):
        yield from enumerate_tables(n, mode, True, start, stop)


class TestSplitSearch:
    """The shards of a split search, concatenated, are the whole stream."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_shards_concatenate_to_the_stream(self, n, mode):
        starts = split_search(n, mode, 64)  # the split of verify-theorem --jobs 2
        assert starts[0] == ()
        assert all(a < b for a, b in zip(starts, starts[1:]))
        # streamed pairwise: the raw order-5 stream is 183,732 tables
        pairs = zip_longest(shard_streams(n, mode, starts), enumerate_tables(n, mode))
        assert all(a is not None and b is not None and a.table == b.table for a, b in pairs)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_shard_count_at_order_4(self, mode):
        whole = [S.table for S in enumerate_tables(4, mode)]
        for pieces in range(1, 12):
            starts = split_search(4, mode, pieces)
            assert 1 <= len(starts) <= pieces
            assert [S.table for S in shard_streams(4, mode, starts)] == whole

    def test_cut_lists_nodes_in_order(self):
        for cut in range(1, 10):
            nodes = list(_assoc_tables(3, "raw", cut=cut))
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            # no node lies inside another's subtree
            assert not any(b[: len(a)] == a for a, b in zip(nodes, nodes[1:]))
            shards = [list(_assoc_tables(3, "raw", a, b)) for a, b in zip(nodes, nodes[1:] + [None])]
            assert [t for shard in shards for t in shard] == list(_assoc_tables(3))

    @pytest.mark.parametrize(
        "mode, start",
        [("raw", (0, 0, 1)), ("raw", (3,)), ("raw", (0,) * 10), ("up_to_iso", (1, 0))],
    )
    def test_start_that_is_no_node(self, mode, start):
        with pytest.raises(ValueError, match="names no node"):
            list(_assoc_tables(3, mode, start))


class TestTrustedTables:
    """Enumerated tables skip validation; the validating constructor agrees."""

    @pytest.mark.parametrize("mode", MODES)
    def test_orders_up_to_4(self, mode):
        for n in (1, 2, 3, 4):
            for S in enumerate_tables(n, mode):
                assert S.order == n
                assert Semigroup(S.table).table == S.table

    def test_order5_sample(self, order5_raw):
        sample = order5_raw[1]
        assert len(sample) == 2000
        for table in sample:
            assert Semigroup(table).table == table


class TestCanonicalize:
    def test_raw_mode_is_identity(self):
        assert canonicalize(RIGHT_ZERO, "raw") == CanonicalForm(RIGHT_ZERO.table, "raw")

    def test_left_and_right_zero(self):
        iso_l = canonicalize(LEFT_ZERO, "up_to_iso").table
        iso_r = canonicalize(RIGHT_ZERO, "up_to_iso").table
        assert iso_l != iso_r
        anti_l = canonicalize(LEFT_ZERO, "up_to_iso_and_anti").table
        anti_r = canonicalize(RIGHT_ZERO, "up_to_iso_and_anti").table
        assert anti_l == anti_r

    def test_idempotent(self):
        for mode in ("up_to_iso", "up_to_iso_and_anti"):
            once = canonical_table(Z2.table, mode)
            assert canonical_table(once, mode) == once

    def test_relabelings_share_canonical_form(self):
        relabeled = Semigroup([[1, 0], [0, 1]])  # Z2 with the identity renamed
        assert (
            canonicalize(Z2, "up_to_iso").table
            == canonicalize(relabeled, "up_to_iso").table
        )

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            canonical_table(Z2.table, "nope")
        with pytest.raises(ValueError):
            is_canonical(Z2.table, "nope")


class TestIsCanonical:
    """The early-exit predicate against the full minimization it replaces."""

    @pytest.mark.parametrize("mode", REDUCED)
    def test_agrees_up_to_order_4(self, mode, semigroups_le3, semigroups_order4):
        for S in semigroups_le3 + semigroups_order4:
            assert is_canonical(S.table, mode) == (canonical_table(S.table, mode) == S.table)

    @pytest.mark.parametrize("mode", REDUCED)
    def test_agrees_on_an_order5_sample(self, mode, order5_raw):
        sample = order5_raw[1]
        assert len(sample) == 2000
        for table in sample:
            assert is_canonical(table, mode) == (canonical_table(table, mode) == table)

    def test_raw_mode_keeps_everything(self):
        assert is_canonical(RIGHT_ZERO.table, "raw")
        assert is_canonical([[1, 0], [0, 1]], "raw")

    def test_accepts_lists(self):
        assert is_canonical([[0, 0], [0, 1]], "up_to_iso")
        assert not is_canonical([[0, 1], [1, 1]], "up_to_iso")


CORPUS = """\
2
0 0
1 1

2
0 0
0 1
"""


class TestCorpus:
    def test_two_tables(self):
        got = list(parse_corpus(CORPUS))
        assert [S.table for S in got] == [((0, 0), (1, 1)), ((0, 0), (0, 1))]

    def test_empty_text(self):
        assert list(parse_corpus("")) == []
        assert list(parse_corpus("\n\n \n")) == []

    def test_format_round_trip(self):
        text = "\n\n".join(format_table(S) for S in enumerate_tables(2))
        assert [S.table for S in parse_corpus(text)] == [
            S.table for S in enumerate_tables(2)
        ]

    def test_strict_errors_carry_lines(self):
        with pytest.raises(CorpusError) as exc:
            list(parse_corpus("2\n0 0\n"))
        assert exc.value.line == 1
        with pytest.raises(CorpusError) as exc:
            list(parse_corpus("2\n0 0\n1 x\n"))
        assert exc.value.line == 3
        with pytest.raises(CorpusError) as exc:
            list(parse_corpus("not-a-number\n"))
        assert exc.value.line == 1

    def test_strict_rejects_non_associative_with_index(self):
        text = CORPUS + "\n2\n0 0\n1 0\n"
        with pytest.raises(CorpusError) as exc:
            list(parse_corpus(text))
        assert exc.value.table_index == 2
        assert "(x, y, z)" in str(exc.value)

    def test_non_strict_skips_with_warning(self):
        text = "2\n0 0\n1 0\n\n2\n0 0\n1 1\n"
        with pytest.warns(CorpusWarning):
            got = list(parse_corpus(text, strict=False))
        assert [S.table for S in got] == [((0, 0), (1, 1))]

    def test_read_corpus(self, tmp_path):
        path = tmp_path / "tables.txt"
        path.write_text(CORPUS)
        assert len(list(read_corpus(path))) == 2
