"""Shared tables and independent oracles for the test suite.

The oracles deliberately avoid the library's fixpoint/grouping machinery:
associativity is brute-forced over all triples of raw tables, and the
closure oracle enumerates raw words without deduplication.
"""

import itertools

import numpy as np

from eqdomain import PointSet, Semigroup, coordinate_grid, decode_point

LEFT_ZERO = Semigroup([[0, 0], [1, 1]])
RIGHT_ZERO = Semigroup([[0, 1], [0, 1]])
MIN2 = Semigroup([[0, 0], [0, 1]])  # two-element semilattice
Z2 = Semigroup([[0, 1], [1, 0]])
Z3 = Semigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
NULL2 = Semigroup([[1, 1], [1, 1]])  # a*a = a^2 absorbing, elements a, a^2
CHAIN3 = Semigroup([[min(i, j) for j in range(3)] for i in range(3)])
# 2x2 rectangular band: element 2i+j is the pair (i, j), (i,j)(i',j') = (i, j')
RECT_BAND_2X2 = Semigroup([[(i // 2) * 2 + (j % 2) for j in range(4)] for i in range(4)])


def brute_force_assoc_tables(n):
    """Every associative n x n table, by filtering the full n^(n^2) space."""
    tables = []
    for combo in itertools.product(range(n), repeat=n * n):
        t = [combo[i * n : (i + 1) * n] for i in range(n)]
        if all(
            t[t[x][y]][z] == t[x][t[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            tables.append(tuple(t))
    return tables


def cell_scan_assoc_tables(n):
    """Every associative n x n table, in lexicographic order of the flat table.

    The cell-scan search the enumerator used before propagation: cells are
    filled in row-major order and each new cell rescans every triple that
    uses it.  Kept as the oracle for the order of the raw stream.
    """
    size = n * n
    flat = [-1] * size

    def triple_holds(x, y, z):
        xy = flat[x * n + y]
        if xy < 0:
            return True
        yz = flat[y * n + z]
        if yz < 0:
            return True
        left = flat[xy * n + z]
        if left < 0:
            return True
        right = flat[x * n + yz]
        return right < 0 or left == right

    def consistent(a, b):
        # only triples that involve the just-filled cell (a, b) can fail now
        for z in range(n):
            if not triple_holds(a, b, z):
                return False
        for x in range(n):
            if not triple_holds(x, a, b):
                return False
        for x in range(n):
            row = x * n
            for y in range(n):
                if flat[row + y] == a and not triple_holds(x, y, b):
                    return False
        for y in range(n):
            row = y * n
            for z in range(n):
                if flat[row + z] == b and not triple_holds(a, y, z):
                    return False
        return True

    def search(pos):
        if pos == size:
            yield tuple(tuple(flat[r * n : (r + 1) * n]) for r in range(n))
            return
        a, b = divmod(pos, n)
        for v in range(n):
            flat[pos] = v
            if consistent(a, b):
                yield from search(pos + 1)
        flat[pos] = -1

    yield from search(0)


def power_by_table(S, a, e):
    v = a
    for _ in range(e - 1):
        v = S.table[v][a]
    return v


def generated_subset(S, a):
    """Elements of the subsemigroup generated by ``a``, by saturation."""
    elems = {a}
    while True:
        grown = elems | {S.table[x][a] for x in elems} | {S.table[a][x] for x in elems}
        grown |= {S.table[x][y] for x in elems for y in elems}
        if grown == elems:
            return elems
        elems = grown


def raw_word_vectors(S, k, max_len):
    """Value vectors of every word of length <= max_len, no deduplication."""
    table = S.as_array().astype(np.uint8)
    grid = coordinate_grid(S.order, k).astype(np.uint8)
    level = [grid[i] for i in range(k)]
    vectors = []
    for length in range(1, max_len + 1):
        vectors.extend(level)
        if length < max_len:
            level = [table[v, grid[j]] for v in level for j in range(k)]
    return vectors


def naive_closure_mask(S, Y: PointSet, max_len=8):
    """Closure oracle: intersect the solution sets of every equation between
    raw words of length <= max_len that holds on Y."""
    npts = S.order**Y.k
    y_idx = np.array([i for i in range(npts) if Y.contains_index(i)], dtype=np.intp)
    groups = {}
    for vec in raw_word_vectors(S, Y.k, max_len):
        groups.setdefault(vec[y_idx].tobytes(), []).append(vec)
    keep = np.ones(npts, dtype=bool)
    for members in groups.values():
        if len(members) < 2:
            continue
        stacked = np.stack(members)
        keep &= (stacked == stacked[0]).all(axis=0)
    mask = 0
    for i in np.flatnonzero(keep):
        mask |= 1 << int(i)
    return mask


def naive_is_algebraic(S, Y: PointSet, max_len=8):
    mask = naive_closure_mask(S, Y, max_len)
    if mask == Y.mask:
        return True, None
    extra = mask & ~Y.mask
    return False, decode_point((extra & -extra).bit_length() - 1, S.order, Y.k)


def random_point_set(rng, n, k):
    return PointSet(n, k, rng.getrandbits(n**k))


def in_m3(p):
    return p[0] == p[1] or p[0] == p[2]


def in_m4(p):
    return p[0] == p[1] or p[2] == p[3]
