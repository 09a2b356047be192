"""Shared tables and independent oracles for the test suite.

The oracles deliberately avoid the library's fixpoint/grouping machinery:
associativity is brute-forced over all triples of raw tables, and the
closure oracle enumerates raw words without deduplication.  The one-by-one
term-function search and its grouping by ``bytes`` keys are kept as the
oracles of the block engine and of the numpy grouping in the library.
The power structure, the band predicates, lemma 3's exponent argument, the
early-exit canonical-form test and the one-point term fold live here too:
no command runs them, and each checks what the library computes its own
way or what a lemma claims.
"""

import itertools
from typing import NamedTuple

import numpy as np

from eqdomain import (
    DEFAULT_BUDGET,
    MODES,
    BudgetExceeded,
    Case,
    PointSet,
    Semigroup,
    Term,
    TermFunction,
    WitnessReport,
    classify,
    coordinate_grid,
    decode_point,
    in_pair_closure,
)
from eqdomain.witnesses import _shape_key

LEFT_ZERO = Semigroup([[0, 0], [1, 1]])
RIGHT_ZERO = Semigroup([[0, 1], [0, 1]])
MIN2 = Semigroup([[0, 0], [0, 1]])  # two-element semilattice
Z2 = Semigroup([[0, 1], [1, 0]])
Z3 = Semigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
NULL2 = Semigroup([[1, 1], [1, 1]])  # a*a = a^2 absorbing, elements a, a^2
CHAIN3 = Semigroup([[min(i, j) for j in range(3)] for i in range(3)])
# 2x2 rectangular band: element 2i+j is the pair (i, j), (i,j)(i',j') = (i, j')
RECT_BAND_2X2 = Semigroup([[(i // 2) * 2 + (j % 2) for j in range(4)] for i in range(4)])
# the order-5 class with the largest arity-3 clone (1,614 functions)
A2 = Semigroup([[0, 0, 0, 0, 0], [0, 0, 0, 1, 2], [0, 1, 2, 1, 2], [0, 0, 0, 3, 4], [0, 3, 4, 3, 4]])


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


def per_head_term_functions(S, arity, budget=DEFAULT_BUDGET):
    """Every term function, in discovery order, extending one function at a time.

    The breadth-first search the library used before the block engine:
    each discovered function is multiplied by every projection on the
    right, and a value vector is new when its bytes are not a key yet.
    """
    n = S.order
    npoints = n**arity
    table = S.as_array().astype(np.uint8)
    grid = coordinate_grid(n, arity).astype(np.uint8)

    functions = []
    index_of = {}
    capacity = 64
    rows = np.empty((capacity, npoints), dtype=np.uint8)

    def add(vec, word):
        nonlocal rows, capacity
        key = vec.tobytes()
        if key in index_of:
            return
        if len(functions) >= budget:
            raise BudgetExceeded(len(functions) + 1)
        if len(functions) == capacity:
            capacity *= 2
            grown = np.empty((capacity, npoints), dtype=np.uint8)
            grown[: len(functions)] = rows[: len(functions)]
            rows = grown
        rows[len(functions)] = vec
        index_of[key] = len(functions)
        functions.append(TermFunction(n, arity, key, Term(word, arity)))

    for i in range(arity):
        add(grid[i], (i,))

    head = 0
    while head < len(functions):
        extended = table[rows[head], grid]  # row i: (current word) * x_{i+1}
        word = functions[head].witness.word
        for i in range(arity):
            add(extended[i], word + (i,))
        head += 1
    return functions


def grouped_closure(S, Y: PointSet):
    """(agreeing pairs, closure mask) by grouping the oracle's functions on
    the bytes of their restriction to Y, first member as representative."""
    funcs = per_head_term_functions(S, Y.k)
    npoints = Y.n**Y.k
    vectors = [np.frombuffer(f.values, dtype=np.uint8) for f in funcs]
    y_idx = np.array([i for i in range(npoints) if Y.contains_index(i)], dtype=np.intp)
    groups = {}
    for fi, vec in enumerate(vectors):
        groups.setdefault(vec[y_idx].tobytes(), []).append(fi)
    keep = np.ones(npoints, dtype=bool)
    pairs = []
    for members in groups.values():
        if len(members) < 2:
            continue
        stacked = np.stack([vectors[m] for m in members])
        keep &= (stacked == stacked[0]).all(axis=0)
        pairs.extend((funcs[members[0]], funcs[m]) for m in members[1:])
    mask = 0
    for i in np.flatnonzero(keep):
        mask |= 1 << int(i)
    return pairs, mask


def uniform_pair(S):
    """An idempotent x and a y != x that certify the m3 pair shape, or None.

    The shape is the one lemmas 1.1, 1.2 and 2 use: (x, y, y) lies in the
    closure of (x, x, y) and (x, y, x), here checked directly by
    ``in_pair_closure`` for every candidate pair, in lexicographic order.
    """
    for x in range(S.order):
        if S.mul(x, x) != x:
            continue
        for y in range(S.order):
            if y != x and in_pair_closure(S, (x, x, y), (x, y, x), (x, y, y)):
                return x, y
    return None


def search_free_pair(S):
    """The case and the pair (x, y) of the m3 pair shape, chosen without
    ``in_pair_closure``, for a nontrivial finite semigroup; None otherwise.

    - "A": x is the least idempotent e with eSe != {e}, y the least
      element of eSe other than e.
    - "B-rect": every eSe is trivial and the minimal ideal K has two or
      more elements, so K is a rectangular band; x and y are its two least.
    - "B-nil": every eSe is trivial and K = {0}, so S is nilpotent; x = 0
      and y is the least nonzero element with y*y = 0.

    The product of all elements lies in K, as K is an ideal, and K is the
    ideal that product generates.
    """
    n, mul = S.order, S.mul
    for e in range(n):
        if mul(e, e) == e and (local := {mul(mul(e, s), e) for s in range(n)} - {e}):
            return "A", e, min(local)
    w = 0
    for s in range(1, n):
        w = mul(w, s)
    left = {w} | {mul(s, w) for s in range(n)}
    K = sorted(left | {mul(u, s) for u in left for s in range(n)})
    if len(K) >= 2:
        return "B-rect", K[0], K[1]
    zero = K[0]
    y = next((y for y in range(n) if y != zero and mul(y, y) == zero), None)
    return None if y is None else ("B-nil", zero, y)


def power_by_table(S, a, e):
    v = a
    for _ in range(e - 1):
        v = S.table[v][a]
    return v


class ElementProfile(NamedTuple):
    """Power structure of one element.

    ``cycle_powers`` lists a^1, a^2, ... up to (not including) the first
    repeated power, i.e. exactly the subsemigroup generated by the element,
    so ``len(cycle_powers) == index + period - 1``.  Powers then obey
    a^p = a^q  iff  p = q, or p, q >= index and p = q (mod period).
    """

    element: int
    index: int
    period: int
    cycle_powers: tuple[int, ...]


def element_profile(S, a):
    """Index, period and power cycle of ``a``, found by iterating powers."""
    if not 0 <= a < S.order:
        raise ValueError(f"element {a} outside 0..{S.order - 1}")
    seen, powers = {}, []
    x, p = a, 1
    while x not in seen:
        seen[x] = p
        powers.append(x)
        x = S.table[x][a]
        p += 1
    first = seen[x]
    return ElementProfile(a, first, p - first, tuple(powers))


def monogenic_equal(index, period, p, q):
    """Whether a^p = a^q for any element of the given index and period.

    Exponents 0 are accepted and compare equal only to each other; they
    stand for an empty product and never arise from an actual term.
    """
    if index < 1 or period < 1:
        raise ValueError("index and period are positive")
    if p < 0 or q < 0:
        raise ValueError("exponents are nonnegative")
    return p == q or (p >= index and q >= index and (p - q) % period == 0)


def monogenic_table(index, period):
    """The semigroup generated by one element of the given index and period.

    Element ``i`` stands for the (i+1)-th power of the generator, so the
    generator itself is element 0 and the order is ``index + period - 1``.
    """
    if index < 1 or period < 1:
        raise ValueError("index and period are positive")
    size = index + period - 1

    def reduce(e):
        return e - 1 if e <= size else index - 1 + (e - index) % period

    return Semigroup([[reduce(i + j + 2) for j in range(size)] for i in range(size)])


def is_idempotent(S):
    """Every element squares to itself."""
    return all(S.table[a][a] == a for a in range(S.order))


def is_nowhere_commutative(S):
    """No two distinct elements commute."""
    t = S.table
    return all(t[a][b] != t[b][a] for a in range(S.order) for b in range(a + 1, S.order))


def is_rectangular_band(S):
    """Idempotent and satisfying xyz = xz."""
    t, n = S.table, S.order
    return is_idempotent(S) and all(
        t[t[x][y]][z] == t[x][z] for x in range(n) for y in range(n) for z in range(n)
    )


class ExponentVector(NamedTuple):
    """Occurrence counts of each variable in a term."""

    counts: tuple[int, ...]


def exponent_vector(term):
    """The occurrence counts of each variable in ``term``."""
    counts = [0] * term.arity
    for v in term.word:
        counts[v] += 1
    return ExponentVector(tuple(counts))


def power_eval(ev, powers):
    """Total exponent of ``a`` when the term is evaluated at (a^powers[0], ...)."""
    powers = tuple(powers)
    if len(powers) != len(ev.counts):
        raise ValueError("one power per variable")
    return sum(c * p for c, p in zip(ev.counts, powers))


# Powers of a at lemma 3's two inside probes and at its outside probe: the
# outside exponents are coordinatewise sums of the inside ones, which is
# what makes multiplying the two equation instances work.
_INSIDE_EXPONENTS_1 = (2, 1, 1, 1)
_INSIDE_EXPONENTS_2 = (1, 1, 2, 1)
_OUTSIDE_EXPONENTS = (3, 2, 3, 2)


def verify_eq1_argument(profile, t_counts, s_counts):
    """Check one instance of lemma 3's multiply-the-equations step.

    If a term pair agrees at both inside probes (as powers of a), it must
    agree at the outside probe, whose exponents are the sums of the probe
    exponents.  Power arithmetic makes the implication hold for every
    index/period and every pair of occurrence-count vectors, which is what
    the exhaustive sweep asserts.
    """
    if len(t_counts.counts) != 4 or len(s_counts.counts) != 4:
        raise ValueError("occurrence counts are over the four variables")
    m, r = profile.index, profile.period

    def agree(weights):
        return monogenic_equal(m, r, power_eval(t_counts, weights), power_eval(s_counts, weights))

    if agree(_INSIDE_EXPONENTS_1) and agree(_INSIDE_EXPONENTS_2):
        return agree(_OUTSIDE_EXPONENTS)
    return True


def is_canonical(table, mode):
    """Whether ``table`` equals ``canonical_table(table, mode)``.

    True unless some relabeling (in ``up_to_iso_and_anti`` mode, also of
    the transpose) is lexicographically smaller.  Each candidate is built
    cell by cell in row-major order and dropped at the first cell where it
    is larger, so most candidates cost a cell or two.
    """
    if mode == "raw":
        return True
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = len(table)
    views = [table]
    if mode == "up_to_iso_and_anti":
        views.append(tuple(zip(*table)))
    inverse = [0] * n
    for view in views:
        # sigma maps a cell of the candidate to the cell of view it is read from
        for sigma in itertools.permutations(range(n)):
            for a, s in enumerate(sigma):
                inverse[s] = a
            for i in range(n):
                row, src = table[i], view[sigma[i]]
                for j in range(n):
                    c = inverse[src[sigma[j]]]
                    if c != row[j]:
                        if c < row[j]:
                            return False
                        break
                else:
                    continue  # row i ties: compare row i + 1
                break  # the candidate is larger: try the next one
    return True


def eval_term(S, term, point):
    """Value of a term at a point of S^arity: a left-to-right fold through
    ``S.table``, one product at a time."""
    point = tuple(point)
    if len(point) != term.arity:
        raise ValueError(f"point has {len(point)} coordinates, term arity is {term.arity}")
    if not all(0 <= c < S.order for c in point):
        raise ValueError(f"coordinates must lie in 0..{S.order - 1}")
    v = point[term.word[0]]
    for letter in term.word[1:]:
        v = S.table[v][point[letter]]
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


def reference_report(S):
    """The unchecked report of a nontrivial S, built through ``Semigroup.mul``
    and :func:`power_by_table` as the four lemmas state it.

    Only ``shape`` is taken from the library (:func:`_shape_key`), so that
    the report compares equal to the library's; what a shape fixes is
    tested against this oracle.
    """
    cls = classify(S)
    mul = S.mul
    if cls.case is Case.UNBOUNDED:
        a = cls.element
        a2, a3 = power_by_table(S, a, 2), power_by_table(S, a, 3)
        return WitnessReport(
            semigroup=S,
            classification=cls,
            lemma="3",
            elements={"a": a, "a2": a2, "a3": a3},
            target="m4",
            verified_identities=(("a != a^2", a != a2), ("a^2 != a^3", a2 != a3)),
            inside_points=((a2, a, a, a), (a, a, a2, a)),
            outside_points=((a3, a2, a3, a2),),
            separating_point=(a3, a2, a3, a2),
            is_equational_domain=False,
            shape=_shape_key(S, cls),
        )
    if cls.case is Case.BOUNDED_NON_IDEMPOTENT:
        a = cls.element
        a2 = power_by_table(S, a, 2)
        lemma, elements, x, y, pair_name = "2", {"a": a, "a2": a2}, a, a2, "a,a^2"
        identities = (("a != a^2", a != a2), ("a^2 = a^3", a2 == power_by_table(S, a, 3)))
    elif cls.case is Case.IDEMPOTENT_COMMUTING_PAIR:
        a, b = cls.pair
        c = mul(a, b)
        d = a if a != c else b
        assert d != c, S.table
        lemma, elements, x, y, pair_name = "1.2", {"a": a, "b": b, "c": c, "d": d}, d, c, "d,c"
        identities = (
            ("a*b = b*a", mul(a, b) == mul(b, a)),
            ("d*d = d", mul(d, d) == d),
            ("c*c = c", mul(c, c) == c),
            ("d*c = c", mul(d, c) == c),
            ("c*d = c", mul(c, d) == c),
        )
    else:
        assert cls.case is Case.IDEMPOTENT_NOWHERE_COMMUTATIVE, S.table
        n = S.order
        a, b = next(
            ((a, b) for a in range(n) for b in range(n) if b != a and mul(a, b) != a),
            (0, 1),  # every product x*y is x: the table is left-zero
        )
        right = mul(a, b) != a
        c = mul(a, b) if right else mul(b, a)
        assert c != a, S.table
        ac, ca = ("c", "a") if right else ("a", "c")
        value = {"a": a, "c": c}
        lemma, elements, x, y, pair_name = "1.1", {"a": a, "b": b, "c": c}, a, c, "a,c"
        identities = (
            ("a*a = a", mul(a, a) == a),
            ("c*c = c", mul(c, c) == c),
            (f"a*c = {ac}", mul(a, c) == value[ac]),
            (f"c*a = {ca}", mul(c, a) == value[ca]),
        )
    closed = all(mul(u, v) in (x, y) for u in (x, y) for v in (x, y))
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma=lemma,
        elements=elements,
        target="m3",
        verified_identities=(*identities, (f"{{{pair_name}}} closed under product", closed)),
        inside_points=((x, x, y), (x, y, x)),
        outside_points=((x, y, y),),
        separating_point=(x, y, y),
        is_equational_domain=False,
        shape=_shape_key(S, cls),
    )
