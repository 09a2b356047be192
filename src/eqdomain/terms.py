"""Terms over the multiplication-only language and the functions they induce.

A term is a nonempty word over variables ``x1..xk``; it has no constants,
no identity symbol and no inverses.  Evaluating every term of arity ``k``
over a finite semigroup yields a finite set of functions ``S^k -> S``:
the closure of the coordinate projections under the pointwise product.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .semigroups import DEFAULT_BUDGET, BudgetExceeded, Semigroup

__all__ = [
    "MAX_EXPONENT",
    "TermSyntaxError",
    "VariableOutOfRange",
    "EmptyTermError",
    "format_word",
    "Term",
    "Equation",
    "System",
    "parse_term",
    "parse_equation",
    "parse_equations",
    "encode_point",
    "decode_point",
    "coordinate_grid",
    "TermFunction",
    "TermFunctions",
    "term_functions",
]

MAX_EXPONENT = 64  # parser bound; keeps one factor from expanding unboundedly
BLOCK_BYTES = 1 << 21  # product bytes formed per step of the term-function search
_HASH_CHUNK_BYTES = 1 << 17


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class VariableOutOfRange(TermSyntaxError):
    def __init__(self, name: str, arity: int, position: int | None = None):
        super().__init__(f"variable {name} is outside x1..x{arity}", position)
        self.name = name


class EmptyTermError(TermSyntaxError):
    pass


def format_word(word: tuple[int, ...]) -> str:
    """The text of a word of 0-based variable indices, such as ``x1 x2^2``.

    Each run of one variable is written with an exponent; runs longer than
    the parser's exponent bound are split, so the text parses back.
    """
    parts = []
    start, end = 0, len(word)
    for j in range(1, end + 1):
        if j == end or word[j] != word[start]:
            name, run = f"x{word[start] + 1}", j - start
            while run > MAX_EXPONENT:
                parts.append(f"{name}^{MAX_EXPONENT}")
                run -= MAX_EXPONENT
            parts.append(f"{name}^{run}" if run > 1 else name)
            start = j
    return " ".join(parts)


@dataclass(frozen=True)
class Term:
    """A nonempty product of variables, stored as 0-based variable indices."""

    word: tuple[int, ...]
    arity: int

    def __post_init__(self):
        if len(self.word) < 1:
            raise EmptyTermError("a term is a nonempty product of variables")
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        for v in self.word:
            if not 0 <= v < self.arity:
                raise VariableOutOfRange(f"x{v + 1}", self.arity)

    def __str__(self):
        return format_word(self.word)


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.lhs.arity != self.rhs.arity:
            raise ValueError("both sides of an equation must share one arity")

    @property
    def arity(self) -> int:
        return self.lhs.arity

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class System:
    """A nonempty collection of equations of one arity."""

    equations: tuple[Equation, ...]

    def __post_init__(self):
        if not self.equations:
            raise ValueError("a system contains at least one equation")
        k = self.equations[0].arity
        if any(e.arity != k for e in self.equations):
            raise ValueError("all equations of a system must share one arity")

    @property
    def arity(self) -> int:
        return self.equations[0].arity


def _decimal(digits: str) -> int | float:
    """``int(digits)``, or infinity for more digits than ``int`` converts."""
    try:
        return int(digits)
    except ValueError:
        return float("inf")


def parse_term(text: str, arity: int) -> Term:
    """Parse a term such as ``x1 x2^2``.

    Syntax: factors are ``x<i>`` with 1 <= i <= arity, optionally raised to
    a positive exponent with ``^``; juxtaposition is the product and
    whitespace is insignificant.  Exponents expand into repeated letters
    and are capped at MAX_EXPONENT.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    word: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "x":
            raise TermSyntaxError(f"expected a variable, found {ch!r}", i)
        j = i + 1
        while j < n and text[j].isdecimal():
            j += 1
        if j == i + 1:
            raise TermSyntaxError("expected a variable number after 'x'", i + 1)
        name = text[i:j]
        var = _decimal(text[i + 1 : j])
        if not 1 <= var <= arity:
            raise VariableOutOfRange(name, arity, i)
        i = j
        while i < n and text[i].isspace():
            i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            while i < n and text[i].isspace():
                i += 1
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j == i:
                raise TermSyntaxError("expected an exponent after '^'", i)
            exp = _decimal(text[i:j])
            if exp < 1:
                raise TermSyntaxError("exponent must be >= 1", i)
            if exp > MAX_EXPONENT:
                raise TermSyntaxError(f"exponent exceeds {MAX_EXPONENT}", i)
            i = j
        word.extend([var - 1] * exp)
    if not word:
        raise EmptyTermError("empty term")
    return Term(tuple(word), arity)


def parse_equation(text: str, arity: int) -> Equation:
    """Parse ``<term> = <term>``; exactly one ``=`` is allowed."""
    sides = text.split("=")
    if len(sides) != 2:
        raise TermSyntaxError(f"an equation has exactly one '=', found {len(sides) - 1}")
    return Equation(parse_term(sides[0], arity), parse_term(sides[1], arity))


def parse_equations(text: str, arity: int) -> System:
    """Parse an equations file: one equation per line, ``#`` starts a comment."""
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            equations.append(parse_equation(line, arity))
        except TermSyntaxError as e:
            raise TermSyntaxError(f"line {lineno}: {e}") from e
    if not equations:
        raise TermSyntaxError("no equations found")
    return System(tuple(equations))


def encode_point(point, n: int, k: int | None = None) -> int:
    """Big-endian lexicographic encoding: coordinate 0 is most significant.

    With ``k`` given, the point must have exactly k coordinates.
    """
    if k is not None:
        point = tuple(point)
        if len(point) != k:
            raise ValueError(f"point has {len(point)} coordinates, expected {k}")
    idx = 0
    for c in point:
        if not 0 <= c < n:
            raise ValueError(f"coordinate {c} outside 0..{n - 1}")
        idx = idx * n + c
    return idx


def decode_point(index: int, n: int, k: int) -> tuple[int, ...]:
    coords = []
    for _ in range(k):
        index, c = divmod(index, n)
        coords.append(c)
    if index:
        raise ValueError("encoded index outside the point space")
    return tuple(reversed(coords))


def coordinate_grid(n: int, k: int) -> np.ndarray:
    """Shape (k, n**k) array: row i holds coordinate i of every encoded point."""
    return np.indices((n,) * k).reshape(k, n**k)


def _fold_word(word: tuple[int, ...], values, flat, n: int):
    """The value of a word when variable i takes ``values[i]``.

    A left-to-right fold through the flattened table, whose entry
    ``flat[v * n + c]`` is the product of v and c.  The values may be ints,
    or numpy arrays that hold the variables at many points at once.
    """
    v = values[word[0]]
    for letter in word[1:]:
        v = flat[v * n + values[letter]]
    return v


@dataclass(frozen=True)
class TermFunction:
    """A function S^arity -> S realized by some term.

    ``values[i]`` is the value at the point encoded as ``i``; two term
    functions are equal exactly when their value vectors agree, the witness
    term is informational only.
    """

    order: int
    arity: int
    values: bytes
    witness: Term = field(compare=False)

    def __call__(self, point) -> int:
        return self.values[encode_point(point, self.order, self.arity)]


@functools.lru_cache(maxsize=32)
def _hash_keys(count: int) -> np.ndarray:
    """The odd key of each of ``count`` words: the splitmix64 output for
    the word's 1-based position, made odd.  Read-only, as it is shared."""
    keys = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        keys = (keys ^ keys >> np.uint64(shift)) * np.uint64(multiplier)
    keys ^= keys >> np.uint64(31)
    keys |= np.uint64(1)
    keys.flags.writeable = False
    return keys


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """A fixed 64-bit hash of each row of a C-contiguous uint8 matrix.

    The width must be a multiple of 8, so the rows read as uint64 words
    without a copy.  Word j is multiplied by its own odd key
    (:func:`_hash_keys`) and xored with its high half, a bijection, and the
    results are summed mod 2**64: rows that differ in a single word never
    collide.  An equal hash is only a hint; callers confirm it by comparing
    the rows.
    """
    words = rows.view(np.uint64)
    keys = _hash_keys(words.shape[1])
    out = np.empty(len(words), dtype=np.uint64)
    step = max(1, _HASH_CHUNK_BYTES // max(1, rows.shape[1]))  # a cache-sized slice at a time
    for s in range(0, len(words), step):
        mixed = words[s : s + step] * keys
        mixed ^= mixed >> np.uint64(32)
        mixed.sum(axis=1, dtype=np.uint64, out=out[s : s + step])
    return out


def _least_of_each(hashes: np.ndarray):
    """``rep[i]``: the least j with ``hashes[j] == hashes[i]``, and
    ``by_hash``, the order that sorted ``hashes``.

    The sort need not be stable, as the least index of each run of equal
    hashes is taken.  Its other arrays, as large as ``hashes`` each, are
    freed as soon as they are read.
    """
    by_hash = hashes.argsort()
    ordered = hashes[by_hash]
    starts = np.empty(len(hashes), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    run = starts.cumsum()
    run -= 1  # in place, one array fewer at the peak
    rep = np.empty_like(by_hash)
    rep[by_hash] = np.minimum.reduceat(by_hash, starts.nonzero()[0])[run]
    return rep, by_hash


def _with_hash(hashes: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """The ascending indices i with ``hashes[i]`` in ``shared``, which is
    sorted, found by searching each hash in ``shared``."""
    return (shared.take(shared.searchsorted(hashes), mode="clip") == hashes).nonzero()[0]


def _regroup(rep: np.ndarray, members: np.ndarray, rows_of, base: int = 0):
    """Group ``members``, ascending row numbers that take in every row of
    their hashes, exactly by their bytes: each member m from ``base`` on
    gets ``rep[m - base]``, the first member with the same bytes.  Members
    below ``base`` are earlier rows, all different, so they only head
    groups.

    ``rows_of(members)`` gives the rows of the members.
    """
    seen: dict[bytes, int] = {}
    for m, row in zip(members.tolist(), rows_of(members)):
        head = seen.setdefault(row.tobytes(), m)
        if m >= base:
            rep[m - base] = head


@functools.lru_cache(maxsize=32)
def _digit_table(order: int) -> np.ndarray:
    """``digits[b, t]``: digit t of the byte b in base ``order``, the value
    of slot t of a stored byte, for the most places d with order**d <= 256,
    at most 8.  Read-only, as it is shared."""
    places = next(d for d in range(8, 0, -1) if order**d <= 256)
    digits = np.arange(256)[:, None] // order ** np.arange(places) % order
    digits = digits.astype(np.uint8)
    digits.flags.writeable = False
    return digits


@functools.lru_cache(maxsize=32)
def _differing_digits(order: int) -> np.ndarray:
    """The 65,536-entry table whose entry ``a + 256*b`` has bit t set when
    digit t of the stored bytes a and b differ.  Read-only, as it is shared."""
    digits = _digit_table(order)
    table = np.zeros((256, 256), dtype=np.uint8)  # table[b, a]
    for t in range(digits.shape[1]):
        table |= (digits[None, :, t] != digits[:, None, t]).astype(np.uint8) << t
    table = table.ravel()
    table.flags.writeable = False
    return table


class _RowLayout:
    """How the ``order**arity`` values of a term function are stored in a row.

    A row is a sequence of slots, each holding the value at one point.  A
    byte holds ``per_byte`` slots as the digits of a base-``order`` number,
    slot t as digit t: 8 at order 2, 5 at order 3, 4 at order 4, 3 at orders
    5–6, 2 at orders 7–16 and 1 above.  The points of ``first`` take the
    first slots, then the other points, both in encoded order, and each of
    the two groups is padded to whole 8-byte words, so that rows read as
    uint64 words and the first points fill the ``lead`` bytes of a row.  A
    stored row is ``width`` bytes.

    ``slots[s]`` is the point whose value slot s holds, and ``where[p]``
    the slot of point p.  Pad slots hold the point (pad, ..., pad): for an
    idempotent ``pad`` every term function takes the value ``pad`` there,
    so pad slots never differ between rows and the products of stored rows
    need no masking.
    """

    def __init__(self, order: int, arity: int, pad: int = 0, first=()):
        self.order = order
        self.arity = arity
        self.npoints = order**arity
        self.per_byte = _digit_table(order).shape[1]
        word = 8 * self.per_byte  # slots per 8-byte word
        chosen = np.zeros(self.npoints, dtype=bool)
        chosen[np.asarray(first, dtype=np.intp)] = True
        head, rest = np.flatnonzero(chosen), np.flatnonzero(~chosen)
        lead_slots = -(-len(head) // word) * word
        self.slots = np.full(lead_slots + -(-len(rest) // word) * word, encode_point((pad,) * arity, order))
        self.slots[: len(head)] = head
        self.slots[lead_slots : lead_slots + len(rest)] = rest
        self.where = np.empty(self.npoints, dtype=np.intp)
        self.where[head] = np.arange(len(head))
        self.where[rest] = np.arange(lead_slots, lead_slots + len(rest))
        self.lead = lead_slots // self.per_byte
        self.width = len(self.slots) // self.per_byte
        self.weights = (order ** np.arange(self.per_byte)).astype(np.uint8)

    def pack(self, values: np.ndarray) -> np.ndarray:
        """The rows of ``values`` (one value per point, in encoded order)
        in the stored layout."""
        slots = np.take(np.asarray(values, dtype=np.uint8), self.slots, axis=-1)
        slots = slots.reshape(slots.shape[:-1] + (self.width, self.per_byte))
        # each term is at most (order-1) * order**t, and the byte's sum
        # at most order**per_byte - 1, so uint8 never wraps
        return (slots * self.weights).sum(axis=-1, dtype=np.uint8)

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """The values of the stored ``rows``, one per point, in encoded order."""
        slots = _digit_table(self.order)[rows]
        return np.take(slots.reshape(rows.shape[:-1] + (-1,)), self.where, axis=-1)

    def differing(self, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether row ``a[i]`` of ``rows`` differs from row ``b[i]``, for
        some i, at each point: a bool per point, in encoded order.

        Only the bytes after the ``lead`` are read, so the first points
        read False.  Each byte pair is looked up in the table of
        :func:`_differing_digits`, a slice of rows at a time, and the bits
        are ORed over the pairs.
        """
        rest = rows[:, self.lead :]
        table = _differing_digits(self.order)
        bits = np.zeros(rest.shape[1], dtype=np.uint8)
        step = max(1, _HASH_CHUNK_BYTES // max(1, rest.shape[1]))
        for s in range(0, len(a), step):
            index = np.left_shift(rest[b[s : s + step]], 8, dtype=np.uint16)
            index |= rest[a[s : s + step]]
            bits |= np.bitwise_or.reduce(np.take(table, index), axis=0)
        slots = np.zeros(len(self.slots), dtype=bool)
        flags = np.unpackbits(bits[:, None], axis=1, count=self.per_byte, bitorder="little")
        slots[self.lead * self.per_byte :] = flags.ravel()
        return slots[self.where]


class _CloneTable:
    """Distinct stored rows in discovery order, with an exact hash index.

    The index is two arrays: ``hashes`` holds the stored rows' hashes in
    ascending order, and ``ids`` the number of each hash's row.  Both are
    views of a pair of arrays with room to grow, and ``spare`` is a second
    such pair, which the next merge writes into.  Row numbers, the index's
    and the parents', are int32 unless the budget needs int64, and letters
    take the narrowest unsigned type that holds the arity.
    """

    def __init__(self, width: int, budget: int, arity: int):
        self.budget = budget
        self.rows = np.zeros((0, width), dtype=np.uint8)
        self.parents: list[np.ndarray] = []
        self.letters: list[np.ndarray] = []
        self.id_type = np.dtype(np.int32 if budget < np.iinfo(np.int32).max else np.int64)
        self.letter_type = np.min_scalar_type(arity - 1)
        self.hashes, self.ids = np.zeros(0, dtype=np.uint64)[:], np.zeros(0, dtype=self.id_type)[:]
        self.spare = np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=self.id_type)

    def _rows_of(self, ids: np.ndarray, block: np.ndarray) -> np.ndarray:
        """The uint64 words of the rows numbered ``ids``: the stored rows,
        and past them the rows of ``block``."""
        words = np.empty((len(ids), block.shape[1] // 8), dtype=np.uint64)
        inner = ids >= len(self.rows)
        words[inner] = block.view(np.uint64)[ids[inner] - len(self.rows)]
        words[~inner] = self.rows.view(np.uint64)[ids[~inner]]
        return words

    def add(self, rows: np.ndarray, parent: np.ndarray, letter: np.ndarray):
        """Append the rows not seen before, in order, first occurrence kept.

        The block is grouped where it lies, row i under the provisional
        number ``start + i``, past the ``start`` stored rows.  One sort of
        the block's hashes points each row at the least row of the block
        with its hash (:func:`_least_of_each`), and one search of the sorted
        hashes in the index points it at a stored row with its hash instead,
        where there is one.  Each pointer is confirmed by comparing the two
        rows, and the rows of a hash that different rows share are
        regrouped by their bytes (:func:`_regroup`), so two different
        functions are never merged.  The rows that point at themselves are
        new: they are numbered in block order, their hashes merged into the
        index where the search put them, and they are copied once, to the
        end of the stored rows.  The matrix grows in place by the rows
        kept, so a large matrix is remapped rather than copied.  No view of
        it outlives a step of the search; the reference check is off
        because a profiler's bound-method call adds a reference.
        """
        start = len(self.rows)
        hashes = _row_hashes(rows)
        rep, by_hash = _least_of_each(hashes)
        rep += start
        ordered = hashes[by_hash]
        at = self.hashes.searchsorted(ordered)
        if len(self.hashes):
            known = (self.hashes.take(at, mode="clip") == ordered).nonzero()[0]
            rep[by_hash[known]] = self.ids[at[known]]
        number = np.arange(start, start + len(rows))
        dup = (rep != number).nonzero()[0]
        if len(dup):
            differ = dup[(self._rows_of(rep[dup], rows) != rows.view(np.uint64)[dup]).any(axis=1)]
            if len(differ):
                # hashes that different rows share: regroup their rows exactly
                shared = np.unique(hashes[differ])
                lo, hi = self.hashes.searchsorted(shared), self.hashes.searchsorted(shared, "right")
                stored = np.sort(np.concatenate([self.ids[a:b] for a, b in zip(lo.tolist(), hi.tolist())]))
                members = np.concatenate((stored, start + _with_hash(hashes, shared)))
                _regroup(rep, members, lambda m: self._rows_of(m, rows), start)
        fresh = rep == number
        new = fresh.nonzero()[0]
        end = start + len(new)
        if end > self.budget:
            raise BudgetExceeded(self.budget + 1)
        # the new rows' hashes, in hash order, go where the search put them,
        # each past the new ones before it, and the old entries fill the rest
        # of the spare pair, paged in already, unlike a fresh pair; a new row
        # is numbered by its place among the new rows of the block
        merge = fresh[by_hash]
        place = at[merge]
        place += np.arange(len(place))
        old = np.ones(len(self.hashes) + len(place), dtype=bool)
        old[place] = False
        numbers = fresh.cumsum()
        numbers += start - 1
        if len(self.spare[0]) < len(old):
            self.spare = np.empty(2 * len(old), dtype=np.uint64), np.empty(2 * len(old), dtype=self.id_type)
        hashes, ids = self.spare[0][: len(old)], self.spare[1][: len(old)]
        hashes[place], hashes[old] = ordered[merge], self.hashes
        ids[place], ids[old] = numbers[by_hash[merge]], self.ids
        self.spare = self.hashes.base, self.ids.base
        self.hashes, self.ids = hashes, ids
        self.rows.resize((end, self.rows.shape[1]), refcheck=False)
        # the indices are in range; the default mode="raise" would first
        # build the result in a temporary and then copy it into out
        np.take(rows, new, axis=0, out=self.rows[start:end], mode="clip")
        self.parents.append(parent[new].astype(self.id_type))
        self.letters.append(letter[new].astype(self.letter_type))

    def functions(self, layout: _RowLayout) -> TermFunctions:
        """The stored rows as term functions; the table takes no more rows.

        The index and its spare pair are dropped first, so the joined
        parents and letters can take their memory instead of raising the
        peak.
        """
        self.hashes = self.ids = self.spare = None
        parents, letters = np.concatenate(self.parents), np.concatenate(self.letters)
        return TermFunctions(layout, self.rows, parents, letters)


class _ProductCodes:
    """The lookup table of :func:`_right_products` for one table and layout.

    ``lut[b + 256*c]`` is the stored byte of the products of the values
    in a stored byte b by the coordinates in a stored byte c, digit by
    digit.  It is built one digit place at a time: with t places known, a
    byte with one more place is ``low + order**t * top``, and its products
    are those of the low places plus ``order**t`` times the product of the
    top digits.  ``projections[i]`` is the stored row of coordinate i of
    every point, and ``coords[i]`` the same row as uint16 shifted into the
    high byte.  ``out`` holds the products of the largest block so far,
    and ``index`` the lookup indices of a slice of ``step`` rows.
    """

    def __init__(self, table: np.ndarray, layout: _RowLayout):
        n = layout.order
        square = np.asarray(table, dtype=np.uint8).T  # square[y, v] is v*y
        codes = np.zeros((1, 1), dtype=np.uint8)  # codes[c, b] over t places
        for t in range(layout.per_byte):
            size = n ** (t + 1)
            codes = (codes[None, :, None, :] + n**t * square[:, None, :, None]).reshape(size, size)
        lut = np.zeros((256, 256), dtype=np.uint8)
        lut[:size, :size] = codes
        self.lut = lut.ravel()
        self.projections = layout.pack(coordinate_grid(layout.order, layout.arity))
        self.coords = self.projections.astype(np.uint16) << 8
        self.step = max(1, _HASH_CHUNK_BYTES // layout.width)
        self.index = np.empty((self.step, layout.width), dtype=np.uint16)
        self.out = np.empty((0, layout.width), dtype=np.uint8)


def _right_products(cells: np.ndarray, letters: np.ndarray, codes: _ProductCodes) -> np.ndarray:
    """Row b: the stored row b of ``cells`` times the variable
    ``x_{letters[b]+1}``, pointwise, as a stored row.

    Each byte of a row is ORed below the byte of its variable's
    coordinates, and the table of :class:`_ProductCodes` maps the uint16
    to the byte of products.  Pad slots hold the point (e, ..., e), so
    they hold products like any other slot.  This goes a slice of rows at
    a time, as ``np.take`` casts the indices to an intp temporary.  The
    products are written to ``codes.out``, which is grown only when a
    block outgrows it, so each block reuses the pages of the last.
    """
    count = len(cells)
    if len(codes.out) < count:
        codes.out = np.empty(cells.shape, dtype=np.uint8)
    out = codes.out[:count]
    for s in range(0, count, codes.step):
        index = codes.index[: min(codes.step, count - s)]
        np.take(codes.coords, letters[s : s + codes.step], axis=0, out=index, mode="clip")
        index |= cells[s : s + codes.step]
        np.take(codes.lut, index, out=out[s : s + codes.step], mode="clip")
    return out


class TermFunctions(Sequence):
    """The term functions of one arity, in discovery order, held as arrays.

    ``rows[i]`` holds the values of function i in the layout of
    :class:`_RowLayout` (``layout``): several per byte, as base-``order``
    digits, the layout's first points ahead of the rest.
    :attr:`TermFunction.values` is always one byte per point, in encoded
    order.  Function i is function ``parent[i]`` times the variable
    ``letter[i]``, or that variable alone when ``parent[i]`` is -1, so its
    witness word is read back along the parents.  Items are built as
    :class:`TermFunction` on access.
    """

    def __init__(self, layout: _RowLayout, rows: np.ndarray, parent: np.ndarray, letter: np.ndarray):
        self.order = layout.order
        self.arity = layout.arity
        self.layout = layout
        self.rows = rows
        self.parent = parent
        self.letter = letter

    def __len__(self) -> int:
        return len(self.parent)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        word = []
        j = i
        while j >= 0:
            word.append(int(self.letter[j]))
            j = int(self.parent[j])
        return self._function(i, tuple(reversed(word)))

    def __iter__(self):
        for i, word in enumerate(self.words()):
            yield self._function(i, word)

    def words(self):
        """The witness word of each function, in order, read along the parents."""
        words: list[tuple[int, ...]] = []
        for p, x in zip(self.parent.tolist(), self.letter.tolist()):
            words.append((words[p] if p >= 0 else ()) + (x,))
            yield words[-1]

    def texts(self):
        """The witness text of each function, in order, as :func:`format_word`
        writes it.

        A function's text is its parent's text with the last factor's
        exponent raised by one, or with a factor appended; a factor's
        exponent stops at MAX_EXPONENT.  Only the texts and each last
        factor's exponent are kept, so each function costs constant time.
        The generator reads only ``parent`` and ``letter``: the value
        matrix can be freed while it runs.
        """
        return _texts(self.parent, self.letter)

    def agreement(self):
        """How the functions group by their values at the layout's first
        points, for a clone built with ``first``: ``(rep, members, differ)``.

        ``rep[i]`` is the first function that agrees with function i there,
        ``members`` the functions that are not their own ``rep``, ascending,
        and ``differ``, a bool per point in encoded order, whether some
        generating pair differs there.  The first ``lead`` bytes of a row
        hold its values there, hashed in place; one sort of the hashes puts
        each group in a run, whose least function is its representative.

        The generating pairs are (u, rep(u)) for each member u whose parent
        is -1 or a representative.  They imply the others, by induction in
        discovery order, which is the shortlex order of the witness words.
        A member u = q·x_j whose parent q is a member with representative r
        lies in the group of w = r·x_j, as q and r agree at the first
        points.  The witness of w is at most word(r)·x_j, shortlex below
        word(q)·x_j = word(u), so w was found before u.  Wherever q = r and
        w = rep(w) hold, u = w = rep(u) holds too.  So every pair agrees
        wherever the generating pairs do.  The same induction, at the first
        points with groups of one hash, shows that the groups are exact once
        no generating pair's leading bytes differ.  The rows of a hash where
        some do are regrouped by their bytes; that changes which members are
        generating, so the check runs again until none differ.  The rest of
        the generating pairs' rows is read by :meth:`_RowLayout.differing`.
        """
        head = self.rows[:, : self.layout.lead]
        step = max(1, BLOCK_BYTES // self.rows.shape[1])
        hashes = _row_hashes(head)
        rep = _least_of_each(hashes)[0]
        words = head.view(np.uint64)
        while True:
            members = (rep != np.arange(len(rep))).nonzero()[0]
            parent = self.parent[members]
            generating = members[(parent < 0) | (rep[parent] == parent)]
            split = [generating[:0]]
            for s in range(0, len(generating), step):
                part = generating[s : s + step]
                split.append(part[(words[part] != words[rep[part]]).any(axis=1)])
            split = np.concatenate(split)
            if not len(split):
                break
            # hashes shared by different restrictions: regroup their rows exactly
            _regroup(rep, _with_hash(hashes, np.unique(hashes[split])), lambda rows: head[rows])
        return rep, members, self.layout.differing(self.rows, generating, rep[generating])

    def _function(self, i: int, word: tuple[int, ...]) -> TermFunction:
        values = self.layout.unpack(self.rows[i]).tobytes()
        return TermFunction(self.order, self.arity, values, Term(word, self.arity))


def _texts(parent: np.ndarray, letter: np.ndarray):
    texts: list[str] = []
    runs = bytearray()
    letters = letter.tolist()
    for p, x in zip(parent.tolist(), letters):
        if p >= 0 and letters[p] == x and runs[p] < MAX_EXPONENT:
            text, run = texts[p], runs[p] + 1
            head = text[: text.rfind(" ") + 1]  # all but the last factor
        else:
            head, run = (texts[p] + " " if p >= 0 else ""), 1
        runs.append(run)
        texts.append(f"{head}x{x + 1}^{run}" if run > 1 else f"{head}x{x + 1}")
        yield texts[-1]


def term_functions(S: Semigroup, arity: int, budget: int = DEFAULT_BUDGET, *, first=()) -> TermFunctions:
    """Every function S^arity -> S induced by a term, in discovery order.

    The set is the least one containing the coordinate projections and
    closed under the pointwise table product.  Because the product is
    associative, every word function extends a one-letter-shorter word
    function, so a breadth-first worklist that multiplies each discovered
    function by the projections on the right reaches the whole set.
    Projections are seeded in variable order and the queue is FIFO, so the
    products come in the shortlex order of their words (shorter first, then
    lexicographic in x1 < x2 < ...), and each function's witness, its first
    word found, is the shortlex-least word of that function: its reduced
    word.

    Only the products whose word has a reduced suffix are formed (the
    reduced-word principle of Froidure and Pin, "Algorithms for computing
    finite semigroups", 1997).  A function u is multiplied by x_j only when
    suffix(u)·x_j is a witness word, where suffix(u) is u's witness without
    its first letter.  The pruned search keeps exactly the functions,
    witnesses and order of the full one:

    - every factor of a reduced word is reduced, since shortlex order is
      kept under concatenation; so the first occurrence of a function, at
      its reduced word, has a reduced suffix and is formed;
    - if suffix(u)·x_j is not reduced, a shortlex-smaller word has its
      value, and with u's first letter in front it gives a shortlex-smaller
      word than u·x_j with the value of u·x_j, which the search reached
      earlier, so the pruned product would not have been new.

    ``children[i, j]`` is the id of the function whose witness is
    word(i)·x_j, or -1 when that word is no witness, for the functions i
    of the level being expanded, and ``above`` is the same for the level
    above, numbered from ``above_start``.  Above the first level lies the
    empty word alone, id -1, whose children are the projections kept (only
    x1 at order 1).  ``suffix[i]`` is the id of suffix(i), or -1 for the
    empty word; a new function's suffix is the child of its parent's
    suffix by its letter.  No other level's state is kept.

    The search goes a breadth-first level at a time.  The suffixes of a
    level lie one level up, whose children are all known, so the level's
    kept (function, variable) pairs are listed at once and multiplied in
    blocks of at most ``BLOCK_BYTES`` product bytes.  The products come in
    (function, variable) order and the first occurrence of each new value
    vector is kept, which is the order of the one-by-one search.

    The kernel multiplies the stored rows by a table lookup (see
    :class:`_ProductCodes`), so hashing, deduplication and the stored
    matrix all work on the layout of :class:`_RowLayout`, whose pad slots
    hold the point (e, ..., e) of the least idempotent e.  The points of
    ``first`` (encoded points) are stored ahead of the rest, in whole
    8-byte words; the functions and their values are the same whatever it
    is.  Each function costs its n**arity values, stored as base-n digits
    (three per byte at order 5) and padded to 8-byte words, plus 12 bytes
    of index (a hash and a row number, twice that while a block's new rows
    are merged in), and its parent, letter and search state.  So ``budget``
    (a function count) also bounds the memory: at order 5 and arity 4 a
    stored row is 216 bytes.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = S.order
    if n > 255:
        raise ValueError("value vectors are byte-packed; order must be <= 255")
    pad = next(e for e in range(n) if S.mul(e, e) == e)
    layout = _RowLayout(n, arity, pad, first)
    codes = _ProductCodes(S.as_array(), layout)
    clone = _CloneTable(layout.width, budget, arity)
    clone.add(codes.projections, np.full(arity, -1), np.arange(arity))
    ids = clone.id_type
    above, above_start = np.full((1, arity), -1, dtype=ids), -1
    above[0, clone.letters[0]] = np.arange(len(clone.rows))
    suffix = np.full(len(clone.rows), -1, dtype=ids)
    step = max(1, BLOCK_BYTES // layout.width)
    level = 0
    while level < len(clone.rows):
        level_end = len(clone.rows)
        children = np.full((level_end - level, arity), -1, dtype=ids)
        pairs = np.flatnonzero(above[suffix - above_start] >= 0)
        next_suffix = np.empty(len(pairs), dtype=ids)
        for block in range(0, len(pairs), step):
            rows, letters = np.divmod(pairs[block : block + step], arity)
            rows += level
            start = len(clone.rows)
            clone.add(_right_products(clone.rows[rows], letters, codes), rows, letters)
            stop = len(clone.rows)
            parent, letter = clone.parents[-1] - level, clone.letters[-1]
            children[parent, letter] = np.arange(start, stop)
            next_suffix[start - level_end : stop - level_end] = above[suffix[parent] - above_start, letter]
        above, above_start = children, level
        suffix = next_suffix[: len(clone.rows) - level_end]
        level = level_end
    return clone.functions(layout)
