"""Finite semigroups as validated Cayley tables.

Elements are the indices ``0..n-1`` and ``table[x][y]`` is the product
``x*y``.  Instances are immutable after construction, so they can be
hashed, shared between threads, and used as cache keys.  The closure
budget of every computation over a table, and its error, live here too.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "TableError",
    "OutOfRangeEntry",
    "AssociativityViolation",
    "Semigroup",
    "ElementProfile",
    "element_profile",
    "monogenic_equal",
    "monogenic_table",
    "is_idempotent",
    "satisfies_x2_x3",
    "is_nowhere_commutative",
    "is_rectangular_band",
    "Case",
    "Classification",
    "classify",
]


DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """The term-function closure grew past the configured budget."""

    def __init__(self, size: int):
        super().__init__(f"term-function closure exceeded the budget at size {size}")
        self.size = size


class TableError(ValueError):
    """The given entries do not form a valid Cayley table."""


class OutOfRangeEntry(TableError):
    """A table entry is not an element index."""

    def __init__(self, row: int, col: int, value: int, order: int):
        super().__init__(
            f"table[{row}][{col}] = {value} is not an element index in 0..{order - 1}"
        )
        self.row = row
        self.col = col
        self.value = value


class AssociativityViolation(TableError):
    """Names the first triple (x, y, z), in lexicographic order, with (xy)z != x(yz)."""

    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")
        self.triple = (x, y, z)


class Semigroup:
    """A finite semigroup given by its full multiplication table.

    Construction validates closure and associativity, raising
    :class:`OutOfRangeEntry` or :class:`AssociativityViolation` for the
    first offending entry or triple.
    """

    __slots__ = ("table", "order")

    def __init__(self, table):
        rows = tuple(tuple(int(v) for v in row) for row in table)
        n = len(rows)
        if n < 1:
            raise TableError("a Cayley table needs at least one row")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise TableError(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise OutOfRangeEntry(i, j, v, n)
        for x in range(n):
            row_x = rows[x]
            for y in range(n):
                xy = row_x[y]
                row_y = rows[y]
                for z in range(n):
                    if rows[xy][z] != row_x[row_y[z]]:
                        raise AssociativityViolation(x, y, z)
        self.table = rows
        self.order = n

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> Semigroup:
        """A semigroup on ``rows`` without validation.

        Only for tables already known to be valid and associative, given
        as a tuple of tuples of ints: the enumerator's output, or the
        table of a validated instance.
        """
        S = cls.__new__(cls)
        S.table = rows
        S.order = len(rows)
        return S

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def power(self, a: int, e: int) -> int:
        """The e-th power of ``a`` for e >= 1."""
        if e < 1:
            raise ValueError("powers start at 1 in a semigroup")
        v = a
        for _ in range(e - 1):
            v = self.table[v][a]
        return v

    def as_array(self) -> np.ndarray:
        import numpy as np

        arr = np.array(self.table, dtype=np.intp)
        arr.setflags(write=False)
        return arr

    def __eq__(self, other):
        return isinstance(other, Semigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"Semigroup({[list(r) for r in self.table]})"


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


def element_profile(S: Semigroup, a: int) -> ElementProfile:
    """Index, period and power cycle of ``a``, found by iterating powers."""
    if not 0 <= a < S.order:
        raise ValueError(f"element {a} outside 0..{S.order - 1}")
    seen: dict[int, int] = {}
    powers = []
    x, p = a, 1
    while x not in seen:
        seen[x] = p
        powers.append(x)
        x = S.table[x][a]
        p += 1
    first = seen[x]
    return ElementProfile(
        element=a, index=first, period=p - first, cycle_powers=tuple(powers)
    )


def monogenic_equal(index: int, period: int, p: int, q: int) -> bool:
    """Whether a^p = a^q for any element of the given index and period.

    Exponents 0 are accepted and compare equal only to each other; they
    stand for an empty product and never arise from an actual term.
    """
    if index < 1 or period < 1:
        raise ValueError("index and period are positive")
    if p < 0 or q < 0:
        raise ValueError("exponents are nonnegative")
    return p == q or (p >= index and q >= index and (p - q) % period == 0)


def monogenic_table(index: int, period: int) -> Semigroup:
    """The semigroup generated by one element of the given index and period.

    Element ``i`` stands for the (i+1)-th power of the generator, so the
    generator itself is element 0 and the order is ``index + period - 1``.
    """
    if index < 1 or period < 1:
        raise ValueError("index and period are positive")
    size = index + period - 1

    def reduce(e: int) -> int:
        if e <= size:
            return e - 1
        return index - 1 + (e - index) % period

    return Semigroup([[reduce(i + j + 2) for j in range(size)] for i in range(size)])


def is_idempotent(S: Semigroup) -> bool:
    """Every element squares to itself."""
    return all(S.table[a][a] == a for a in range(S.order))


def satisfies_x2_x3(S: Semigroup) -> bool:
    """The identity x^2 = x^3 holds."""
    return all(S.power(a, 2) == S.power(a, 3) for a in range(S.order))


def is_nowhere_commutative(S: Semigroup) -> bool:
    """No two distinct elements commute."""
    t = S.table
    return all(
        t[a][b] != t[b][a] for a in range(S.order) for b in range(a + 1, S.order)
    )


def is_rectangular_band(S: Semigroup) -> bool:
    """Idempotent and satisfying xyz = xz."""
    if not is_idempotent(S):
        return False
    t = S.table
    n = S.order
    return all(
        t[t[x][y]][z] == t[x][z] for x in range(n) for y in range(n) for z in range(n)
    )


class Case(Enum):
    """The five mutually exclusive shapes a finite semigroup can take."""

    TRIVIAL = "Trivial"
    IDEMPOTENT_NOWHERE_COMMUTATIVE = "IdempotentNowhereCommutative"
    IDEMPOTENT_COMMUTING_PAIR = "IdempotentCommutingPair"
    BOUNDED_NON_IDEMPOTENT = "BoundedNonIdempotent"
    UNBOUNDED = "Unbounded"


class Classification(NamedTuple):
    case: Case
    pair: tuple[int, int] | None = None  # commuting distinct pair, when carried
    element: int | None = None  # witness element, when carried


def classify(S: Semigroup) -> Classification:
    """Classify a semigroup into exactly one case, with deterministic witnesses.

    Carried witnesses are always the lexicographically least valid choice:
    the least commuting distinct pair (a, b), the least a with a != a^2, or
    the least a with a^2 != a^3.
    """
    n = S.order
    if n == 1:
        return Classification(Case.TRIVIAL)
    t = S.table
    if is_idempotent(S):
        for a in range(n):
            for b in range(n):
                if a != b and t[a][b] == t[b][a]:
                    return Classification(Case.IDEMPOTENT_COMMUTING_PAIR, pair=(a, b))
        return Classification(Case.IDEMPOTENT_NOWHERE_COMMUTATIVE)
    if satisfies_x2_x3(S):
        a = next(x for x in range(n) if t[x][x] != x)
        return Classification(Case.BOUNDED_NON_IDEMPOTENT, element=a)
    a = next(x for x in range(n) if S.power(x, 2) != S.power(x, 3))
    return Classification(Case.UNBOUNDED, element=a)
