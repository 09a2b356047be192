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


_QUOTE_WIDTH = 60  # a bad entry or corpus line is quoted up to this many characters


class OutOfRangeEntry(TableError):
    """A table entry is not an element index.  The message cuts a long
    entry at ``_QUOTE_WIDTH`` digits; ``value`` holds it whole."""

    def __init__(self, row: int, col: int, value: int, order: int):
        text = str(value)
        if len(text) > _QUOTE_WIDTH:
            text = text[:_QUOTE_WIDTH] + "..."
        super().__init__(
            f"table[{row}][{col}] = {text} is not an element index in 0..{order - 1}"
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
    squares = [t[a][a] for a in range(n)]
    if squares == list(range(n)):
        for a in range(n):
            for b in range(n):
                if a != b and t[a][b] == t[b][a]:
                    return Classification(Case.IDEMPOTENT_COMMUTING_PAIR, pair=(a, b))
        return Classification(Case.IDEMPOTENT_NOWHERE_COMMUTATIVE)
    # a^3 = (a^2)a, so a^2 != a^3 exactly where t[s][a] != s for s = a^2
    for a, s in enumerate(squares):
        if t[s][a] != s:
            return Classification(Case.UNBOUNDED, element=a)
    a = next(a for a, s in enumerate(squares) if s != a)
    return Classification(Case.BOUNDED_NON_IDEMPOTENT, element=a)
