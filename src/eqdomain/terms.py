"""Terms over the multiplication-only language and the functions they induce.

A term is a nonempty word over variables ``x1..xk``; it has no constants,
no identity symbol and no inverses.  Evaluating every term of arity ``k``
over a finite semigroup yields a finite set of functions ``S^k -> S``:
the closure of the coordinate projections under the pointwise product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .semigroups import Semigroup

__all__ = [
    "MAX_EXPONENT",
    "DEFAULT_BUDGET",
    "TermSyntaxError",
    "VariableOutOfRange",
    "EmptyTermError",
    "BudgetExceeded",
    "Term",
    "Equation",
    "System",
    "parse_term",
    "parse_equation",
    "parse_equations",
    "encode_point",
    "decode_point",
    "all_points",
    "coordinate_grid",
    "eval_term",
    "ExponentVector",
    "exponent_vector",
    "power_eval",
    "TermFunction",
    "term_functions",
]

MAX_EXPONENT = 64  # parser bound; keeps one factor from expanding unboundedly
DEFAULT_BUDGET = 1_000_000


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


class BudgetExceeded(RuntimeError):
    """The term-function closure grew past the configured budget."""

    def __init__(self, size: int):
        super().__init__(f"term-function closure exceeded the budget at size {size}")
        self.size = size


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
        parts = []
        i, w = 0, self.word
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            run = j - i
            # split runs longer than the parser's exponent bound
            while run > 0:
                chunk = min(run, MAX_EXPONENT)
                parts.append(f"x{w[i] + 1}" + (f"^{chunk}" if chunk > 1 else ""))
                run -= chunk
            i = j
        return " ".join(parts)


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
        while j < n and text[j].isdigit():
            j += 1
        if j == i + 1:
            raise TermSyntaxError("expected a variable number after 'x'", i + 1)
        name = text[i:j]
        var = int(text[i + 1 : j])
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
            while j < n and text[j].isdigit():
                j += 1
            if j == i:
                raise TermSyntaxError("expected an exponent after '^'", i)
            exp = int(text[i:j])
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


def encode_point(point, n: int) -> int:
    """Big-endian lexicographic encoding: coordinate 0 is most significant."""
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


def all_points(n: int, k: int):
    """All points of S^k in encoded (lexicographic) order."""
    return itertools.product(range(n), repeat=k)


def coordinate_grid(n: int, k: int) -> np.ndarray:
    """Shape (k, n**k) array: row i holds coordinate i of every encoded point."""
    return np.indices((n,) * k).reshape(k, n**k)


def eval_term(S: Semigroup, term: Term, point) -> int:
    """Value of a term at a point of S^arity: a left-to-right table fold."""
    point = tuple(point)
    if len(point) != term.arity:
        raise ValueError(f"point has {len(point)} coordinates, term arity is {term.arity}")
    t = S.table
    w = term.word
    v = point[w[0]]
    for letter in w[1:]:
        v = t[v][point[letter]]
    return v


@dataclass(frozen=True)
class ExponentVector:
    """Occurrence counts of each variable in a term."""

    counts: tuple[int, ...]


def exponent_vector(term: Term) -> ExponentVector:
    counts = [0] * term.arity
    for v in term.word:
        counts[v] += 1
    return ExponentVector(tuple(counts))


def power_eval(ev: ExponentVector, powers) -> int:
    """Total exponent of ``a`` when the term is evaluated at (a^powers[0], ...)."""
    powers = tuple(powers)
    if len(powers) != len(ev.counts):
        raise ValueError("one power per variable")
    return sum(c * p for c, p in zip(ev.counts, powers))


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
        return self.values[encode_point(point, self.order)]


def term_functions(S: Semigroup, arity: int, budget: int = DEFAULT_BUDGET) -> list[TermFunction]:
    """Every function S^arity -> S induced by a term, in discovery order.

    The set is the least one containing the coordinate projections and
    closed under the pointwise table product.  Because the product is
    associative, every word function extends a one-letter-shorter word
    function, so a breadth-first worklist that multiplies each discovered
    function by the projections on the right reaches the whole set in
    O(size * arity) products.  Projections are seeded in variable order
    and the queue is FIFO, so the computation is deterministic and each
    function carries a shortest witness term (first found).
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = S.order
    if n > 255:
        raise ValueError("value vectors are byte-packed; order must be <= 255")
    npoints = n**arity
    table = S.as_array().astype(np.uint8)
    grid = coordinate_grid(n, arity).astype(np.uint8)

    functions: list[TermFunction] = []
    index_of: dict[bytes, int] = {}
    capacity = 64
    rows = np.empty((capacity, npoints), dtype=np.uint8)

    def add(vec: np.ndarray, word: tuple[int, ...]):
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
