"""Point sets in S^k, solution sets of equations, and algebraic closure.

A set is algebraic when it is exactly the solution set of some system of
equations.  The closure operator computed here intersects the solution
sets of *all* equations that hold on the input set; a set is algebraic
precisely when that closure adds no points.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .semigroups import DEFAULT_BUDGET, Semigroup
from .terms import (
    Equation,
    System,
    TermFunction,
    TermFunctions,
    _fold_word,
    coordinate_grid,
    decode_point,
    encode_point,
    term_functions,
)
from .witnesses import in_union_target

__all__ = [
    "POINT_ENCODING",
    "PointSet",
    "solution_set",
    "union_target_m3",
    "union_target_m4",
    "ClosureCertificate",
    "algebraic_closure",
    "is_algebraic",
]

POINT_ENCODING = "big-endian"  # coordinate 0 is the most significant digit


def _is_int(value) -> bool:
    # bool is an int subclass, but true and false are not coordinates
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class PointSet:
    """An immutable subset of S^k, bit-indexed by encoded points."""

    __slots__ = ("n", "k", "mask")

    def __init__(self, n: int, k: int, mask: int = 0):
        if n < 1 or k < 1:
            raise ValueError("n and k must be >= 1")
        if not 0 <= mask < 1 << n**k:
            raise ValueError("mask has bits outside the point space")
        self.n = n
        self.k = k
        self.mask = mask

    @classmethod
    def empty(cls, n: int, k: int) -> "PointSet":
        return cls(n, k, 0)

    @classmethod
    def full(cls, n: int, k: int) -> "PointSet":
        return cls(n, k, (1 << n**k) - 1)

    @classmethod
    def from_points(cls, n: int, k: int, points) -> "PointSet":
        mask = 0
        for p in points:
            try:
                p = tuple(p)
            except TypeError:
                raise ValueError(f"point {p!r} is not a list of coordinates") from None
            if len(p) != k:
                raise ValueError(f"point {p} does not have {k} coordinates")
            if not all(_is_int(c) for c in p):
                raise ValueError(f"point {p} has a coordinate that is not an integer")
            mask |= 1 << encode_point(p, n)
        return cls(n, k, mask)

    @classmethod
    def _from_bool(cls, flags: np.ndarray, n: int, k: int) -> "PointSet":
        packed = np.packbits(flags, bitorder="little")
        return cls(n, k, int.from_bytes(packed.tobytes(), "little"))

    def _bool_array(self) -> np.ndarray:
        size = self.n**self.k
        packed = np.frombuffer(self.mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=size, bitorder="little").astype(bool)

    def _check_compatible(self, other: "PointSet"):
        if self.n != other.n or self.k != other.k:
            raise ValueError("point sets live over different (n, k) spaces")

    def union(self, other: "PointSet") -> "PointSet":
        self._check_compatible(other)
        return PointSet(self.n, self.k, self.mask | other.mask)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check_compatible(other)
        return PointSet(self.n, self.k, self.mask & other.mask)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_compatible(other)
        return PointSet(self.n, self.k, self.mask & ~other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.n, self.k, self.mask ^ ((1 << self.n**self.k) - 1))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other: "PointSet") -> bool:
        self._check_compatible(other)
        return self.mask & ~other.mask == 0

    def contains_index(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def __contains__(self, point) -> bool:
        return self.contains_index(encode_point(point, self.n, self.k))

    def least_point(self) -> tuple[int, ...] | None:
        """The member with the least encoding, or None when empty."""
        if self.mask == 0:
            return None
        idx = (self.mask & -self.mask).bit_length() - 1
        return decode_point(idx, self.n, self.k)

    def __iter__(self):
        m = self.mask
        while m:
            low = m & -m
            yield decode_point(low.bit_length() - 1, self.n, self.k)
            m ^= low

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and (self.n, self.k, self.mask) == (other.n, other.k, other.mask)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.mask))

    def __repr__(self):
        return f"PointSet(n={self.n}, k={self.k}, size={len(self)})"

    def to_points_obj(self) -> dict:
        """JSON form: decoded tuples sorted by encoding."""
        return {"n": self.n, "k": self.k, "points": [list(p) for p in self]}

    def to_bitmap_obj(self) -> dict:
        """Compact JSON form: hex bitmap plus the (n, k, encoding) header."""
        width = (self.n**self.k + 3) // 4
        return {
            "n": self.n,
            "k": self.k,
            "encoding": POINT_ENCODING,
            "bitmap": format(self.mask, f"0{width}x"),
        }

    @staticmethod
    def jsonable_shape(obj, n: int | None = None, k: int | None = None) -> tuple[int, int]:
        """The (n, k) of a serialized point set, checked against any given n and k.

        Reads only the header, so a caller can vet the size of the point
        space before :meth:`from_jsonable` builds it.
        """
        if isinstance(obj, list):
            if n is None or k is None:
                raise ValueError("a bare point list needs explicit n and k")
            return n, k
        if not isinstance(obj, dict):
            raise ValueError("expected a list of points or a point-set object")
        shape = []
        for key, given in (("n", n), ("k", k)):
            value = obj.get(key, given)
            if value is None:
                raise ValueError(f"point-set object needs a {key!r} field")
            if not _is_int(value):
                raise ValueError(f"point-set field {key!r} must be an integer, got {value!r}")
            if given is not None and value != given:
                raise ValueError(f"point-set object has {key}={value}, expected {given}")
            shape.append(value)
        return shape[0], shape[1]

    @classmethod
    def from_jsonable(cls, obj, n: int | None = None, k: int | None = None) -> "PointSet":
        """Accepts a bare list of points or either serialized object form,
        with its ``points`` or its ``bitmap`` but not both."""
        n, k = cls.jsonable_shape(obj, n, k)
        if isinstance(obj, list):
            return cls.from_points(n, k, obj)
        if "encoding" in obj and obj["encoding"] != POINT_ENCODING:
            raise ValueError(f"unsupported point encoding {obj['encoding']!r}")
        if "bitmap" in obj and "points" in obj:
            raise ValueError("point-set object has both 'points' and 'bitmap'; give one")
        if "bitmap" in obj:
            if not isinstance(obj["bitmap"], str):
                raise ValueError("'bitmap' must be a hex string")
            try:
                mask = int(obj["bitmap"], 16)
            except ValueError:
                raise ValueError(f"'bitmap' is not a hex number: {obj['bitmap']!r}") from None
            return cls(n, k, mask)
        if "points" in obj:
            if not isinstance(obj["points"], list):
                raise ValueError("'points' must be a list of points")
            return cls.from_points(n, k, obj["points"])
        raise ValueError("point-set object needs a 'points' or 'bitmap' field")


def solution_set(S: Semigroup, obj: Equation | System) -> PointSet:
    """All points satisfying the equation, or every equation of the system."""
    if isinstance(obj, Equation):
        equations = (obj,)
        k = obj.arity
    elif isinstance(obj, System):
        equations = obj.equations
        k = obj.arity
    else:
        raise TypeError("expected an Equation or a System")
    n = S.order
    flat = S.as_array().ravel()
    grid = coordinate_grid(n, k)
    keep = np.ones(n**k, dtype=bool)
    for eq in equations:
        keep &= _fold_word(eq.lhs.word, grid, flat, n) == _fold_word(eq.rhs.word, grid, flat, n)
    return PointSet._from_bool(keep, n, k)


def union_target_m3(S: Semigroup) -> PointSet:
    """{p in S^3 : p0 = p1 or p0 = p2} — the 3-variable union of two diagonals."""
    return PointSet._from_bool(in_union_target(coordinate_grid(S.order, 3), "m3"), S.order, 3)


def union_target_m4(S: Semigroup) -> PointSet:
    """{p in S^4 : p0 = p1 or p2 = p3} — the 4-variable union of two diagonals."""
    return PointSet._from_bool(in_union_target(coordinate_grid(S.order, 4), "m4"), S.order, 4)


class _AgreeingPairs(Sequence):
    """Pairs (term function ``rep[m]``, term function ``m``) for the members m.

    Pairs come by group, groups in the order of their representatives.
    The members are put in that order on the first access to a pair, so
    a caller that wants only the number of pairs never sorts them.  The
    pairs themselves are built on access.
    """

    def __init__(self, funcs: TermFunctions, rep: np.ndarray, members: np.ndarray):
        self.funcs = funcs
        self.rep = rep
        self.members = members

    @cached_property
    def _by_group(self) -> np.ndarray:
        return self.members[np.argsort(self.rep[self.members], kind="stable")]

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        m = int(self._by_group[range(len(self))[i]])
        return self.funcs[int(self.rep[m])], self.funcs[m]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class ClosureCertificate:
    """Why the closure is what it is.

    ``agreeing_pairs`` holds, for every class of term functions that agree
    on the input set, the pairs (representative, other member); the closure
    is exactly the intersection of the equality sets of these pairs, and it
    always contains the input set.
    """

    agreeing_pairs: Sequence[tuple[TermFunction, TermFunction]]
    closure: PointSet


def algebraic_closure(S: Semigroup, Y: PointSet, budget: int = DEFAULT_BUDGET) -> ClosureCertificate:
    """Smallest algebraic superset of Y, with representative equations.

    Computes all term functions of the arity of Y, groups them by their
    restriction to Y (two functions agreeing on Y give an equation that
    holds on Y), and keeps the points where every group is still constant.
    Grouping makes this linear in the number of functions instead of
    quadratic over function pairs.  The clone is built with Y's points
    stored first, and :meth:`TermFunctions.agreement` groups it on them.
    """
    if Y.n != S.order:
        raise ValueError("point set is over a different order")
    funcs = term_functions(S, Y.k, budget=budget, first=Y._bool_array().nonzero()[0])
    rep, members, differ = funcs.agreement()
    closure = PointSet._from_bool(~differ, Y.n, Y.k)
    return ClosureCertificate(_AgreeingPairs(funcs, rep, members), closure)


def is_algebraic(
    S: Semigroup, Y: PointSet, budget: int = DEFAULT_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether Y is a solution set; if not, also the least point the closure adds."""
    cert = algebraic_closure(S, Y, budget=budget)
    if cert.closure == Y:
        return True, None
    return False, cert.closure.difference(Y).least_point()
