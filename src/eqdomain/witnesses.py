"""Witness configurations showing a union of two diagonals is never algebraic.

For every nontrivial finite semigroup one of four constructions applies,
keyed by the classification: two cases for bands (nowhere commutative or
not), one for non-idempotent semigroups satisfying x^2 = x^3, and one for
semigroups with an element whose square and cube differ.  Each
construction names concrete elements, a handful of table identities that
make the argument work, probe points inside and outside the target union,
and is completed into a report by running the closure operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .geometry import in_pair_closure, in_union_target
from .semigroups import Case, Classification, ElementProfile, Semigroup, classify, monogenic_equal
from .terms import DEFAULT_BUDGET, ExponentVector, power_eval

__all__ = [
    "WitnessNotFound",
    "WitnessReport",
    "witness_lemma1_case1",
    "witness_lemma1_case2",
    "witness_lemma2",
    "witness_lemma3",
    "verify_eq1_argument",
    "check_semigroup",
]


class WitnessNotFound(RuntimeError):
    """A construction the theory guarantees failed: an internal inconsistency."""


@dataclass(frozen=True)
class WitnessReport:
    """Machine-checkable record of one semigroup's verification."""

    semigroup: Semigroup
    classification: Classification
    lemma: str | None  # "1.1" | "1.2" | "2" | "3", None for the trivial case
    elements: dict[str, int]
    target: str | None  # "m3" | "m4"
    verified_identities: tuple[tuple[str, bool], ...]
    inside_points: tuple[tuple[int, ...], ...]
    outside_points: tuple[tuple[int, ...], ...]
    separating_point: tuple[int, ...] | None
    is_equational_domain: bool

    def to_jsonable(self) -> dict:
        return {
            "order": self.semigroup.order,
            "table": [list(r) for r in self.semigroup.table],
            "classification": self.classification.case.value,
            "lemma": self.lemma,
            "elements": dict(self.elements),
            "target": self.target,
            "verified_identities": [
                {"name": name, "holds": holds} for name, holds in self.verified_identities
            ],
            "probe_points": {
                "inside": [list(p) for p in self.inside_points],
                "outside": [list(p) for p in self.outside_points],
            },
            "separating_point": list(self.separating_point)
            if self.separating_point is not None
            else None,
            "is_equational_domain": self.is_equational_domain,
        }


def _classified(S: Semigroup, cls: Classification | None, case: Case) -> Classification:
    """The given classification of S, or a fresh one, checked to be ``case``."""
    if cls is None:
        cls = classify(S)
    if cls.case is not case:
        raise ValueError(f"construction applies to {case.value}, got {cls.case.value}")
    return cls


def _closed_pair(S: Semigroup, x: int, y: int) -> bool:
    pair = {x, y}
    return all(S.mul(u, v) in pair for u in pair for v in pair)


def witness_lemma1_case1(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Nowhere-commutative bands: find a two-element one-sided-zero pair.

    Searching ordered pairs (a, b) lexicographically, c = a*b gives a pair
    {a, c} with a*c = c and c*a = a as soon as a*b != a.  When every
    product x*y equals x the table is left-zero; then c = b*a = b gives the
    mirror pair with a*c = a and c*a = c.  Either way (a, c, c) lies
    outside the union target while (a, a, c) and (a, c, a) lie inside.
    """
    cls = _classified(S, cls, Case.IDEMPOTENT_NOWHERE_COMMUTATIVE)
    n = S.order
    found = None
    for a in range(n):
        for b in range(n):
            if b != a and S.mul(a, b) != a:
                found = (a, b, S.mul(a, b), "right")
                break
        if found:
            break
    if found is None:
        a, b = 0, 1
        c = S.mul(b, a)
        if c == a:
            raise WitnessNotFound("no distinct pair spans a two-element subsemigroup")
        found = (a, b, c, "left")
    a, b, c, side = found
    if side == "right":
        idents = (
            ("a*a = a", S.mul(a, a) == a),
            ("c*c = c", S.mul(c, c) == c),
            ("a*c = c", S.mul(a, c) == c),
            ("c*a = a", S.mul(c, a) == a),
            ("{a,c} closed under product", _closed_pair(S, a, c)),
        )
    else:
        idents = (
            ("a*a = a", S.mul(a, a) == a),
            ("c*c = c", S.mul(c, c) == c),
            ("a*c = a", S.mul(a, c) == a),
            ("c*a = c", S.mul(c, a) == c),
            ("{a,c} closed under product", _closed_pair(S, a, c)),
        )
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma="1.1",
        elements={"a": a, "b": b, "c": c},
        target="m3",
        verified_identities=idents,
        inside_points=((a, a, c), (a, c, a)),
        outside_points=((a, c, c),),
        separating_point=None,
        is_equational_domain=False,
    )


def witness_lemma1_case2(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Bands with a commuting distinct pair a, b: c = a*b absorbs d in {a, b}.

    c = a*b = b*a satisfies a*c = c*a = c and b*c = c*b = c, so picking
    d in {a, b} with d != c (one exists, else a = b) gives a two-element
    subsemigroup {d, c} in which c is absorbing.  (d, c, c) falls outside
    the union target, (d, d, c) and (d, c, d) inside.
    """
    cls = _classified(S, cls, Case.IDEMPOTENT_COMMUTING_PAIR)
    a, b = cls.pair
    c = S.mul(a, b)
    d = a if a != c else b
    if d == c:
        raise WitnessNotFound("both members of the commuting pair equal their product")
    idents = (
        ("a*b = b*a", S.mul(a, b) == S.mul(b, a)),
        ("d*d = d", S.mul(d, d) == d),
        ("c*c = c", S.mul(c, c) == c),
        ("d*c = c", S.mul(d, c) == c),
        ("c*d = c", S.mul(c, d) == c),
        ("{d,c} closed under product", _closed_pair(S, d, c)),
    )
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma="1.2",
        elements={"a": a, "b": b, "c": c, "d": d},
        target="m3",
        verified_identities=idents,
        inside_points=((d, d, c), (d, c, d)),
        outside_points=((d, c, c),),
        separating_point=None,
        is_equational_domain=False,
    )


def witness_lemma2(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """x^2 = x^3 but not idempotent: {a, a^2} is closed with a != a^2.

    Every product inside {a, a^2} equals a^2, so a term takes the value a
    at a point over the pair only when it is a single variable evaluated
    at a.  (a, a^2, a^2) falls outside the union target, (a, a, a^2) and
    (a, a^2, a) inside.
    """
    cls = _classified(S, cls, Case.BOUNDED_NON_IDEMPOTENT)
    a = cls.element
    a2 = S.power(a, 2)
    a3 = S.power(a, 3)
    idents = (
        ("a != a^2", a != a2),
        ("a^2 = a^3", a2 == a3),
        ("{a,a^2} closed under product", _closed_pair(S, a, a2)),
    )
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma="2",
        elements={"a": a, "a2": a2},
        target="m3",
        verified_identities=idents,
        inside_points=((a, a, a2), (a, a2, a)),
        outside_points=((a, a2, a2),),
        separating_point=None,
        is_equational_domain=False,
    )


def witness_lemma3(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Some a has a^2 != a^3: exponent arithmetic pins down the witness.

    Any equation holding at (a^2, a, a, a) and (a, a, a^2, a) relates pure
    powers of a; multiplying the two instances shows the equation also
    holds at (a^3, a^2, a^3, a^2), which lies outside the 4-variable union
    target because a^2 != a^3.
    """
    cls = _classified(S, cls, Case.UNBOUNDED)
    a = cls.element
    a2 = S.power(a, 2)
    a3 = S.power(a, 3)
    idents = (
        ("a != a^2", a != a2),
        ("a^2 != a^3", a2 != a3),
    )
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma="3",
        elements={"a": a, "a2": a2, "a3": a3},
        target="m4",
        verified_identities=idents,
        inside_points=((a2, a, a, a), (a, a, a2, a)),
        outside_points=((a3, a2, a3, a2),),
        separating_point=None,
        is_equational_domain=False,
    )


# Powers of a at the two inside probes and at the outside probe: the
# outside exponents are coordinatewise sums of the inside ones, which is
# what makes multiplying the two equation instances work.
_INSIDE_EXPONENTS_1 = (2, 1, 1, 1)
_INSIDE_EXPONENTS_2 = (1, 1, 2, 1)
_OUTSIDE_EXPONENTS = (3, 2, 3, 2)


def verify_eq1_argument(
    profile: ElementProfile, t_counts: ExponentVector, s_counts: ExponentVector
) -> bool:
    """Check one instance of the multiply-the-equations step.

    If a term pair agrees at both inside probes (as powers of a), it must
    agree at the outside probe, whose exponents are the sums of the probe
    exponents.  Power arithmetic makes the implication hold for every
    index/period and every pair of occurrence-count vectors, which is what
    the exhaustive sweep asserts.
    """
    if len(t_counts.counts) != 4 or len(s_counts.counts) != 4:
        raise ValueError("occurrence counts are over the four variables")
    m, r = profile.index, profile.period

    def agree(weights) -> bool:
        return monogenic_equal(
            m, r, power_eval(t_counts, weights), power_eval(s_counts, weights)
        )

    if agree(_INSIDE_EXPONENTS_1) and agree(_INSIDE_EXPONENTS_2):
        return agree(_OUTSIDE_EXPONENTS)
    return True


_BUILDERS = {
    Case.IDEMPOTENT_NOWHERE_COMMUTATIVE: witness_lemma1_case1,
    Case.IDEMPOTENT_COMMUTING_PAIR: witness_lemma1_case2,
    Case.BOUNDED_NON_IDEMPOTENT: witness_lemma2,
    Case.UNBOUNDED: witness_lemma3,
}


def check_semigroup(S: Semigroup, budget: int = DEFAULT_BUDGET) -> WitnessReport:
    """Classify, build the matching witness, and verify it against the closure.

    The separating point is the construction's own outside probe.  It is
    certified by :func:`in_pair_closure`: the probe lies in the closure of
    the two inside probes, which lies inside the closure of the target, so
    the target is not algebraic and no full term clone is needed.  Raises
    :class:`WitnessNotFound` only on internal inconsistencies the theory
    rules out, including a probe the certificate rejects.
    """
    cls = classify(S)
    if cls.case is Case.TRIVIAL:
        return WitnessReport(
            semigroup=S,
            classification=cls,
            lemma=None,
            elements={},
            target=None,
            verified_identities=(),
            inside_points=(),
            outside_points=(),
            separating_point=None,
            is_equational_domain=True,
        )
    partial = _BUILDERS[cls.case](S, cls)
    failed = [name for name, holds in partial.verified_identities if not holds]
    if failed:
        raise WitnessNotFound(f"asserted identities failed: {', '.join(failed)}")
    for p in partial.inside_points:
        if not in_union_target(p, partial.target):
            raise WitnessNotFound(f"probe point {p} should lie inside {partial.target}")
    for p in partial.outside_points:
        if in_union_target(p, partial.target):
            raise WitnessNotFound(f"probe point {p} should lie outside {partial.target}")
    probe = partial.outside_points[0]
    if not in_pair_closure(S, *partial.inside_points, probe, budget=budget):
        raise WitnessNotFound(f"probe {probe} is not in the closure of the inside probes")
    return replace(partial, separating_point=probe)
