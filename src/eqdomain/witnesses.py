"""Witness configurations showing a union of two diagonals is never algebraic.

For every nontrivial finite semigroup one of four constructions applies,
keyed by the classification: two cases for bands (nowhere commutative or
not), one for non-idempotent semigroups satisfying x^2 = x^3, and one for
semigroups with an element whose square and cube differ.  Each
construction names concrete elements, a handful of table identities that
make the argument work, and probe points inside and outside the target
union.  The first three share one shape, built by ``_pair_certificate``:
a two-element subsemigroup {x, y} with (x, x, y) and (x, y, x) inside m3
and (x, y, y) outside; only the choice of the pair differs.
:func:`check_semigroup` checks the identities and memberships and
certifies with :func:`in_pair_closure` that the outside probe lies in the
closure of the two inside ones.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Machine-checkable record of one semigroup's verification.

    A builder's ``separating_point`` is the outside probe its construction
    claims lies in the closure of the inside probes; the report
    :func:`check_semigroup` returns has that point certified.
    """

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


def _pair_certificate(
    S: Semigroup,
    cls: Classification,
    lemma: str,
    elements: dict[str, int],
    x: int,
    y: int,
    pair_name: str,
    identities: tuple[tuple[str, bool], ...],
) -> WitnessReport:
    """The m3 report of a lemma built on a two-element subsemigroup {x, y}.

    (x, x, y) and (x, y, x) lie inside the union target and (x, y, y)
    outside it.  Why (x, y, y) lies in the closure of the other two is the
    calling lemma's own argument; this only records the probes, claiming
    (x, y, y) as the separating point, and appends the check that {x, y},
    written ``pair_name``, is closed under product after the lemma's
    ``identities``.
    """
    pair = (x, y)
    closed = all(S.mul(u, v) in pair for u in pair for v in pair)
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
    )


def witness_lemma1_case1(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Nowhere-commutative bands: find a two-element one-sided-zero pair.

    Searching ordered pairs (a, b) lexicographically, c = a*b gives a pair
    {a, c} with a*c = c and c*a = a as soon as a*b != a.  When every
    product x*y equals x the table is left-zero; then c = b*a = b gives the
    mirror pair with a*c = a and c*a = c.  Either way (a, c, c) lies
    outside the union target while (a, a, c) and (a, c, a) lie inside.
    Over a right-zero pair every term takes the value of its last
    variable, so an equation holding at both inside probes has both sides
    end in the same variable and holds at (a, c, c) too; over a left-zero
    pair the same goes for the first variable.
    """
    cls = _classified(S, cls, Case.IDEMPOTENT_NOWHERE_COMMUTATIVE)
    n = S.order
    a, b = next(
        ((a, b) for a in range(n) for b in range(n) if b != a and S.mul(a, b) != a),
        (0, 1),  # no such pair: every product x*y is x
    )
    right = S.mul(a, b) != a
    c = S.mul(a, b) if right else S.mul(b, a)
    if c == a:
        raise WitnessNotFound("no distinct pair spans a two-element subsemigroup")
    # the pair is right-zero (u*v = v) or left-zero (u*v = u)
    ac, ca = ("c", "a") if right else ("a", "c")
    value = {"a": a, "c": c}
    identities = (
        ("a*a = a", S.mul(a, a) == a),
        ("c*c = c", S.mul(c, c) == c),
        (f"a*c = {ac}", S.mul(a, c) == value[ac]),
        (f"c*a = {ca}", S.mul(c, a) == value[ca]),
    )
    return _pair_certificate(S, cls, "1.1", {"a": a, "b": b, "c": c}, a, c, "a,c", identities)


def witness_lemma1_case2(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Bands with a commuting distinct pair a, b: c = a*b absorbs d in {a, b}.

    c = a*b = b*a satisfies a*c = c*a = c and b*c = c*b = c, so picking
    d in {a, b} with d != c (one exists, else a = b) gives a two-element
    subsemigroup {d, c} in which c is absorbing.  (d, c, c) falls outside
    the union target, (d, d, c) and (d, c, d) inside.  Over the pair a term
    is d exactly where every variable it uses is d, and the variables at d
    in (d, c, c) are those at d in both inside probes, so an equation
    holding at both inside probes holds at (d, c, c).
    """
    cls = _classified(S, cls, Case.IDEMPOTENT_COMMUTING_PAIR)
    a, b = cls.pair
    c = S.mul(a, b)
    d = a if a != c else b
    if d == c:
        raise WitnessNotFound("both members of the commuting pair equal their product")
    identities = (
        ("a*b = b*a", S.mul(a, b) == S.mul(b, a)),
        ("d*d = d", S.mul(d, d) == d),
        ("c*c = c", S.mul(c, c) == c),
        ("d*c = c", S.mul(d, c) == c),
        ("c*d = c", S.mul(c, d) == c),
    )
    elements = {"a": a, "b": b, "c": c, "d": d}
    return _pair_certificate(S, cls, "1.2", elements, d, c, "d,c", identities)


def witness_lemma2(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """x^2 = x^3 but not idempotent: {a, a^2} is closed with a != a^2.

    Every product inside {a, a^2} equals a^2, so a term takes the value a
    at a point over the pair only when it is a single variable evaluated
    at a.  (a, a^2, a^2) falls outside the union target, (a, a, a^2) and
    (a, a^2, a) inside.  An equation holding at both inside probes has
    both sides equal to x1 or neither, since x1 is the only term that is a
    at both, so it holds at (a, a^2, a^2).
    """
    cls = _classified(S, cls, Case.BOUNDED_NON_IDEMPOTENT)
    a = cls.element
    a2 = S.power(a, 2)
    identities = (
        ("a != a^2", a != a2),
        ("a^2 = a^3", a2 == S.power(a, 3)),
    )
    return _pair_certificate(S, cls, "2", {"a": a, "a2": a2}, a, a2, "a,a^2", identities)


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
        separating_point=(a3, a2, a3, a2),
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
    report = _BUILDERS[cls.case](S, cls)
    failed = [name for name, holds in report.verified_identities if not holds]
    if failed:
        raise WitnessNotFound(f"asserted identities failed: {', '.join(failed)}")
    for p in report.inside_points:
        if not in_union_target(p, report.target):
            raise WitnessNotFound(f"probe point {p} should lie inside {report.target}")
    for p in report.outside_points:
        if in_union_target(p, report.target):
            raise WitnessNotFound(f"probe point {p} should lie outside {report.target}")
    probe = report.separating_point
    if not in_pair_closure(S, *report.inside_points, probe, budget=budget):
        raise WitnessNotFound(f"probe {probe} is not in the closure of the inside probes")
    return report
