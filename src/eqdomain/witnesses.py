"""Witness configurations showing a union of two diagonals is never algebraic.

For every nontrivial finite semigroup one of four constructions applies,
keyed by the classification: two cases for bands (nowhere commutative or
not), one for non-idempotent semigroups satisfying x^2 = x^3, and one for
semigroups with an element whose square and cube differ.  Each
construction names concrete elements, a handful of table identities that
make the argument work, and probe points inside and outside the target
union.  :func:`_shape_key` alone reads a lemma's choice from the table:
the order, the lemma, the elements it picks and the truth values of its
identities, and for lemma 3 a's index and period.  :func:`_report` builds
every report from that key.  The first three lemmas share one shape,
built by ``_pair_certificate``: a two-element subsemigroup {x, y} with
(x, x, y) and (x, y, x) inside m3 and (x, y, y) outside; only the choice
of the pair differs.  :func:`check_semigroup` checks the identities and
memberships and certifies with :func:`in_pair_closure` that the outside
probe lies in the closure of the two inside ones.  It does so once per
key.  The key fixes every field of the report but the table, the
certificate's verdict and its triple count included, so every later table
of that key gets the stored report with its own table, and a smaller
budget trips where the search would.

The module imports only :mod:`.semigroups`, so checking the theorem loads
no clone engine (``terms``, ``geometry``) and no numpy; that is why the
union-target test lives here too.
"""

from __future__ import annotations

from typing import NamedTuple

from .semigroups import DEFAULT_BUDGET, BudgetExceeded, Case, Classification, Semigroup, classify

__all__ = [
    "WitnessNotFound",
    "WitnessReport",
    "in_union_target",
    "in_pair_closure",
    "witness_lemma1_case1",
    "witness_lemma1_case2",
    "witness_lemma2",
    "witness_lemma3",
    "check_semigroup",
]


class WitnessNotFound(RuntimeError):
    """A construction the theory guarantees failed: an internal inconsistency."""


class WitnessReport(NamedTuple):
    """Machine-checkable record of one semigroup's verification.

    A builder's ``separating_point`` is the outside probe its construction
    claims lies in the closure of the inside probes; the report
    :func:`check_semigroup` returns has that point certified.  ``shape`` is
    the key the report was built from: two reports of one shape differ only
    in their table, and :meth:`to_jsonable` leaves it out.
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
    shape: tuple  # the shape key, (1,) for the trivial report

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


def in_union_target(point, name: str):
    """Whether ``point`` lies in the target ``m3`` or ``m4``, without building it.

    ``point`` may be a tuple of ints, or the rows of a
    :func:`~eqdomain.terms.coordinate_grid`, which gives the answer for every
    point of the grid at once.
    """
    if name == "m3":
        return (point[0] == point[1]) | (point[0] == point[2])
    return (point[0] == point[1]) | (point[2] == point[3])


def in_pair_closure(
    S: Semigroup, q1, q2, p, budget: int = DEFAULT_BUDGET, *, triples: list | None = None
) -> bool:
    """Whether the point p lies in the algebraic closure of {q1, q2}.

    A term function matters here only through its values at the three
    points, and those triples are exactly the subsemigroup of S^3
    generated by the k triples (q1[i], q2[i], p[i]).  An equation holds on
    {q1, q2} and fails at p precisely when two triples share their first
    two coordinates but not the third, so p is in the closure iff the
    third coordinate is a function of the first two.  The search stops at
    the first such pair, so it keeps at most n^2 triples, where the full
    clone can hold up to n^(n^k) functions.  Each distinct triple counts
    against ``budget``.  A caller that passes an empty list as ``triples``
    gets the distinct triples found left in it.
    """
    k = len(p)
    if len(q1) != k or len(q2) != k:
        raise ValueError("the three points must have the same number of coordinates")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = S.order
    if not all(0 <= c < n for c in (*q1, *q2, *p)):
        raise ValueError(f"coordinates must lie in 0..{n - 1}")
    table = S.table
    generators = tuple(dict.fromkeys(zip(q1, q2, p)))
    third: dict[tuple[int, int], int] = {}
    if triples is None:
        triples = []

    def add(a: int, b: int, c: int) -> bool:
        seen = third.get((a, b))
        if seen is not None:
            return seen == c
        if len(triples) >= budget:
            raise BudgetExceeded(len(triples) + 1)
        third[a, b] = c
        triples.append((a, b, c))
        return True

    if not all(add(*g) for g in generators):
        return False
    # every word extends a one-letter-shorter word on the right
    head = 0
    while head < len(triples):
        a, b, c = triples[head]
        for x, y, z in generators:
            if not add(table[a][x], table[b][y], table[c][z]):
                return False
        head += 1
    return True


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
    key: tuple,
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
    ``identities``.  ``key`` is the lemma's shape key.
    """
    pair = (x, y)
    t = S.table
    closed = all(t[u][v] in pair for u in pair for v in pair)
    return WitnessReport(
        semigroup=S,
        classification=cls,
        lemma=key[1],
        elements=elements,
        target="m3",
        verified_identities=(*identities, (f"{{{pair_name}}} closed under product", closed)),
        inside_points=((x, x, y), (x, y, x)),
        outside_points=((x, y, y),),
        separating_point=(x, y, y),
        is_equational_domain=False,
        shape=key,
    )


def _shape_key(S: Semigroup, cls: Classification) -> tuple:
    """What fixes every field of a nontrivial report of S but S itself.

    That is the order, the lemma, the elements its construction picks and
    the truth values of its identities, read from the table, and lemma
    1.1's orientation.  :func:`_report` builds the report from these
    alone.  When the identities hold they fix all four products of the
    closed pair, hence the pair certificate's verdict and triple count;
    lemma 3 certifies inside <a>, so its key adds a's index and period.
    """
    t = S.table
    n = S.order
    case = cls.case
    if case is Case.UNBOUNDED:
        a = cls.element
        a2 = t[a][a]
        a3 = t[a2][a]
        powers = [a]
        x = a2
        while x not in powers:
            powers.append(x)
            x = t[x][a]
        start = powers.index(x)
        return n, "3", a, a2, a3, a != a2, a2 != a3, start + 1, len(powers) - start
    if case is Case.BOUNDED_NON_IDEMPOTENT:
        a = cls.element
        a2 = t[a][a]
        return n, "2", a, a2, a != a2, a2 == t[a2][a]
    if case is Case.IDEMPOTENT_COMMUTING_PAIR:
        a, b = cls.pair
        c = t[a][b]
        d = a if a != c else b
        return (
            n, "1.2", a, b, c, d,
            c == t[b][a], t[d][d] == d, t[c][c] == c, t[d][c] == c, t[c][d] == c,
        )
    a, b = next(
        ((a, b) for a in range(n) for b in range(n) if b != a and t[a][b] != a),
        (0, 1),  # no such pair: every product x*y is x
    )
    right = t[a][b] != a  # whether the pair {a, c} is right-zero
    c = t[a][b] if right else t[b][a]
    ac, ca = (c, a) if right else (a, c)
    return n, "1.1", a, b, c, right, t[a][a] == a, t[c][c] == c, t[a][c] == ac, t[c][a] == ca


def _report(S: Semigroup, cls: Classification, key: tuple) -> WitnessReport:
    """The unchecked report of a nontrivial S whose shape key is ``key``.

    It names the lemma's elements and identities and lays out its probes
    and target, reading nothing from the table but the closed pair's
    products.
    """
    lemma = key[1]
    if lemma == "3":
        a, a2, a3, a_a2, a2_a3 = key[2:7]
        return WitnessReport(
            semigroup=S,
            classification=cls,
            lemma="3",
            elements={"a": a, "a2": a2, "a3": a3},
            target="m4",
            verified_identities=(("a != a^2", a_a2), ("a^2 != a^3", a2_a3)),
            inside_points=((a2, a, a, a), (a, a, a2, a)),
            outside_points=((a3, a2, a3, a2),),
            separating_point=(a3, a2, a3, a2),
            is_equational_domain=False,
            shape=key,
        )
    if lemma == "2":
        a, a2, *holds = key[2:]
        identities = tuple(zip(("a != a^2", "a^2 = a^3"), holds))
        return _pair_certificate(S, cls, key, {"a": a, "a2": a2}, a, a2, "a,a^2", identities)
    if lemma == "1.2":
        a, b, c, d, *holds = key[2:]
        if d == c:
            raise WitnessNotFound("both members of the commuting pair equal their product")
        names = ("a*b = b*a", "d*d = d", "c*c = c", "d*c = c", "c*d = c")
        elements = {"a": a, "b": b, "c": c, "d": d}
        return _pair_certificate(S, cls, key, elements, d, c, "d,c", tuple(zip(names, holds)))
    a, b, c, right, *holds = key[2:]
    if c == a:
        raise WitnessNotFound("no distinct pair spans a two-element subsemigroup")
    # the pair is right-zero (u*v = v) or left-zero (u*v = u)
    ac, ca = ("c", "a") if right else ("a", "c")
    names = ("a*a = a", "c*c = c", f"a*c = {ac}", f"c*a = {ca}")
    elements = {"a": a, "b": b, "c": c}
    return _pair_certificate(S, cls, key, elements, a, c, "a,c", tuple(zip(names, holds)))


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
    return _report(S, cls, _shape_key(S, cls))


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
    return _report(S, cls, _shape_key(S, cls))


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
    return _report(S, cls, _shape_key(S, cls))


def witness_lemma3(S: Semigroup, cls: Classification | None = None) -> WitnessReport:
    """Some a has a^2 != a^3: exponent arithmetic pins down the witness.

    Any equation holding at (a^2, a, a, a) and (a, a, a^2, a) relates pure
    powers of a; multiplying the two instances shows the equation also
    holds at (a^3, a^2, a^3, a^2), which lies outside the 4-variable union
    target because a^2 != a^3.
    """
    cls = _classified(S, cls, Case.UNBOUNDED)
    return _report(S, cls, _shape_key(S, cls))


_BUILDERS = {
    Case.IDEMPOTENT_NOWHERE_COMMUTATIVE: witness_lemma1_case1,
    Case.IDEMPOTENT_COMMUTING_PAIR: witness_lemma1_case2,
    Case.BOUNDED_NON_IDEMPOTENT: witness_lemma2,
    Case.UNBOUNDED: witness_lemma3,
}


# Per shape key, the fields after ``semigroup`` of the report certified on
# the first table of that key, and the number of distinct triples its
# certificate took: 620 keys among the 187,345 raw tables of orders 2 to 5.
# The reports of one key share its ``elements`` dict.  A failed check
# stores nothing, and nothing is evicted.
_REPORTS: dict[tuple, tuple[tuple, int]] = {}


def _certified(S: Semigroup, cls: Classification, budget: int) -> tuple[WitnessReport, int]:
    """The checked report of a nontrivial S, and its certificate's triple count."""
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
    triples: list = []
    if not in_pair_closure(S, *report.inside_points, probe, budget=budget, triples=triples):
        raise WitnessNotFound(f"probe {probe} is not in the closure of the inside probes")
    return report, len(triples)


def check_semigroup(S: Semigroup, budget: int = DEFAULT_BUDGET) -> WitnessReport:
    """Classify, build the matching witness, and verify it against the closure.

    The separating point is the construction's own outside probe.  It is
    certified by :func:`in_pair_closure`: the probe lies in the closure of
    the two inside probes, which lies inside the closure of the target, so
    the target is not algebraic and no full term clone is needed.  Raises
    :class:`WitnessNotFound` only on internal inconsistencies the theory
    rules out, including a probe the certificate rejects.

    Only the first table of each shape key (:func:`_shape_key`) is built
    and checked; a later one gets that table's report with its own
    semigroup, and ``budget`` trips on it exactly where the certificate
    would.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
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
            shape=(1,),
        )
    key = _shape_key(S, cls)
    known = _REPORTS.get(key)
    if known is None:
        report, size = _certified(S, cls, budget)
        _REPORTS[key] = report[1:], size
        return report
    fields, size = known
    if size > budget:  # the certificate trips as it adds triple budget + 1
        raise BudgetExceeded(budget + 1)
    return WitnessReport._make((S, *fields))
