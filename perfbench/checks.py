"""Checks of the workloads' outputs that do not rely on eqdomain's own results.

Each checker takes the text a command printed and returns a list of error
messages; an empty list means the output passed.  Nothing here imports
eqdomain or numpy: associativity, target membership, identities, closure
certificates and isomorphism are all recomputed from the tables.
"""

import json
import re
from itertools import permutations

# Labeled semigroups (OEIS A023814), up to isomorphism (A027851) and up to
# isomorphism and anti-isomorphism (A001423).
LABELED = {1: 1, 2: 8, 3: 113, 4: 3492}
UP_TO_ISO = {1: 1, 2: 5, 3: 24, 4: 188}
UP_TO_ISO_ANTI = {1: 1, 2: 4, 3: 18, 4: 126}


def is_associative(table) -> bool:
    n = len(table)
    return all(len(r) == n and all(0 <= v < n for v in r) for r in table) and all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def in_target(point, name: str) -> bool:
    """Membership in m3 = {p0 = p1 or p0 = p2} or m4 = {p0 = p1 or p2 = p3}."""
    p = tuple(point)
    if name == "m3":
        return len(p) == 3 and (p[0] == p[1] or p[0] == p[2])
    if name == "m4":
        return len(p) == 4 and (p[0] == p[1] or p[2] == p[3])
    raise ValueError(f"unknown target {name!r}")


def target_points(n: int, name: str) -> list[tuple[int, ...]]:
    k = {"m3": 3, "m4": 4}[name]
    pts = [()]
    for _ in range(k):
        pts = [p + (c,) for p in pts for c in range(n)]
    return [p for p in pts if in_target(p, name)]


# --- identities named in the witness reports ----------------------------------

_CLOSED = re.compile(r"^\{(\w+(?:\^\d+)?),(\w+(?:\^\d+)?)\} closed under product$")
_RELATION = re.compile(r"^(.+?) (=|!=) (.+)$")


def _value(expr: str, elements: dict, table) -> int:
    """A product such as ``a*c`` or ``a^2`` of named elements, folded left."""
    value = None
    for factor in expr.split("*"):
        name, _, exp = factor.strip().partition("^")
        if name not in elements:
            raise ValueError(f"unknown element {name!r}")
        for _ in range(int(exp) if exp else 1):
            a = elements[name]
            value = a if value is None else table[value][a]
    return value


def identity_holds(name: str, elements: dict, table) -> bool:
    """Recompute one identity of a report from the table."""
    closed = _CLOSED.match(name)
    if closed:
        pair = {_value(closed.group(i), elements, table) for i in (1, 2)}
        return all(table[u][v] in pair for u in pair for v in pair)
    relation = _RELATION.match(name)
    if not relation:
        raise ValueError(f"unrecognised identity {name!r}")
    lhs = _value(relation.group(1), elements, table)
    rhs = _value(relation.group(3), elements, table)
    return (lhs == rhs) == (relation.group(2) == "=")


def two_probe_certifies(table, inside1, inside2, outside) -> bool:
    """Whether `outside` lies in the closure of {inside1, inside2}.

    The values of all k-ary terms at the three points form the subsemigroup
    of S^3 generated by the k projection tuples (inside1[i], inside2[i],
    outside[i]).  If its last coordinate is a function of its first two,
    every equation true at both inside points is true at the outside point.
    """
    gens = list(zip(inside1, inside2, outside))
    seen = set(gens)
    queue = list(seen)
    for u in queue:  # right multiplication by generators reaches every word
        for g in gens:
            w = (table[u[0]][g[0]], table[u[1]][g[1]], table[u[2]][g[2]])
            if w not in seen:
                seen.add(w)
                queue.append(w)
    last: dict[tuple[int, int], int] = {}
    return all(last.setdefault((u[0], u[1]), u[2]) == u[2] for u in seen)


def check_report(report: dict) -> list[str]:
    """Every claim of one verify-theorem report, recomputed from its table."""
    table = [list(r) for r in report["table"]]
    where = f"table {report['table']}"
    if not is_associative(table):
        return [f"{where}: not associative"]
    if len(table) < 2:
        return [f"{where}: trivial table in a nontrivial stream"]
    errors = []
    elements = report["elements"]
    if not report["verified_identities"]:
        errors.append(f"{where}: no identities")
    for ident in report["verified_identities"]:
        try:
            holds = identity_holds(ident["name"], elements, table)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            errors.append(f"{where}: identity {ident['name']!r}: {e}")
            continue
        if not (holds and ident["holds"]):
            errors.append(f"{where}: identity {ident['name']!r} does not hold")
    target = report["target"]
    inside = [tuple(p) for p in report["probe_points"]["inside"]]
    outside = [tuple(p) for p in report["probe_points"]["outside"]]
    point = report["separating_point"]
    if target not in ("m3", "m4") or len(inside) != 2 or len(outside) != 1 or point is None:
        return errors + [f"{where}: malformed witness"]
    point = tuple(point)
    for p in inside:
        if not in_target(p, target):
            errors.append(f"{where}: inside probe {p} is not in {target}")
    if point != outside[0]:
        errors.append(f"{where}: separating point {point} is not the outside probe")
    if in_target(point, target):
        errors.append(f"{where}: separating point {point} lies in {target}")
    elif not two_probe_certifies(table, inside[0], inside[1], point):
        errors.append(f"{where}: separating point {point} is not in the closure")
    if report["is_equational_domain"]:
        errors.append(f"{where}: reported as an equational domain")
    return errors


def parse_theorem_stream(text: str) -> tuple[list[dict], dict | None]:
    """The per-table records and the closing summary of a verify-theorem stream."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    summary = records.pop() if records and records[-1].get("command") else None
    return records, summary


def check_theorem(text: str, max_order: int) -> list[str]:
    """A verify-theorem --max-order N --mode raw stream.

    Reports must cover orders 2..N with the labeled counts, in strictly
    increasing table order within each order, and each must pass
    `check_report`.  Records that carry a "status" are operations the
    program itself reported as failed; they are counted, not checked.
    """
    records, summary = parse_theorem_stream(text)
    errors = []
    if summary is None:
        errors.append("no summary line")
    counts: dict[int, int] = {}
    previous: dict[int, list] = {}
    for rec in records:
        order = len(rec["table"])
        counts[order] = counts.get(order, 0) + 1
        if order in previous and not previous[order] < rec["table"]:
            errors.append(f"table {rec['table']} is out of order or repeated")
        previous[order] = rec["table"]
        if "status" not in rec:
            errors.extend(check_report(rec))
    expected = {n: LABELED[n] for n in range(2, max_order + 1)}
    if counts != expected:
        errors.append(f"per-order counts {counts}, expected {expected}")
    if summary is not None and summary.get("tables_checked") != len(records):
        errors.append(f"summary counts {summary.get('tables_checked')} tables, stream has {len(records)}")
    return errors


def failed_in_theorem(text: str) -> int:
    records, _ = parse_theorem_stream(text)
    return sum(1 for rec in records if "status" in rec)


# --- closure ----------------------------------------------------------------------


def check_closure(text: str, table, target: str, reference) -> list[str]:
    """A `closure --set m3|m4` JSON document against an independent reference."""
    out = json.loads(text)
    n = len(table)
    errors = []
    expected_target = set(target_points(n, target))
    closure = [tuple(p) for p in out["closure"]]
    closure_set = set(closure)
    if out["input_size"] != len(expected_target):
        errors.append(f"input_size {out['input_size']}, expected {len(expected_target)}")
    if out["closure_size"] != len(closure) or len(closure_set) != len(closure):
        errors.append("closure_size does not match the listed points")
    if not expected_target <= closure_set:
        errors.append(f"closure misses {len(expected_target - closure_set)} target points")
    extra = sorted(closure_set - expected_target)
    least = list(extra[0]) if extra else None
    if out["separating_point"] != least:
        errors.append(f"separating point {out['separating_point']}, expected {least}")
    if out["is_algebraic"] != (least is None):
        errors.append("is_algebraic contradicts the closure")
    ref = {tuple(p) for p in reference}
    if closure_set != ref:
        errors.append(
            f"closure differs from the reference: {len(closure_set - ref)} extra, "
            f"{len(ref - closure_set)} missing"
        )
    return errors


# --- enumeration --------------------------------------------------------------------


def parse_tables(text: str) -> list[tuple[tuple[int, ...], ...]]:
    return [
        tuple(tuple(r) for r in json.loads(line)["table"])
        for line in text.splitlines()
        if line.strip()
    ]


def canonical(table, anti: bool):
    """Least relabeled flat table over all relabelings (and the transpose)."""
    n = len(table)
    variants = [table, tuple(zip(*table))] if anti else [table]
    best = None
    for t in variants:
        for perm in permutations(range(n)):
            inv = [0] * n
            for x, px in enumerate(perm):
                inv[px] = x
            flat = tuple(perm[t[inv[x]][inv[y]]] for x in range(n) for y in range(n))
            if best is None or flat < best:
                best = flat
    return best


def check_enumeration(text: str, order: int, mode: str) -> list[str]:
    """An `enumerate --order N --mode raw|iso|iso-anti` JSON-lines stream."""
    tables = parse_tables(text)
    expected = {"raw": LABELED, "iso": UP_TO_ISO, "iso-anti": UP_TO_ISO_ANTI}[mode][order]
    errors = []
    if len(tables) != expected:
        errors.append(f"{mode}: {len(tables)} tables, expected {expected}")
    bad = [t for t in tables if len(t) != order or not is_associative(t)]
    if bad:
        errors.append(f"{mode}: {len(bad)} tables fail associativity, first {bad[0]}")
    if mode == "raw":
        if any(a >= b for a, b in zip(tables, tables[1:])):
            errors.append("raw: stream is not strictly increasing")
    else:
        forms = [canonical(t, anti=mode == "iso-anti") for t in tables]
        if len(set(forms)) != len(forms):
            errors.append(f"{mode}: two tables are in the same class")
    return errors
