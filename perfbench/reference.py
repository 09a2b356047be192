"""Plain-Python clone enumeration and closure, written apart from eqdomain.

It uses neither numpy nor eqdomain.  A value vector of a term function is a
`bytes` of length n^k, one byte per point in big-endian point order.  The
pointwise product f * x_i is done on whole vectors at once: the vectors are
read as big integers with one 8-bit lane per point, f * n + x_i puts the
pair (f[p], x_i[p]) into lane p without carries (n^2 <= 256), and
`bytes.translate` maps each pair code to its product.

Rebuild the stored closure-a2 reference from the repository root with:

    python3 perfbench/reference.py

It writes perfbench/data/a2_closure.json, in about 10 s and 0.4 GB on a 2-core host.
"""

import json
import operator
import sys
from itertools import product
from pathlib import Path

from inputs import A2

REFERENCE_FILE = Path(__file__).resolve().parent / "data" / "a2_closure.json"
COMMAND = "python3 perfbench/reference.py"


def points(n: int, k: int) -> list[tuple[int, ...]]:
    """All points of S^k in big-endian order (coordinate 0 most significant)."""
    return list(product(range(n), repeat=k))


def clone(table, k: int) -> list[bytes]:
    """Value vectors of all term functions of arity k, projections first."""
    n = len(table)
    if n * n > 256:
        raise ValueError("pair codes must fit one byte")
    pts = points(n, k)
    size = len(pts)
    codes = bytes(table[c // n][c % n] if c < n * n else 0 for c in range(256))
    projections = [bytes(p[i] for p in pts) for i in range(k)]
    lanes = [int.from_bytes(v, "big") for v in projections]
    seen = set()
    found = []
    for v in projections:
        if v not in seen:
            seen.add(v)
            found.append(v)
    for f in found:  # grows while it is walked: a breadth-first closure
        shifted = int.from_bytes(f, "big") * n
        for lane in lanes:
            g = (shifted + lane).to_bytes(size, "big").translate(codes)
            if g not in seen:
                seen.add(g)
                found.append(g)
    return found


def target_m4(n: int) -> list[tuple[int, ...]]:
    return [p for p in points(n, 4) if p[0] == p[1] or p[2] == p[3]]


def closure(table, k: int, target) -> tuple[list[tuple[int, ...]], int]:
    """The points where every equation true on `target` holds, and the clone size.

    Two term functions with equal values on the target give an equation; a
    point is kept when each function's value there is fixed by its values
    on the target.
    """
    n = len(table)
    pts = points(n, k)
    index = {p: i for i, p in enumerate(pts)}
    restrict = operator.itemgetter(*sorted(index[p] for p in target))
    first: dict[bytes, int] = {}
    disagree = 0
    functions = clone(table, k)
    for f in functions:
        value = int.from_bytes(f, "big")
        disagree |= value ^ first.setdefault(bytes(restrict(f)), value)
    lanes = disagree.to_bytes(len(pts), "big")
    return [p for p, d in zip(pts, lanes) if d == 0], len(functions)


def main() -> int:
    kept, functions = closure(A2, 4, target_m4(len(A2)))
    REFERENCE_FILE.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": COMMAND,
        "table": [list(r) for r in A2],
        "set": "m4",
        "term_functions": functions,
        "closure": [list(p) for p in kept],
    }
    REFERENCE_FILE.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"{len(kept)} closure points, {functions} term functions -> {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
