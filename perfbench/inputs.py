"""The workloads' fixed tables and the seeded relabeling of A2.

Kept free of numpy and eqdomain so that importing it costs next to nothing.
"""

import random

# The order-5 iso class with the largest arity-3 clone; see pick_a2.py.
A2 = (
    (0, 0, 0, 0, 0),
    (0, 0, 0, 1, 2),
    (0, 1, 2, 1, 2),
    (0, 0, 0, 3, 4),
    (0, 3, 4, 3, 4),
)


def permutation(seed: int, n: int) -> tuple[int, ...]:
    """The relabeling x -> perm[x] that a seed picks."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tuple(perm)


def relabel(table, perm) -> tuple[tuple[int, ...], ...]:
    """The isomorphic table in which element x is renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(r) for r in out)


def format_table(table) -> str:
    """The CLI's corpus text format: the order, then one row per line."""
    return "\n".join([str(len(table))] + [" ".join(map(str, r)) for r in table]) + "\n"
