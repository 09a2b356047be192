"""Exhaustive generation of small semigroups, canonical forms, and corpus files.

Tables are generated by a depth-first search with forward propagation.
Each time a cell x*y becomes known, every associativity triple that uses
it is revisited, and once three of a triple's four cells are known the
fourth is forced (or the branch fails).  The search branches on the
first unknown cell in row-major order with values in ascending order, so
the raw stream is in lexicographic order of the flat table.

The reduced modes generate orderly, in the sense of Read and Faradzev:
a table is kept when no relabeling (and, up to anti-isomorphism, no
relabeled transpose) is lexicographically smaller.  The search compares
each relabeled candidate with every partial table on the cells where
both are known, and drops the subtree as soon as a candidate is smaller
there.  Known cells are fixed in every completion, so no canonical table
is lost, and the test is exact on a full table, so no filter follows.

Canonical forms at these orders are found by direct minimization over
all relabelings (and optionally the transpose), at most 2 * n!
candidates.  :func:`is_canonical` tests a single table without building
that minimum: it stops at the first smaller candidate.
"""

from __future__ import annotations

import warnings
from functools import cache
from itertools import permutations
from pathlib import Path
from typing import Iterator, NamedTuple

from .semigroups import Semigroup, TableError

# Bound once at import, so that rebinding ``Semigroup`` in this module (as
# perfbench/tracer.py does) leaves the trusted path in place.
_trusted = Semigroup._trusted

__all__ = [
    "MODES",
    "SOFT_ORDER_LIMIT",
    "CanonicalForm",
    "enumerate_tables",
    "split_search",
    "canonicalize",
    "is_canonical",
    "CorpusError",
    "CorpusWarning",
    "parse_corpus",
    "read_corpus",
    "format_table",
]

MODES = ("raw", "up_to_iso", "up_to_iso_and_anti")
SOFT_ORDER_LIMIT = 5  # table counts explode beyond this


class CanonicalForm(NamedTuple):
    """Lexicographically least relabeling of a table under the given mode."""

    table: tuple[tuple[int, ...], ...]
    mode: str


def _relabel(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        px = perm[x]
        row = table[x]
        for y in range(n):
            out[px][perm[y]] = perm[row[y]]
    return tuple(tuple(r) for r in out)


def _transpose(table):
    return tuple(tuple(col) for col in zip(*table))


def canonical_table(table, mode: str):
    table = tuple(tuple(r) for r in table)
    if mode == "raw":
        return table
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    candidates = [table]
    if mode == "up_to_iso_and_anti":
        candidates.append(_transpose(table))
    best = None
    for cand in candidates:
        for perm in permutations(range(len(table))):
            relabeled = _relabel(cand, perm)
            if best is None or relabeled < best:
                best = relabeled
    return best


def is_canonical(table, mode: str) -> bool:
    """Whether ``table`` equals ``canonical_table(table, mode)``.

    True unless some relabeling (in ``up_to_iso_and_anti`` mode, also of
    the transpose) is lexicographically smaller.  Each candidate is built
    cell by cell in row-major order and dropped at the first cell where it
    is larger, so most candidates cost a cell or two.
    """
    if mode == "raw":
        return True
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = len(table)
    views = [table]
    if mode == "up_to_iso_and_anti":
        views.append(_transpose(table))
    inverse = [0] * n
    for view in views:
        # sigma maps a cell of the candidate to the cell of view it is read from
        for sigma in permutations(range(n)):
            for a, s in enumerate(sigma):
                inverse[s] = a
            for i in range(n):
                row, src = table[i], view[sigma[i]]
                for j in range(n):
                    c = inverse[src[sigma[j]]]
                    if c != row[j]:
                        if c < row[j]:
                            return False
                        break
                else:
                    continue  # row i ties: compare row i + 1
                break  # the candidate is larger: try the next one
    return True


def canonicalize(S: Semigroup, mode: str) -> CanonicalForm:
    return CanonicalForm(canonical_table(S.table, mode), mode)


@cache
def _relabelings(n: int, mode: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The start state ``(src, lab, 0)`` of each relabeling the search tests.

    For the relabeling sigma of a view (the table, or its transpose in
    ``up_to_iso_and_anti`` mode), cell q of the candidate is read from
    cell ``src[q]`` of the table and renamed by ``lab``, the inverse of
    sigma, as in :func:`is_canonical`.  The third entry is the first cell
    not yet known to tie.  The identity of the table itself is left out:
    its candidate is the table.  ``raw`` mode has none.  Built once per
    process for each ``(n, mode)``: every shard of a split search starts
    from them.
    """
    states = []
    views = {"raw": (), "up_to_iso": (False,), "up_to_iso_and_anti": (False, True)}[mode]
    for transposed in views:
        for sigma in permutations(range(n)):
            if not transposed and sigma == tuple(range(n)):
                continue
            lab = [0] * n
            for a, s in enumerate(sigma):
                lab[s] = a
            if transposed:
                src = tuple(sigma[j] * n + sigma[i] for i in range(n) for j in range(n))
            else:
                src = tuple(sigma[i] * n + sigma[j] for i in range(n) for j in range(n))
            states.append((src, tuple(lab), 0))
    return tuple(states)


def _assoc_tables(
    n: int,
    mode: str = "raw",
    start: tuple[int, ...] = (),
    stop: tuple[int, ...] | None = None,
    cut: int | None = None,
) -> Iterator[tuple]:
    """The associative n x n tables, in lexicographic order of the flat table.

    A depth-first search over a flat table ``t`` (``-1`` marks an unknown
    cell).  It branches on the first unknown cell in row-major order, values
    ascending, so the stream is lexicographic.  Every assignment goes on the
    trail, and the trail past the branch point doubles as the work queue of
    ``propagate``, which forces cells until nothing changes or a triple
    fails.  Backtracking undoes the trail back to the branch point.

    In the reduced modes ``refine`` prunes a node once its known cells
    show that no completion is canonical.  It is exact on a full table, so
    the stream is the canonical tables of the raw stream, in its order.

    A node of the search is named by its branch values from the root
    down.  The search visits nodes in increasing order of their names (a
    name comes before its extensions), so every node opens a contiguous
    piece of the stream.  With ``start`` the search begins at that node,
    replayed by the same assign, ``propagate`` and ``refine`` steps, and
    goes on past its subtree in the same order; with ``stop`` it ends on
    reaching that node.  With ``cut`` (at most ``n * n``) it yields, in
    place of tables, the name of each node that is the first on its path
    with at least ``cut`` known cells, and does not branch below it.
    """
    size = n * n
    t = [-1] * size
    trail: list[int] = []
    where: list[list[int]] = [[] for _ in range(n)]  # known cells by value
    elements = range(n)
    row_of = [p // n for p in range(size)]
    col_of = [p % n for p in range(size)]
    prune = mode != "raw"

    def equate(p: int, q: int) -> bool:
        """Make cells p and q equal if one is known; False if both differ."""
        tp, tq = t[p], t[q]
        if tp < 0:
            if tq >= 0:
                t[p] = tq
                trail.append(p)
                where[tq].append(p)
        elif tq < 0:
            t[q] = tp
            trail.append(q)
            where[tp].append(q)
        elif tp != tq:
            return False
        return True

    def propagate(head: int) -> bool:
        while head < len(trail):
            pos = trail[head]
            head += 1
            x, y, v = row_of[pos], col_of[pos], t[pos]
            xn, yn, vn = x * n, y * n, v * n
            for z in elements:  # (x.y).z = x.(y.z)
                yz = t[yn + z]
                if yz >= 0 and not equate(vn + z, xn + yz):
                    return False
            for w in elements:  # (w.x).y = w.(x.y)
                wx = t[w * n + x]
                if wx >= 0 and not equate(wx * n + y, w * n + v):
                    return False
            for p in where[x]:  # x.y = (a.b).y = a.(b.y) where a.b = x
                by = t[col_of[p] * n + y]
                if by >= 0 and not equate(pos, row_of[p] * n + by):
                    return False
            for p in where[y]:  # x.y = x.(b.z) = (x.b).z where b.z = y
                xb = t[xn + row_of[p]]
                if xb >= 0 and not equate(pos, xb * n + col_of[p]):
                    return False
        return True

    def refine(waiting, mark):
        """The relabelings still undecided at this node, or None to prune it.

        ``waiting[w]`` chains, as nested ``(state, rest)`` pairs, the
        relabelings stopped at unknown cell ``w``.  Only those stopped at a
        cell that became known since ``mark`` are compared again, each with
        ``t`` in row-major order from its first untied cell, while both
        cells compared are known.  Known cells stay fixed below the node,
        so a candidate smaller there is smaller in every completion
        (prune), one larger there is larger in every completion (drop it),
        and a tie is never compared again.
        """
        waiting = waiting[:]
        for i in range(mark, len(trail)):
            p = trail[i]
            chain = waiting[p]
            while chain is not None:
                (src, lab, q), chain = chain
                while q < size:
                    s = src[q]
                    a, v = t[q], t[s]
                    if a < 0 or v < 0:
                        w = q if a < 0 else s
                        waiting[w] = ((src, lab, q), waiting[w])
                        break
                    c = lab[v]
                    if c != a:
                        if c < a:
                            return None
                        break  # larger: dropped
                    q += 1
        return waiting

    live = [None] * size  # at the root every relabeling waits on cell 0
    for state in _relabelings(n, mode):
        live[0] = (state, live[0])
    stack: list[list] = []  # [branch cell, trail mark, next value, waiting]
    pos = 0
    for v in start:  # replay the branches down to the start node
        while pos < size and t[pos] >= 0:
            pos += 1
        if pos == size or not 0 <= v < n:
            raise ValueError(f"{start} names no node of the search")
        mark = len(trail)
        stack.append([pos, mark, v + 1, live])
        t[pos] = v
        trail.append(pos)
        where[v].append(pos)
        if not propagate(mark) or prune and (live := refine(live, mark)) is None:
            raise ValueError(f"{start} names no node of the search")
    stop_depth = -1 if stop is None else len(stop)
    while True:
        if len(stack) == stop_depth and tuple(f[2] - 1 for f in stack) == stop:
            return
        while pos < size and t[pos] >= 0:
            pos += 1
        if cut is not None and len(trail) >= cut:
            yield tuple(f[2] - 1 for f in stack)
        elif pos == size:
            yield tuple(tuple(t[r * n : (r + 1) * n]) for r in elements)
        else:
            stack.append([pos, len(trail), 0, live])
        while stack:
            frame = stack[-1]
            pos, mark, v, waiting = frame
            while len(trail) > mark:
                p = trail.pop()
                where[t[p]].pop()
                t[p] = -1
            if v == n:
                stack.pop()
                continue
            frame[2] = v + 1
            t[pos] = v
            trail.append(pos)
            where[v].append(pos)
            if propagate(mark):
                if not prune:
                    break
                live = refine(waiting, mark)
                if live is not None:
                    break
        else:
            return  # every branch is exhausted


def split_search(order: int, mode: str, pieces: int) -> list[tuple[int, ...]]:
    """The start nodes of at most ``pieces`` shards that split one search.

    Shard i goes from start i up to start i + 1 (the last one to the end),
    so the shards' streams, concatenated, are the whole stream.  The first
    start is the root.  The others are spread evenly over the nodes that
    are the first on their path with half the table's cells known, at
    least eight of those nodes to a shard: a cut by known cells goes
    deeper where few cells are forced, such as among the zero-rich tables
    that hold most of the reduced searches, and a tiny search stays whole.
    """
    nodes = list(_assoc_tables(order, mode, cut=order * order // 2))
    count = max(1, min(pieces, len(nodes) // 8))
    return [()] + [nodes[i * len(nodes) // count] for i in range(1, count)]


def enumerate_tables(
    order: int,
    mode: str = "raw",
    allow_large: bool = False,
    start: tuple[int, ...] = (),
    stop: tuple[int, ...] | None = None,
) -> Iterator[Semigroup]:
    """Yield every semigroup of the given order, optionally one per class.

    ``up_to_iso`` keeps only tables equal to their own canonical form, so
    the stream contains exactly one representative per isomorphism class;
    ``up_to_iso_and_anti`` also folds transposed tables together.  Output
    order is deterministic (lexicographic over the raw stream).  ``start``
    and ``stop`` restrict it to one shard of :func:`split_search`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if order > SOFT_ORDER_LIMIT and not allow_large:
        raise ValueError(
            f"order {order} exceeds the soft limit {SOFT_ORDER_LIMIT}; pass allow_large to proceed"
        )

    return map(_trusted, _assoc_tables(order, mode, start, stop))


class CorpusError(ValueError):
    """A corpus file entry that cannot be turned into a semigroup."""

    def __init__(self, message: str, line: int | None = None, table_index: int | None = None):
        super().__init__(message)
        self.line = line
        self.table_index = table_index


class CorpusWarning(UserWarning):
    pass


def _blocks(text: str):
    """Blank-line separated chunks as (first line number, [(lineno, line), ...])."""
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            block.append((lineno, raw))
        elif block:
            yield block
            block = []
    if block:
        yield block


def _parse_block(block, table_index: int):
    lineno, header = block[0]
    parts = header.split()
    if len(parts) != 1 or not parts[0].isdecimal():
        raise CorpusError(
            f"line {lineno}: expected the table order on its own line, found {header.strip()!r}",
            line=lineno,
            table_index=table_index,
        )
    n = int(parts[0])
    if len(block) - 1 != n:
        raise CorpusError(
            f"line {lineno}: table of order {n} needs {n} rows, found {len(block) - 1}",
            line=lineno,
            table_index=table_index,
        )
    rows = []
    for row_line, raw in block[1:]:
        entries = raw.split()
        if len(entries) != n or not all(e.removeprefix("-").isdecimal() for e in entries):
            raise CorpusError(
                f"line {row_line}: expected {n} integers, found {raw.strip()!r}",
                line=row_line,
                table_index=table_index,
            )
        rows.append([int(e) for e in entries])
    return lineno, rows


def parse_corpus(text: str, strict: bool = True) -> Iterator[Semigroup]:
    """Validated semigroups from blank-line separated table blocks.

    In strict mode the first bad table raises :class:`CorpusError`; in
    non-strict mode bad tables are reported as :class:`CorpusWarning` and
    skipped.
    """
    for table_index, block in enumerate(_blocks(text)):
        try:
            lineno, rows = _parse_block(block, table_index)
            try:
                yield Semigroup(rows)
            except TableError as e:
                raise CorpusError(
                    f"table {table_index} (line {lineno}): {e}",
                    line=lineno,
                    table_index=table_index,
                ) from e
        except CorpusError as err:
            if strict:
                raise
            warnings.warn(str(err), CorpusWarning, stacklevel=2)


def read_corpus(path, strict: bool = True) -> Iterator[Semigroup]:
    yield from parse_corpus(Path(path).read_text(), strict=strict)


def format_table(S: Semigroup) -> str:
    """Render one table in the corpus text format (order line, then rows)."""
    lines = [str(S.order)]
    lines.extend(" ".join(str(v) for v in row) for row in S.table)
    return "\n".join(lines)
