"""Distance-sum strings and red-count codes.

Fix a connected graph of diameter ``d``.  A rank assignment, a tuple of
integers indexed by vertex, gives every vertex a rank; the *string* of
vertex ``v`` is the d-vector whose i-th coordinate is the sum of the ranks
of all vertices at distance exactly ``i`` from ``v``.  A red set, a
frozenset of vertex ids, instead yields a *code*: the d-vector counting red
vertices at each distance.  Codes are exactly the strings of the 0/1
indicator assignment of the red set.

Strings are linear in the ranks: a table starts each row at the most
common rank ``r0`` times the sphere sizes and adds ``r - r0`` for each
vertex of another rank ``r``.

An assignment (red set) identifies the graph's vertices when all strings
(codes) are pairwise distinct.  All arithmetic is exact; ranks may be
arbitrarily large Python integers, which ``cli`` writes to JSON as decimal
strings.
"""

from __future__ import annotations

from collections import Counter


class MissingRankError(ValueError):
    def __init__(self, vertex):
        super().__init__(f"no rank given for vertex {vertex}")
        self.vertex = vertex


class NoRedVertexError(ValueError):
    """A coloring must have at least one red vertex."""


def _check_length(values, n):
    if len(values) < n:
        raise MissingRankError(len(values))
    if len(values) > n:
        raise ValueError(f"{len(values)} ranks for {n} vertices")


def string_table(dm, ranks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Strings of every vertex, as tuples of length ``dm.diameter``.

    ``dm`` is the graph's :class:`~idindex.graphs.DistanceMatrix` and
    ``ranks[v]`` the rank of vertex ``v``.  The one-vertex graph has
    diameter 0 and a single empty string.
    """
    n = len(dm.dist)
    _check_length(ranks, n)
    counts = Counter(ranks)
    r0 = max(counts, key=counts.__getitem__)  # any most common rank will do
    others = [(w, r - r0) for w, r in enumerate(ranks) if r != r0]
    table = []
    for dv, sizes in zip(dm.dist, dm.spheres):
        row = list(sizes) if r0 == 1 else [r0 * s for s in sizes]
        for w, extra in others:
            i = dv[w]
            if i:  # the vertex itself is not in its string
                row[i - 1] += extra
        table.append(tuple(row))
    return table


def code_table(dm, red: frozenset[int]) -> list[tuple[int, ...]]:
    """Codes of every vertex under the red set ``red``.

    Identical to :func:`string_table` on the 0/1 indicator assignment;
    raises ``NoRedVertexError`` for an empty set and ``ValueError`` for a
    vertex outside ``0..n-1``.
    """
    n = len(dm.dist)
    if not red:
        raise NoRedVertexError("coloring has no red vertex")
    if any(not (0 <= v < n) for v in red):
        raise ValueError("red set mentions a vertex outside 0..n-1")
    return string_table(dm, tuple(1 if v in red else 0 for v in range(n)))


def first_collision(table) -> tuple[int, int] | None:
    """Lexicographically smallest pair of vertices sharing a row, or None."""
    seen: dict[tuple, list[int]] = {}
    for v, row in enumerate(table):
        seen.setdefault(row, []).append(v)
    pairs = [(vs[0], vs[1]) for vs in seen.values() if len(vs) > 1]
    return min(pairs) if pairs else None


def is_distinguishing(table) -> bool:
    """True when all rows of a string table are pairwise distinct."""
    return first_collision(table) is None

