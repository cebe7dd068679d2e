"""Distance-sum strings and red-count codes.

Fix a connected graph of diameter ``d``.  A rank assignment gives every
vertex an integer; the *string* of vertex ``v`` is the d-vector whose i-th
coordinate is the sum of the ranks of all vertices at distance exactly ``i``
from ``v``.  A red/white coloring instead yields a *code*: the d-vector
counting red vertices at each distance.  Codes are exactly the strings of
the 0/1 indicator assignment of the red set.

An assignment (coloring) identifies the graph's vertices when all strings
(codes) are pairwise distinct.  All arithmetic is exact; ranks may be
arbitrarily large Python integers, which ``cli`` writes to JSON as decimal
strings.
"""

from __future__ import annotations

from dataclasses import dataclass


class MissingRankError(Exception):
    def __init__(self, vertex):
        super().__init__(f"no rank given for vertex {vertex}")
        self.vertex = vertex


class NoRedVertexError(Exception):
    """A coloring must have at least one red vertex."""


@dataclass(frozen=True)
class RankAssignment:
    """Integer rank per vertex, indexed by vertex id."""

    ranks: tuple[int, ...]

    @property
    def distinct_rank_count(self) -> int:
        return len(set(self.ranks))


@dataclass(frozen=True)
class RedWhiteColoring:
    """A red subset of the vertices 0..n-1."""

    n: int
    red: frozenset[int]

    def indicator(self) -> RankAssignment:
        return RankAssignment(tuple(1 if v in self.red else 0 for v in range(self.n)))


def _check_length(values, n):
    if len(values) < n:
        raise MissingRankError(len(values))
    if len(values) > n:
        raise ValueError(f"{len(values)} ranks for {n} vertices")


def string_table(dm, f: RankAssignment) -> list[tuple[int, ...]]:
    """Strings of every vertex, as tuples of length ``dm.diameter``.

    ``dm`` is the graph's :class:`~idindex.graphs.DistanceMatrix`.  The
    one-vertex graph has diameter 0 and a single empty string.
    """
    n = len(dm.dist)
    _check_length(f.ranks, n)
    d = dm.diameter
    table = []
    for v in range(n):
        row = [0] * d
        dv = dm.dist[v]
        for w in range(n):
            i = dv[w]
            if i > 0:
                row[i - 1] += f.ranks[w]
        table.append(tuple(row))
    return table


def code_table(dm, c: RedWhiteColoring) -> list[tuple[int, ...]]:
    """Codes of every vertex under a red/white coloring.

    Identical to :func:`string_table` on the 0/1 indicator assignment;
    raises ``NoRedVertexError`` for an all-white coloring.
    """
    n = len(dm.dist)
    if c.n != n:
        raise ValueError(f"coloring of {c.n} vertices for a {n}-vertex graph")
    if not c.red:
        raise NoRedVertexError("coloring has no red vertex")
    if any(not (0 <= v < n) for v in c.red):
        raise ValueError("red set mentions a vertex outside 0..n-1")
    return string_table(dm, c.indicator())


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

