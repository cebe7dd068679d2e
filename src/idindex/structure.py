"""Structural analysis feeding the solvers: twin classes and distance regularity.

Two vertices are *twins* when they have equal open neighbourhoods (an
independent, non-adjacent group) or equal closed neighbourhoods (a mutually
adjacent group).  Twins sit at equal distance from every other vertex, so
two same-rank twins always receive identical strings; the size of the
largest twin class, ``tuplet_classes(g).max_size``, is therefore a lower
bound T on how many distinct rank values any identifying assignment needs.
``counting_lower_bound`` is never weaker: vertices with equal sphere sizes
need distinct strings, and ``k`` rank values allow only so many.

A graph is *distance regular in counts* here when every vertex sees the
same number of vertices at each distance; ``distance_profile`` returns
those counts, or None when vertices differ, and ``analyze`` reports it.

Both sphere-size functions take ``DistanceMatrix.spheres``, the sphere
rows the distance kernel counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class TupletClass:
    """A maximal twin class; ``members`` are ascending, and ``kind`` is
    'independent', 'clique', or None for singletons."""

    members: tuple[int, ...]
    kind: str | None


@dataclass(frozen=True)
class TupletClasses:
    """Partition of the vertices into maximal twin classes."""

    classes: tuple[TupletClass, ...]
    max_size: int


def tuplet_classes(g: Graph) -> TupletClasses:
    """Group vertices by equal open or closed neighbourhoods.

    A vertex cannot lie in a non-trivial group of both kinds (equal open
    neighbourhoods force non-adjacency, equal closed ones force adjacency),
    so the two groupings merge into one partition.  Classes are sorted by
    smallest member; singletons carry no kind tag.
    """
    open_groups: dict[tuple, list[int]] = {}
    closed_groups: dict[tuple, list[int]] = {}
    for v in range(g.n):
        nbrs = g.adj[v]
        open_groups.setdefault(nbrs, []).append(v)
        closed_groups.setdefault(tuple(sorted(nbrs + (v,))), []).append(v)

    classes = []
    grouped = set()
    for kind, groups in (("independent", open_groups), ("clique", closed_groups)):
        for members in groups.values():
            if len(members) > 1:
                if any(v in grouped for v in members):
                    raise AssertionError("vertex in two non-trivial twin classes")
                classes.append(TupletClass(tuple(members), kind))
                grouped.update(members)
    for v in range(g.n):
        if v not in grouped:
            classes.append(TupletClass((v,), None))
    classes.sort(key=lambda c: c.members[0])
    max_size = max(len(c.members) for c in classes)
    return TupletClasses(tuple(classes), max_size)


def counting_lower_bound(spheres, twin_bound: int) -> int:
    """Least ``k >= twin_bound`` leaving every vertex room for its own string.

    ``spheres`` holds the sphere rows, ``bytes`` or tuples: ``spheres[v]``
    lists how many vertices sit at each distance from ``v``, nonzero exactly
    up to ``v``'s eccentricity ``e``.  Vertices with different rows always
    separate.  Under a k-class partition, row ``i`` of ``v``'s count matrix
    splits ``s_i`` vertices among ``k`` classes, ``C(s_i + k - 1, k - 1)``
    ways, and row ``e`` follows from the class sizes, ``v``'s own class and
    rows ``1..e-1``.  So ``m`` vertices sharing a row have at most ``k *
    prod_{i<e} C(s_i + k - 1, k - 1)`` strings to share out, and ``k`` must
    make that at least ``m``.  Every binomial is at least 1, so a group of
    ``m <= k`` vertices always fits and its rows are never read.  A group's
    room only grows with ``k``, so raising ``k`` until one group fits never
    unfits the groups before it.
    """
    k = twin_bound
    for row, m in Counter(spheres).items():
        if m <= k:
            continue
        # s_1..s_{e-1}: drop sphere e and the zeros past it
        free = row[: len(row) - row.count(0) - 1]
        while m > k * math.prod(math.comb(s + k - 1, k - 1) for s in free):
            k += 1
    return k


def distance_profile(spheres) -> tuple[int, ...] | None:
    """Per-distance vertex counts shared by all vertices, or None.

    ``spheres`` holds the sphere rows, ``bytes`` or tuples; entry ``i-1``
    of the result is the number of vertices every vertex sees at distance
    ``i``.  None means the counts differ between vertices.
    """
    rows = set(spheres)
    return tuple(rows.pop()) if len(rows) == 1 else None

