"""Closed-form rank assignments for the families that admit one.

Four construction routes, chosen by the family spec:

* complete multipartite with strictly increasing part sizes: part ``i``
  (size ``m_i``) gets ranks ``1..m_i``, using ``m_k`` distinct values;
* balanced complete bipartite on ``n + n``: one side gets ``1..n``, the
  other ``2..n+1``, using ``n + 1`` values;
* symmetric caterpillars (mirror-equal leaf counts): the first spine
  vertex gets 2, every other spine vertex 1, and the leaves hanging off
  spine vertex ``i`` get ``1..L_i``, using ``max(L, 2)`` values where
  ``L`` is the largest leaf count;
* everything else: the universal assignment, vertex ``j`` gets
  ``2^(j+1)``, using ``n`` values.

Each route is verified in tests to identify its graph with exactly the
expected number of distinct values.  ``expected_id_index`` returns that
number when a known closed form pins it down, and None otherwise.
"""

from __future__ import annotations

from .families import FamilySpec, vertex_count


class SpecMismatchError(ValueError):
    """The family spec does not fit any closed-form construction route."""


def construct_assignment(spec: FamilySpec) -> tuple[int, ...]:
    """Closed-form assignment for ``spec``, on the canonical numbering."""
    if spec.kind == "multipartite":
        return _multipartite_ranks(spec)
    if spec.kind == "caterpillar":
        return _caterpillar_ranks(spec)
    return universal_assignment(vertex_count(spec))


def _two_equal_parts(sizes) -> bool:
    return len(sizes) == 2 and sizes[0] == sizes[1]


def _increasing(sizes) -> bool:
    return all(a < b for a, b in zip(sizes, sizes[1:]))


def _mirror_symmetric(counts) -> bool:
    return counts == counts[::-1]


def _multipartite_ranks(spec):
    sizes = spec.params
    if _two_equal_parts(sizes):
        n = sizes[0]
        return tuple(range(1, n + 1)) + tuple(range(2, n + 2))
    if not _increasing(sizes):
        raise SpecMismatchError(
            f"no closed form for part sizes {sizes}: need strictly increasing "
            "sizes or exactly two equal parts"
        )
    ranks = []
    for m in sizes:
        ranks.extend(range(1, m + 1))
    return tuple(ranks)


def _caterpillar_ranks(spec):
    counts = spec.params
    if not _mirror_symmetric(counts):
        raise SpecMismatchError(f"leaf counts {counts} are not mirror-symmetric")
    # the layout of families: the spine, then each spine vertex's leaves, 1..L_i
    spine = (2,) + (1,) * (len(counts) - 1)
    return spine + tuple(j for li in counts for j in range(1, li + 1))


def universal_assignment(n: int) -> tuple[int, ...]:
    """Powers-of-two ranks: vertex ``j`` gets ``2^(j+1)``.

    Works on any graph, family member or not, at the cost of using ``n``
    distinct values: each distance coordinate is a sum of distinct powers
    of two, so equal strings would force equal distance sets, and no two
    vertices see the same vertices at every distance (they disagree about
    each other already).
    """
    return tuple(2 ** (j + 1) for j in range(n))


def expected_id_index(spec: FamilySpec) -> int | None:
    """Known exact value for ``spec``, or None when no closed form covers it.

    Single-vertex cases (path:1, complete:1, grid:1x1) return None: the
    solvers handle them by convention, but no family formula claims them.
    """
    kind, p = spec.kind, spec.params
    if kind == "path":
        return 2 if p[0] >= 2 else None
    if kind == "cycle":
        return 3 if p[0] <= 5 else 2
    if kind == "complete":
        return p[0] if p[0] >= 2 else None
    if kind == "multipartite":
        if _two_equal_parts(p):
            return p[0] + 1
        return p[-1] if _increasing(p) else None
    if kind == "grid":
        m, n = p
        if m * n == 1:
            return None
        return 3 if (m, n) == (2, 2) else 2
    if kind == "prism":
        return 3 if p[0] <= 5 else 2
    if kind == "petersen":
        return 3
    if kind == "caterpillar":
        return max(max(p), 2) if _mirror_symmetric(p) else None
    return None
