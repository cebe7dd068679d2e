"""Shared test corpus: exhaustive small graphs, seeded random graphs, and
independent oracles the implementation must agree with.

The oracles live here, not in the library: they are reference
implementations the tests compare the solvers against.
"""

from __future__ import annotations

import itertools
import random

from idindex import Graph, build_graph, code_table, is_connected
from idindex import all_pairs_distances, first_collision, is_distinguishing, string_table
from idindex.families import random_connected_graph

# master seed for the reproducible random corpus used across test modules
CORPUS_SEED = 20250817


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices, by edge-mask filtering."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = build_graph(n, edges)
        if is_connected(g):
            yield g


def connected_corpus_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from all_connected_graphs(n)


def random_corpus(count: int, sizes=(6, 7, 8), seed: int = CORPUS_SEED):
    """The seeded random-graph corpus; sizes cycle through ``sizes``."""
    rng = random.Random(seed)
    return [random_connected_graph(sizes[i % len(sizes)], rng) for i in range(count)]


def floyd_warshall(g: Graph):
    """Independent all-pairs oracle (no BFS); inf stays as None."""
    n = g.n
    inf = None
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        for w in g.adj[v]:
            dist[v][w] = 1
    for m in range(n):
        for u in range(n):
            dum = dist[u][m]
            if dum is None:
                continue
            row_u = dist[u]
            row_m = dist[m]
            for v in range(n):
                dmv = row_m[v]
                if dmv is None:
                    continue
                via = dum + dmv
                if row_u[v] is None or via < row_u[v]:
                    row_u[v] = via
    return dist


class TooLargeError(Exception):
    def __init__(self, n, limit):
        super().__init__(f"graph has {n} vertices, oracle limit is {limit}")
        self.n = n
        self.limit = limit


class NoDistinguishingAssignmentError(Exception):
    """The oracle pool admits no identifying assignment (cannot happen with
    the full geometric pool on a connected graph)."""


def restricted_growth_strings(n: int, k: int):
    """Yield all restricted-growth strings of length n with exactly k
    classes, in lexicographic order."""
    s = [0] * n

    def rec(i, used):
        if i == n:
            if used == k:
                yield tuple(s)
            return
        if used + (n - i) < k:
            return
        lo = used if used + (n - i) == k else 0
        hi = used if used < k else k - 1
        for c in range(lo, hi + 1):
            s[i] = c
            yield from rec(i + 1, used + 1 if c == used else used)

    yield from rec(0, 0)


def id_index_oracle(g: Graph, pool, max_n: int = 8) -> int:
    """Baseline minimum over direct rank assignments from ``pool``.

    Enumerates assignments up to renaming of the values (restricted-growth
    over pool positions, classes taking pool values in first-use order) and
    tests string tables directly, sharing none of the solver's pruning.
    With the geometric pool ``[(n+1)^0, ..., (n+1)^(n-1)]`` this equals
    ``id_index_exact(g).k``.
    """
    if g.n > max_n:
        raise TooLargeError(g.n, max_n)
    pool = list(pool)
    if len(set(pool)) != len(pool):
        raise ValueError("pool values must be distinct")
    dm = all_pairs_distances(g)
    for k in range(1, min(g.n, len(pool)) + 1):
        for rgs in restricted_growth_strings(g.n, k):
            ranks = tuple(pool[c] for c in rgs)
            if is_distinguishing(string_table(dm, ranks)):
                return k
    raise NoDistinguishingAssignmentError(
        f"pool {pool!r} admits no identifying assignment"
    )


def geometric_pool(n: int) -> list[int]:
    """The full oracle pool for an n-vertex graph: powers of n+1."""
    return [(n + 1) ** c for c in range(n)]


def reference_partition_distinguishes(dm, p):
    """``partition_distinguishes`` from the per-class sphere counts directly.

    Vertex ``v``'s row holds, for each distance ``i`` and class ``c``, the
    number of class-``c`` vertices at distance ``i`` from ``v``; the library
    instead compares the strings of the geometric certificate ranks.
    """
    n = len(dm.dist)
    table = []
    for v in range(n):
        rows = [[0] * p.k for _ in range(dm.diameter)]
        for w in range(n):
            i = dm.dist[v][w]
            if i > 0:
                rows[i - 1][p.assignment[w]] += 1
        table.append(tuple(tuple(r) for r in rows))
    pair = first_collision(table)
    return (pair is None), pair


def reference_id_number(g: Graph):
    """Minimum red set by brute force over subsets, smallest first.

    Tries the red sets of each size in ``itertools.combinations`` order and
    tests every full code table, sharing none of the solver's pruning.
    Returns the lexicographically least minimum red set as a sorted tuple,
    or None when no red set identifies.
    """
    dm = all_pairs_distances(g)
    for r in range(1, g.n + 1):
        for red in itertools.combinations(range(g.n), r):
            if is_distinguishing(code_table(dm, frozenset(red))):
                return red
    return None


def reference_counting_bound(g: Graph) -> int:
    """The sphere-counting lower bound from first principles.

    Distances come from ``floyd_warshall``; two vertices are twins when they
    see every other vertex at equal distance, and T is the largest such
    class.  A vertex's profile lists its sphere sizes out to its
    eccentricity ``e``; under ``k`` classes the first ``e - 1`` spheres can
    each be split among the classes in as many ways as there are
    compositions, counted here by dynamic programming, and the last sphere
    is fixed by the others and the vertex's own class.  The bound is the
    least ``k >= T`` that gives every profile group a distinct string per
    member.
    """
    dist = floyd_warshall(g)
    n = g.n
    twins = max(
        sum(
            all(dist[u][w] == dist[v][w] for w in range(n) if w not in (u, v))
            for u in range(n)
        )
        for v in range(n)
    )
    groups: dict[tuple, int] = {}
    for v in range(n):
        ecc = max(dist[v])
        profile = tuple(dist[v].count(i) for i in range(1, ecc + 1))
        groups[profile] = groups.get(profile, 0) + 1

    def compositions(total, parts):
        # ways[t]: ordered ways to write t as a sum of the parts added so far
        ways = [1] + [0] * total
        for _ in range(parts):
            ways = [sum(ways[: t + 1]) for t in range(total + 1)]
        return ways[total]

    k = twins
    while True:
        fits = True
        for profile, members in groups.items():
            strings = k
            for s in profile[:-1]:
                strings *= compositions(s, k)
            fits = fits and members <= strings
        if fits:
            return k
        k += 1
