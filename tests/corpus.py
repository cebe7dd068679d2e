"""Shared test corpus: exhaustive small graphs, seeded random graphs,
independent oracles the implementation must agree with, and the paper's
lemma helpers the tests exercise.

The oracles and helpers live here, not in the library: they are reference
implementations the tests compare the solvers against, or statements about
rank assignments that no solver or CLI path needs.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from idindex import Graph, build_graph, certificate_ranks, code_table, is_connected
from idindex import all_pairs_distances, first_collision, is_distinguishing, string_table
from idindex.families import random_connected_graph
from idindex.graphs import EmptyInputError, ParseError
from idindex.strings_codes import NoRedVertexError

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


def counted_spheres(dist):
    """Sphere rows by a direct count over a distance matrix such as
    ``floyd_warshall``'s: row ``v`` lists how many vertices sit at each
    distance ``1..diameter`` from ``v``."""
    diameter = max(map(max, dist))
    return [[row.count(i) for i in range(1, diameter + 1)] for row in dist]


def summed_strings(dist, ranks):
    """Strings by the definition over a distance matrix such as
    ``floyd_warshall``'s: one plain sum of ranks per vertex and distance."""
    n = len(dist)
    diameter = max(map(max, dist))
    return [
        tuple(
            sum(ranks[w] for w in range(n) if dist[v][w] == i)
            for i in range(1, diameter + 1)
        )
        for v in range(n)
    ]


def reference_parse_edge_list(text: str) -> Graph:
    """``graphs.parse_edge_list`` as it was before it split each line once,
    with ids and the header count matched by regular expressions: the
    reference its fuzz test compares against."""
    explicit_n = None
    edges = []
    max_seen = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and explicit_n is None and not edges:
                if not re.fullmatch("-?[0-9]+", body[2:]):
                    raise ParseError(line_no, raw)
                explicit_n = int(body[2:])
            continue
        parts = line.split()
        if len(parts) != 2 or not all(re.fullmatch("[0-9]+", p) for p in parts):
            raise ParseError(line_no, raw)
        u, v = int(parts[0]), int(parts[1])
        max_seen = max(max_seen, u, v)
        edges.append((u, v))
    if explicit_n is None:
        if max_seen < 0:
            raise EmptyInputError("edge list mentions no vertices")
        n = max_seen + 1
    else:
        n = explicit_n
        if n < 1:
            raise EmptyInputError("header fixes an empty vertex set")
    return build_graph(n, edges)


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


def partition_distinguishes(dm, p):
    """Whether the partition separates every vertex pair by counts.

    By the reduction in ``idindex.solvers``, this holds exactly when the
    geometric certificate ranks identify the graph.  Returns ``(True,
    None)`` or ``(False, (u, v))`` with the lexicographically smallest
    colliding pair.
    """
    n = len(dm.dist)
    if len(p.assignment) != n:
        raise ValueError(f"partition of {len(p.assignment)} vertices on n={n}")
    pair = first_collision(string_table(dm, certificate_ranks(p)))
    return (pair is None), pair


def reference_partition_distinguishes(dm, p):
    """``partition_distinguishes`` from the per-class sphere counts directly.

    Vertex ``v``'s row holds, for each distance ``i`` and class ``c``, the
    number of class-``c`` vertices at distance ``i`` from ``v``;
    ``partition_distinguishes`` instead compares the strings of the
    geometric certificate ranks.
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


class ZeroScaleError(Exception):
    """Affine rescaling must have a nonzero scale."""


class NotZeroOneError(Exception):
    """Ranks are not a 0/1 indicator, so they name no coloring."""


def affine_transform(
    ranks: tuple[int, ...], scale: int, offset: int
) -> tuple[int, ...]:
    """Replace each rank r by ``scale * r + offset``; scale must be nonzero.

    On graphs where every vertex sees the same number of vertices at each
    distance, this preserves whether the assignment identifies.
    """
    if scale == 0:
        raise ZeroScaleError("scale 0 collapses all ranks")
    return tuple(scale * r + offset for r in ranks)


def normalize_two_valued(ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Map a two-valued assignment onto 0/1, low value to 0, high to 1.

    This is the unique affine map sending the two values to 0 and 1; its
    scale is nonzero, so on distance-regular-count graphs identification is
    preserved.
    """
    values = set(ranks)
    if len(values) != 2:
        raise ValueError(f"expected exactly 2 distinct ranks, got {len(values)}")
    hi = max(values)
    return tuple(int(r == hi) for r in ranks)


def ranks_to_coloring(ranks: tuple[int, ...]) -> frozenset[int]:
    """Read a 0/1 assignment back as a red set (red = rank 1)."""
    if any(r not in (0, 1) for r in ranks):
        raise NotZeroOneError(f"ranks {sorted(set(ranks))} are not all 0/1")
    red = frozenset(v for v, r in enumerate(ranks) if r == 1)
    if not red:
        raise NoRedVertexError("all ranks are 0")
    return red


class InvalidMultiplicitiesError(Exception):
    """Part-size multiplicities must be positive sizes, counts >= 0, >= 2 parts."""


def multipartite_binomial_bound(multiplicities: dict[int, int]) -> int:
    """Least k admitting enough distinct rank multisets per part size.

    ``multiplicities`` maps a part size ``i`` to how many parts of that size
    the complete multipartite graph has.  Parts of equal size are twins as
    blocks: each needs its own size-``i`` subset of the k rank values, so k
    must satisfy C(k, i) >= multiplicity for every size ``i``, and k can
    never be smaller than the largest part.
    """
    if not multiplicities:
        raise InvalidMultiplicitiesError("no parts given")
    total_parts = 0
    for size, count in multiplicities.items():
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise InvalidMultiplicitiesError(f"part size {size!r} must be >= 1")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidMultiplicitiesError(f"count for size {size} must be >= 0")
        total_parts += count
    if total_parts < 2:
        raise InvalidMultiplicitiesError("need at least two parts in total")
    active = {s: c for s, c in multiplicities.items() if c >= 1}
    k = max(active)
    while any(math.comb(k, size) < count for size, count in active.items()):
        k += 1
    return k
