"""Simple-graph core: validated construction, edge-list parsing, distances.

Everything downstream assumes a finite, simple, undirected, connected graph.
Graphs are immutable; vertices are dense integers ``0..n-1``.  Connectivity is
not checked at construction time but at ``all_pairs_distances``, the single
gate every analysis and solver passes through.

All-pairs distances come from one of two kernels, chosen from the input:
breadth-first search from every vertex, or, on graphs of at most 255
vertices whose diameter is small against their size, ball growth, which
keeps each vertex's ball as one integer with a byte per vertex and grows
every ball by one level with a few big-int ORs.  Both give the same rows
and count the spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter, or_


class GraphError(ValueError):
    """Base class for invalid graph inputs."""


class SelfLoopError(GraphError):
    def __init__(self, vertex):
        super().__init__(f"self-loop at vertex {vertex}")
        self.vertex = vertex


class DuplicateEdgeError(GraphError):
    def __init__(self, u, v):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class VertexOutOfRangeError(GraphError):
    def __init__(self, vertex, n):
        super().__init__(f"vertex {vertex} out of range for n={n}")
        self.vertex = vertex
        self.n = n


class ParseError(GraphError):
    def __init__(self, line_no, line):
        super().__init__(f"cannot parse line {line_no}: {line!r}")
        self.line_no = line_no
        self.line = line


class EmptyInputError(GraphError):
    """Edge-list input contained no vertices at all."""


class DisconnectedError(GraphError):
    """The graph is not connected, so distance vectors are undefined."""


# the most vertices a graph may have.  Distance rows and string tables hold
# n^2 entries: with CPython 3.11 on a 2-vCPU host, `compute --family path:N`
# peaks at 86 MB for N = 2,000, and `verify --construct` on a path (ranks of
# up to N + 1 bits) at 616 MB; at N = 4,000 the latter took 4.1 GB
MAX_VERTICES = 2_000


def check_vertex_count(n: int) -> None:
    """Raise ``GraphError`` for a graph of more than ``MAX_VERTICES``
    vertices, before anything of that size is built."""
    if n > MAX_VERTICES:
        raise GraphError(f"graph needs {n} vertices, limit {MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``adj[v]`` is the sorted tuple of neighbours of ``v``.  Instances should
    be built through :func:`build_graph`, which validates simplicity.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances of a connected graph.

    ``dist[u][v]`` is the hop distance; ``diameter`` is the largest entry
    (0 for the one-vertex graph).  ``spheres[v][i - 1]`` counts the
    vertices at distance ``i`` from ``v``; rows are ``bytes`` unless some
    sphere has 256 vertices or more.
    """

    dist: tuple[tuple[int, ...], ...]
    diameter: int
    spheres: tuple[bytes | tuple[int, ...], ...]


def build_graph(n: int, edges) -> Graph:
    """Build a validated simple graph on vertices ``0..n-1``.

    Raises ``SelfLoopError``, ``DuplicateEdgeError`` or
    ``VertexOutOfRangeError`` on bad input; ``n`` must be at least 1 and at
    most ``MAX_VERTICES``.
    """
    if n < 1:
        raise EmptyInputError("graph needs at least one vertex")
    check_vertex_count(n)
    neighbours = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n):
            raise VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError(u)
        if v in neighbours[u]:
            raise DuplicateEdgeError(u, v)
        neighbours[u].add(v)
        neighbours[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in neighbours))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    One ``u v`` pair per line; ``#`` starts a comment; an optional first
    directive ``# n=<count>`` fixes the vertex count (otherwise it is one
    more than the largest id mentioned).  Blank lines are ignored.
    """
    explicit_n = None
    edges = []
    max_seen = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0].startswith("#"):
            body = raw.strip()[1:].strip()
            if body.startswith("n=") and explicit_n is None and not edges:
                try:
                    explicit_n = int(body[2:])
                except ValueError:
                    raise ParseError(line_no, raw) from None
            continue
        if len(parts) != 2:
            raise ParseError(line_no, raw)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, raw) from None
        if u < 0 or v < 0:
            raise ParseError(line_no, raw)
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


def _bfs_row(g: Graph, source: int, steps):
    """Distances from one source; -1 marks unreachable vertices.

    ``steps`` is ``range(g.n + 1)`` as a list: a distance ``d`` is stored as
    ``steps[d]``, so every row shares one int object per distance value.
    The queue is a list read while it grows.
    """
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    adj = g.adj
    for u in queue:
        du = steps[dist[u] + 1]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def _ball_rows(g: Graph):
    """All distance rows of a connected graph on at most 255 vertices, its
    diameter and its sphere rows, as ``DistanceMatrix`` takes them.

    Ball ``i`` of ``v``, the vertices within distance ``i``, is one integer
    whose byte ``w`` is 1 for each such ``w``; ball ``i + 1`` is the OR of
    the ``i``-balls over ``v``'s closed neighbourhood.  Summed over levels
    ``0..L-1``, ``L`` the diameter, ``full - ball_i(v)`` has byte ``w``
    equal to the number of levels that miss ``w``, which is ``d(v, w)`` and
    below 255; it is taken as ``L * full`` minus the sum of the balls.  The
    rows hold the interpreter's cached small ints, one object per distance.
    A level's ball sizes are one integer, a byte per vertex; less the last
    level's, byte ``v`` is sphere ``i`` of ``v``.
    """
    n = g.n
    full = int.from_bytes(b"\x01" * n, "little")
    balls = [1 << 8 * v for v in range(n)]
    # a tuple for every v when n >= 2; the one-vertex ball is already full
    closed = [itemgetter(v, *g.adj[v]) for v in range(n)]
    acc = [0] * n
    held = full  # byte v: how many vertices v's ball holds
    levels = []  # levels[i - 1][v]: sphere i of v
    while balls.count(full) < n:
        acc = list(map(add, acc, balls))
        balls = [reduce(or_, get(balls)) for get in closed]
        grown = int.from_bytes(bytes(map(int.bit_count, balls)), "little")
        levels.append((grown - held).to_bytes(n, "little"))
        held = grown
    top = len(levels) * full
    rows = tuple(tuple((top - a).to_bytes(n, "little")) for a in acc)
    flat = b"".join(levels)
    return rows, len(levels), tuple([flat[v::n] for v in range(n)])


def _bfs_spheres(rows, diameter: int):
    """Sphere rows from distance rows, ``bytes`` until a sphere of 256 or
    more vertices makes every row a tuple."""
    spheres = []
    wide = False
    for row in rows:
        sizes = [0] * (diameter + 1)
        for i in row:
            sizes[i] += 1
        del sizes[0]  # v itself
        if not wide:
            try:
                sizes = bytes(sizes)
            except ValueError:  # a sphere of 256 or more vertices
                wide = True
        spheres.append(sizes)
    return tuple(map(tuple, spheres)) if wide else tuple(spheres)


def is_connected(g: Graph) -> bool:
    return -1 not in _bfs_row(g, 0, list(range(g.n + 1)))


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """All-pairs distances; raises ``DisconnectedError`` when any pair is
    unreachable.

    Vertex 0 reaches every vertex exactly when the graph is connected, so
    only its BFS row is checked.  The other rows come from ball growth when
    ``n <= 255`` and the diameter looks small against ``n + 2m`` (see
    below), else from BFS; either way the rows share one int object per
    distance, and the sphere rows come with them.
    """
    n = g.n
    steps = list(range(n + 1))
    first = _bfs_row(g, 0, steps)
    if -1 in first:
        raise DisconnectedError("no path from vertex 0 to some vertex")
    # BFS costs about n * (n + 2m) edge steps; ball growth costs n reduces
    # per level, one level per unit of diameter.  One reduce cost 10-14 steps
    # on cycles of 12-250 vertices, 14-21 on grids of 16-225 and 14-20 on
    # sparse G(n, p) with n <= 120 (2-vCPU host, CPython 3.11; more on
    # denser graphs, where BFS is slower still).  At 20 steps a reduce, balls
    # win once 20 * diameter <= n + 2m.  The diameter is at most 2 * ecc(0),
    # so 40 * ecc(0) <= n + 2m sends a graph to balls at once: the 400
    # G(30, 1/4) graphs of the random_batch benchmark ran 1.6-2.5x faster
    # there, C7xC7 1.9x, G(250, 1/2) 28x.  Otherwise the row of a vertex x
    # farthest from 0 gives ecc(x), at most the diameter and close to it
    # when 0 is peripheral, and 20 * ecc(x) < n + 2m sends the graph to
    # balls: Petersen x K2 0.088 against 0.111 ms by BFS, Q5 0.222 against
    # 0.303 ms, grid:12x12 2.12 against 3.44 ms.  The Petersen graph (20 *
    # ecc(x) = n + 2m = 40) stays on BFS, 0.029 against 0.033 ms, and so
    # does cycle:120, 2.1x faster than balls; BFS reuses the row of x.
    size = n + sum(map(len, g.adj))
    rows = [first] + [None] * (n - 1)
    if n <= 255:
        if 40 * max(first) <= size:
            return DistanceMatrix(*_ball_rows(g))
        far = first.index(max(first))
        rows[far] = _bfs_row(g, far, steps)
        if 20 * max(rows[far]) < size:
            return DistanceMatrix(*_ball_rows(g))
    rows = tuple(tuple(row or _bfs_row(g, v, steps)) for v, row in enumerate(rows))
    diameter = max(map(max, rows))
    return DistanceMatrix(rows, diameter, _bfs_spheres(rows, diameter))
