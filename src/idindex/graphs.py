"""Simple-graph core: validated construction, edge-list parsing, BFS distances.

Everything downstream assumes a finite, simple, undirected, connected graph.
Graphs are immutable; vertices are dense integers ``0..n-1``.  Connectivity is
not checked at construction time but at ``all_pairs_distances``, the single
gate every analysis and solver passes through.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(Exception):
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
    (0 for the one-vertex graph).
    """

    dist: tuple[tuple[int, ...], ...]
    diameter: int


def build_graph(n: int, edges) -> Graph:
    """Build a validated simple graph on vertices ``0..n-1``.

    Raises ``SelfLoopError``, ``DuplicateEdgeError`` or
    ``VertexOutOfRangeError`` on bad input; ``n`` must be at least 1.
    """
    if n < 1:
        raise EmptyInputError("graph needs at least one vertex")
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
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and explicit_n is None and not edges:
                try:
                    explicit_n = int(body[2:])
                except ValueError:
                    raise ParseError(line_no, raw) from None
            continue
        parts = line.split()
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
    """
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = steps[dist[u] + 1]
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    return -1 not in _bfs_row(g, 0, list(range(g.n + 1)))


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex; raises ``DisconnectedError`` when any pair
    is unreachable.

    Vertex 0 reaches every vertex exactly when the graph is connected, so
    only its row is checked.  The rows share one int object per distance.
    """
    steps = list(range(g.n + 1))
    first = _bfs_row(g, 0, steps)
    if -1 in first:
        raise DisconnectedError("no path from vertex 0 to some vertex")
    rows = (tuple(first),) + tuple(tuple(_bfs_row(g, v, steps)) for v in range(1, g.n))
    return DistanceMatrix(rows, max(map(max, rows)))
