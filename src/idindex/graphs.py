"""Simple-graph core: validated construction, edge-list parsing, distances.

Everything downstream assumes a finite, simple, undirected, connected graph.
Graphs are immutable; vertices are dense integers ``0..n-1``.  Connectivity is
not checked at construction time but at ``all_pairs_distances``, the single
gate every analysis and solver passes through.

All-pairs distances come from one of two kernels, chosen from the input.
Ball growth, on graphs of at most 255 vertices whose diameter is small
against their size, keeps each vertex's ball as one integer with a byte per
vertex and grows every ball by one level with a few big-int ORs.  The shift
kernel takes every other graph: each row starts as a neighbour's row plus
one, the first as an all-unreached row, and a BFS lowers only the vertices
that get closer, once per orbit of known automorphisms.  Both give the
same rows and count the spheres.
"""

from __future__ import annotations

from collections import namedtuple
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
# up to N + 1 bits) at 616 MB; at N = 4,000 the latter took 4.1 GB.  Dense
# graphs cost O(n) per distance row and are built without an edge list:
# `analyze` takes 0.8 s and 77 MB on complete:2000 (160 s by a full BFS
# per row), 0.6 s and 62 MB on multipartite:1000,1000 (193 MB from edges)
MAX_VERTICES = 2_000


def check_vertex_count(n: int) -> None:
    """Raise ``GraphError`` for a graph of more than ``MAX_VERTICES``
    vertices, before anything of that size is built."""
    if n > MAX_VERTICES:
        raise GraphError(f"graph needs {n} vertices, limit {MAX_VERTICES}")


class Graph(namedtuple("Graph", "n adj automorphisms", defaults=((),))):
    """Immutable simple undirected graph, a named tuple.

    ``n`` is the vertex count and ``adj[v]`` the sorted tuple of neighbours
    of ``v``.  Instances should be built through :func:`build_graph`, which
    validates simplicity.  ``automorphisms`` (default ``()``) generate a
    group of automorphisms (image tuples, no identity);
    ``all_pairs_distances`` checks them before use.  Equality, hash and
    ``repr`` read ``(n, adj)`` only, and a graph equals only a ``Graph``.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:2] == other[:2]

    def __ne__(self, other):  # tuple's own would compare automorphisms too
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r}, adj={self.adj!r})"

    def edges(self):
        """Yield each undirected edge once, as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


class DistanceMatrix(namedtuple("DistanceMatrix", "dist diameter spheres")):
    """All-pairs shortest-path distances of a connected graph, a named tuple.

    ``dist[u][v]`` is the hop distance; ``diameter`` is the largest entry
    (0 for the one-vertex graph).  ``spheres[v][i - 1]`` counts the
    vertices at distance ``i`` from ``v``; rows are ``bytes`` unless some
    sphere has 256 vertices or more.
    """

    __slots__ = ()


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


def _is_id(part: str) -> bool:
    """Whether ``part`` is ``[0-9]+``, a vertex id."""
    return part.isascii() and part.isdigit()


def _is_integer(part: str) -> bool:
    """Whether ``part`` is ``-?[0-9]+``; ``int()`` also takes "+3", "1_0",
    " 4" and non-ASCII digits, which the grammar refuses."""
    return _is_id(part.removeprefix("-"))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    One ``u v`` pair of ids ``[0-9]+`` per line; ``#`` starts a comment; an
    optional first directive ``# n=<count>``, the count ``-?[0-9]+``, fixes
    the vertex count (otherwise it is one more than the largest id
    mentioned).  Blank lines are ignored.  A line outside this grammar
    raises ``ParseError``.
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
                if not _is_integer(body[2:]):
                    raise ParseError(line_no, raw)
                try:
                    explicit_n = int(body[2:])
                except ValueError:  # more digits than int() reads
                    raise ParseError(line_no, raw) from None
            continue
        if len(parts) != 2:
            raise ParseError(line_no, raw)
        a, b = parts
        # _is_id on both, inlined; all(map(_is_id, parts)) costs random_batch ~5%
        if not (a.isdigit() and b.isdigit() and a.isascii() and b.isascii()):
            raise ParseError(line_no, raw)
        try:
            u, v = int(a), int(b)
        except ValueError:  # more digits than int() reads
            raise ParseError(line_no, raw) from None
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


def _bfs_row(g: Graph, source: int):
    """Distances from one source; -1 marks unreachable vertices.

    The queue is a list read while it grows, until it holds every vertex.
    """
    n = g.n
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    adj = g.adj
    for u in queue:
        if len(queue) == n:  # every vertex found
            break
        du = dist[u] + 1
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


def _shift_rows(g: Graph, steps, first, far_row):
    """All distance rows of a connected graph, its diameter and its sphere
    rows, as ``DistanceMatrix`` takes them.  The BFS rows of 0 and of a
    vertex ``far`` farthest from it only pick the root, a vertex minimising
    ``max(d(0, v), d(far, v))``, and the length sphere rows are padded to.

    Every row is a shift.  The root starts from an all-unreached row,
    ``D[w] = n``; every other vertex ``v``, in BFS order from the root,
    from the finished row of a neighbour ``p`` one step closer to the root,
    ``D[w] = d(p, w) + 1``.  With ``D`` at 0 on the new source, a BFS
    lowers only the vertices ``y`` with ``D[y] > D[x] + 1`` (Ramalingam and
    Reps' incremental shortest paths, for a source that moves one edge).
    This is exact:

    - from the unreached row, ``n`` is the largest ``D`` and ``D[x] < n - 1``
      until every vertex is found, so the BFS is a plain one and its queue
      holds every vertex in BFS order, the order of the other rows;
    - from ``p``'s row, ``d(v, w) <= D[w] <= d(v, w) + 2``, and ``D[w]`` is
      exact where ``d(v, w) > d(p, w)``.  Every other ``w`` has a shortest
      path from ``v`` made only of such vertices (for ``u`` on it,
      ``d(v, u) + d(u, w) = d(v, w) <= d(p, w) <= d(p, u) + d(u, w)``), so
      in BFS order each of them is lowered to its exact distance;
    - ``D`` only decreases and ``D[x]`` never does along the queue, so once
      no vertex has ``D >= D[x] + 2`` none can be lowered later, and the
      BFS stops.  ``cnt[i]`` counts the vertices with ``D == i``: it starts
      as ``p``'s sphere row shifted one place (the root's: 1 at 0, ``n - 1``
      at ``n``) and moves one count down at each lowering, and ``top``, the
      largest ``i`` it holds, gives the stop.  On a complete graph the BFS
      stops after the source's neighbours, so a row costs ``O(n)``.

    ``cnt`` less the source is its sphere row and ``top`` its eccentricity,
    so the diameter is the longest sphere row.  ``v``'s orbit under
    ``g.automorphisms`` then shares its sphere row and eccentricity, and as
    ``d(s(u), x) = d(u, s^-1(x))``, each new image ``s(u)`` gathers the row
    of ``u`` through ``s^-1``.
    """
    n = g.n
    adj = g.adj
    up = steps[1:]
    reach = list(map(max, first, far_row))
    root = reach.index(min(reach))
    # sphere rows are padded to ecc(far) as made, and again at the end only if
    # the diameter is longer: padded copies would leave the rest as heap holes
    low = max(far_row)
    rows = [None] * n
    ecc = [0] * n
    spheres = [None] * n
    wide = False  # a sphere of 256 or more vertices
    D = [steps[n]] * n  # one buffer, refilled for each row; all unreached
    cnt = [1] + [0] * (n - 1) + [n - 1]
    top = n
    gens = [(s, itemgetter(*sorted(steps[:n], key=s.__getitem__))) for s in g.automorphisms]
    queue = order = [root]  # the root's BFS fills in the order of the rest
    for v in order:
        if spheres[v] is not None:  # filled with its orbit
            continue
        if v != root:  # start from a neighbour closer to the root
            depth = rows[root]
            for p in adj[v]:
                if depth[p] < depth[v]:
                    break
            D[:] = itemgetter(*rows[p])(up)
            cnt = [1, 1, *spheres[p]]
            cnt[2] -= 1
            top = ecc[p] + 1
            queue = [v]
        D[v] = 0
        for x in queue:
            while not cnt[top]:
                top -= 1
            dx = D[x]
            if top < dx + 2:
                break
            dy = up[dx]
            for y in adj[x]:
                d = D[y]
                if d > dy:
                    D[y] = dy
                    cnt[d] -= 1
                    cnt[dy] += 1
                    queue.append(y)
        rows[v] = tuple(D)
        ecc[v] = steps[top]
        row = cnt[1 : (top if top > low else low) + 1]
        if not wide:
            try:
                row = bytes(row)
            except ValueError:
                wide = True
        spheres[v] = row = tuple(row) if wide else row
        orbit = [v]
        for u in orbit:
            for s, gather in gens:
                w = s[u]
                if spheres[w] is None:
                    rows[w] = gather(rows[u])
                    spheres[w], ecc[w] = row, ecc[v]
                    orbit.append(w)
    diameter = max(ecc)
    pad = (0,) * diameter if wide else bytes(diameter)
    pack = type(pad)
    for v, row in enumerate(spheres):  # no copy where nothing changes
        spheres[v] = pack(row) + pad[len(row) :]
    return tuple(rows), diameter, tuple(spheres)


def _check_automorphisms(g: Graph) -> None:
    """Raise ``AssertionError`` unless each generator maps adj[v] onto adj[s(v)]."""
    for s in g.automorphisms:  # a leading 0 makes each gather a tuple
        if sorted(s) != list(range(g.n)) or any(
            g.adj[w] != tuple(sorted(itemgetter(0, *a)(s)[1:])) for w, a in zip(s, g.adj)
        ):
            raise AssertionError("a graph generator is not an automorphism")


def is_connected(g: Graph) -> bool:
    return -1 not in _bfs_row(g, 0)


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """All-pairs distances; raises ``DisconnectedError`` when any pair is
    unreachable.

    Vertex 0 reaches every vertex exactly when the graph is connected, so
    only its BFS row is checked.  The other rows come from ball growth when
    ``n <= 255`` and the diameter looks small against ``n + 2m`` (see
    below), else from the shift kernel, whose root the rows of 0 and of a
    vertex farthest from it pick; either way the rows share one int object
    per distance, and the sphere rows come with them.
    """
    n = g.n
    first = _bfs_row(g, 0)
    if -1 in first:
        raise DisconnectedError("no path from vertex 0 to some vertex")
    # ball growth costs n big-int reduces per unit of diameter; the shift
    # kernel a C-level copy of each row and a BFS over the vertices that get
    # closer (about half on cycles and grids, fewer on trees, few on dense
    # graphs).  Their time ratio tracks (n + 2m) / diameter.  Shift time over
    # ball time, min of 200 interleaved runs (2-vCPU host, CPython 3.11),
    # with (n + 2m) / ecc(x) in brackets: path:100 0.20 (3.0), cycle:20 0.72
    # (6.0), grid:4x5 0.90 (11.7), prism:8 0.97 (12.8), prism:40 0.89
    # (15.2), grid:6x6 0.98 (15.6), Petersen 1.21 (20), grid:8x8 1.14
    # (20.6), K4xK4 1.43 (56).  So balls win once 16 * diameter <= n + 2m.
    # The diameter is at most 2 * ecc(0), so 32 * ecc(0) <= n + 2m sends a
    # graph to balls at once, as it does the G(30, 1/4) graphs of the
    # random_batch benchmark (shift about 2x slower there).  Otherwise the
    # row of a vertex x farthest from 0 gives ecc(x), at most the diameter
    # and close to it when 0 is peripheral, and 16 * ecc(x) <= n + 2m sends
    # the graph to balls; otherwise the rows of 0 and x pick the shift
    # kernel's root.
    size = n + sum(map(len, g.adj))
    if n <= 255 and 32 * max(first) <= size:
        return DistanceMatrix(*_ball_rows(g))
    far = first.index(max(first))
    far_row = _bfs_row(g, far)
    if n <= 255 and 16 * max(far_row) <= size:
        return DistanceMatrix(*_ball_rows(g))
    _check_automorphisms(g)
    # steps[d] is d, so every row shares one int object per distance
    return DistanceMatrix(*_shift_rows(g, list(range(n + 1)), first, far_row))
