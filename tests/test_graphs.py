import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import idindex.cli as cli
import idindex.graphs as graphs
from idindex.graphs import (
    DisconnectedError,
    Graph,
    DuplicateEdgeError,
    EmptyInputError,
    GraphError,
    MAX_VERTICES,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    all_pairs_distances,
    build_graph,
    is_connected,
    parse_edge_list,
)
from idindex.families import FamilySpec, generate, parse_family_spec, random_connected_graph

from corpus import (
    all_connected_graphs,
    connected_corpus_up_to,
    counted_spheres,
    floyd_warshall,
    reference_parse_edge_list,
)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.adj == ((1,), (0,))
        assert len(list(g.edges())) == 1

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.adj == ((1, 2), (0, 2), (0, 1))

    def test_isolated_vertices_allowed_at_construction(self):
        g = build_graph(3, [(0, 1)])
        assert len(g.adj[2]) == 0
        assert not is_connected(g)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(0, 2)])
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(-1, 0)])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(EmptyInputError):
            build_graph(0, [])

    def test_vertex_limit(self):
        assert build_graph(MAX_VERTICES, []).n == MAX_VERTICES
        with pytest.raises(GraphError, match="^graph needs 2001 vertices, limit 2000$"):
            build_graph(MAX_VERTICES + 1, [])


class TestParseEdgeList:
    def test_path(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.adj == ((1,), (0, 2), (1,))

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n\n0 1\n# interlude\n1 2\n")
        assert g.n == 3

    def test_header_fixes_n(self):
        g = parse_edge_list("# n=4\n0 1\n1 2\n")
        assert g.n == 4
        assert len(g.adj[3]) == 0

    def test_header_too_small_is_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            parse_edge_list("# n=2\n0 1\n1 2\n")

    def test_garbage_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\none two\n")
        assert err.value.line_no == 2

    def test_three_tokens(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 2\n")

    def test_negative_id(self):
        with pytest.raises(ParseError):
            parse_edge_list("-1 0\n")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("+0 1\n", 1),
            ("0 1\n1_0 2\n", 2),
            ("0 1\n\n١ 2\n", 3),  # an Arabic-Indic one
            ("# n=+3\n0 1\n", 1),
            ("0 1\n1 -0\n", 2),
            ("# n= 3\n0 1\n", 1),
            ("# n=３\n0 1\n", 1),  # a full-width three
        ],
    )
    def test_outside_the_integer_grammar(self, text, line_no):
        # int() reads every one of these; ids are [0-9]+, a header -?[0-9]+
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line_no == line_no

    def test_id_longer_than_int_reads(self):
        # CPython refuses int/str conversions past 4,300 digits by default
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\n" + "9" * 5000 + " 1\n")
        assert err.value.line_no == 2

    def test_leading_zeros_are_accepted(self):
        assert parse_edge_list("03 1\n# n=x\n") == build_graph(4, [(3, 1)])
        assert parse_edge_list("# n=05\n0 1\n").n == 5

    @pytest.mark.parametrize("comment", ["# a_b + c - d", "# été ١"])
    def test_any_comment_is_accepted(self, comment):
        # only ids and the header follow the grammar, not comment text
        assert parse_edge_list(f"{comment}\n0 1\n1 2\n") == build_graph(3, [(0, 1), (1, 2)])

    def test_negative_header_is_an_empty_vertex_set(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("# n=-3\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("# only a comment\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("0 1\n1 0\n")


class TestAllPairsDistances:
    def test_path3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        dm = all_pairs_distances(g)
        assert dm.dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        assert dm.diameter == 2

    def test_single_vertex(self):
        dm = all_pairs_distances(build_graph(1, []))
        assert dm.dist == ((0,),)
        assert dm.diameter == 0

    def test_petersen_diameter(self):
        g, _ = generate(FamilySpec("petersen"))
        assert all_pairs_distances(g).diameter == 2

    @pytest.mark.parametrize("n,want", [(3, 2), (5, 3), (8, 5)])
    def test_prism_diameter(self, n, want):
        g, _ = generate(FamilySpec("prism", (n,)))
        assert all_pairs_distances(g).diameter == want

    @pytest.mark.parametrize("counts", [(1, 1), (2, 4, 2, 2, 4, 2), (1, 0, 0, 1)])
    def test_caterpillar_diameter_is_spine_plus_one(self, counts):
        g, _ = generate(FamilySpec("caterpillar", counts))
        assert all_pairs_distances(g).diameter == len(counts) + 1

    def test_rows_share_one_int_per_distance(self):
        # distances above 256 are not cached by the interpreter; the rows
        # hand out one shared object per value instead of one per entry
        dm = all_pairs_distances(generate(FamilySpec("path", (600,)))[0])
        assert dm.diameter == 599
        assert len({id(d) for row in dm.dist for d in row}) <= dm.diameter + 1

    def test_disconnected_raises(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedError, match="no path from vertex 0"):
            all_pairs_distances(g)

    def test_isolated_vertex_raises(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(DisconnectedError, match="no path from vertex 0"):
            all_pairs_distances(g)


def test_bfs_equals_floyd_warshall_exhaustive_small():
    # full agreement with the independent oracle on every connected graph n <= 4
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            dm = all_pairs_distances(g)
            assert [list(r) for r in dm.dist] == floyd_warshall(g)


@settings(max_examples=60, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_bfs_equals_floyd_warshall_random(n, seed):
    g = random_connected_graph(n, random.Random(seed))
    dm = all_pairs_distances(g)
    assert [list(r) for r in dm.dist] == floyd_warshall(g)


@settings(max_examples=60, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_distance_matrix_symmetry_and_diameter(n, seed):
    g = random_connected_graph(n, random.Random(seed))
    dm = all_pairs_distances(g)
    assert dm.diameter == max(max(row) for row in dm.dist)
    for u in range(n):
        assert dm.dist[u][u] == 0
        for v in range(n):
            assert dm.dist[u][v] == dm.dist[v][u]


# edge-list fuzz pieces: number spellings int() reads (signs, leading
# zeros, Arabic-Indic and full-width digits), comment and header forms,
# junk, and the whitespace str.split() and str.strip() agree on; ids stay
# below 10 so a drawn graph is small enough to solve
_NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "+2", "03", "\u0663", "\uff15"]
)
_JUNK = st.sampled_from(["#", "#0", "n=", "n=x", "x", "1.0", "2#", "-", "-1", ""])
_GAPS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u2003", ""])
# whitespace around a line may hold \x0c, which str.splitlines() splits at
_ENDS = st.sampled_from([" ", "\t", "\x0c", "\u2003", ""])


@st.composite
def _edge_list_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 16 + ["header", "comment", "junk", "blank"]))
        if kind == "edge":
            body = draw(_NUMBERS) + draw(_GAPS.filter(bool)) + draw(_NUMBERS)
        elif kind == "header":
            body = "#" + draw(_GAPS) + "n=" + draw(st.one_of(_NUMBERS, _JUNK))
        elif kind == "blank":
            body = ""
        else:
            fields = draw(st.lists(st.one_of(_NUMBERS, _JUNK), max_size=3))
            body = ("#" if kind == "comment" else "") + draw(_GAPS).join(fields)
        lines.append(draw(_ENDS) + body + draw(_ENDS))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestParseEdgeListFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_edge_list_texts())
    def test_matches_reference_parser(self, text):
        # an equal Graph, or the same exception type with the same message,
        # which names the line number or the vertex
        assert _parse_outcome(parse_edge_list, text) == _parse_outcome(
            reference_parse_edge_list, text
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_edge_list_texts())
    def test_compute_exits_cleanly(self, text):
        fd, path = tempfile.mkstemp(suffix=".txt")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["compute", "--input", path])
        finally:
            os.remove(path)
        assert code in (0, 2, 3, 4, 5), (text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()


def _bfs_rows(g):
    steps = list(range(g.n + 1))
    return [graphs._bfs_row(g, v, steps) for v in range(g.n)]


def _shift(g):
    """The shift kernel on ``g``, with its root picked by the rows of 0 and
    a vertex farthest from it, as ``all_pairs_distances`` calls it."""
    steps = list(range(g.n + 1))
    first = graphs._bfs_row(g, 0, steps)
    far = first.index(max(first))
    return graphs._shift_rows(g, steps, first, graphs._bfs_row(g, far, steps))


def _shift_rows(g):
    rows, diameter, _ = _shift(g)
    assert diameter == max(map(max, rows))
    return [list(row) for row in rows]


def _ball_rows(g):
    rows, diameter, _ = graphs._ball_rows(g)
    assert diameter == max(map(max, rows))
    return [list(row) for row in rows]


def _connected_gnp(n, p, rng):
    """G(n, p), with each part vertex 0 does not reach joined to it by one
    random edge."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    while True:
        g = build_graph(n, edges)
        row = graphs._bfs_row(g, 0, list(range(n + 1)))
        if -1 not in row:
            return g
        reached = [v for v in range(n) if row[v] >= 0]
        edges.append((rng.choice(reached), row.index(-1)))


class TestDistanceKernels:
    """Both kernels, called directly, against Floyd-Warshall or closed
    forms: ``all_pairs_distances`` picks one per graph, so each kernel
    would otherwise see only its own kind of graph."""

    def test_every_connected_graph_up_to_5(self):
        for g in connected_corpus_up_to(5):
            want = floyd_warshall(g)
            assert _shift_rows(g) == want
            assert _ball_rows(g) == want

    @pytest.mark.parametrize("n", [20, 35, 50, 80])
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25, 0.5, 0.8])
    def test_random_gnp(self, n, p):
        g = _connected_gnp(n, p, random.Random(n * 1000 + int(p * 100)))
        want = floyd_warshall(g)
        assert _shift_rows(g) == want
        assert _ball_rows(g) == want

    @pytest.mark.parametrize(
        "spec",
        ["cycle:9", "cycle:10", "cycle:31", "cycle:32", "caterpillar:1,0,0,1",
         "caterpillar:2,4,2,2,4,2", "caterpillar:5,5,5,5"],
    )
    def test_cycles_and_caterpillars(self, spec):
        g = generate(parse_family_spec(spec))[0]
        want = floyd_warshall(g)
        assert _shift_rows(g) == want
        assert _ball_rows(g) == want

    @pytest.mark.parametrize("n", [40, 90])
    def test_random_trees(self, n):
        rng = random.Random(n)
        g = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        want = floyd_warshall(g)
        assert _shift_rows(g) == want
        assert _ball_rows(g) == want

    @pytest.mark.parametrize(
        "edges,distance",
        [
            # K_255: every pair adjacent
            ([(u, v) for u in range(255) for v in range(u + 1, 255)],
             lambda u, v: int(u != v)),
            # the star K_{1,254} with centre 0
            ([(0, v) for v in range(1, 255)],
             lambda u, v: 0 if u == v else 1 if 0 in (u, v) else 2),
            # the path P_255: distance 254 is the most a byte lane takes
            ([(v, v + 1) for v in range(254)], lambda u, v: abs(u - v)),
        ],
        ids=["complete", "star", "path"],
    )
    def test_255_vertices(self, edges, distance):
        # closed forms stand in for Floyd-Warshall, cubic in n in pure Python
        g = build_graph(255, edges)
        want = [[distance(u, v) for v in range(255)] for u in range(255)]
        assert _shift_rows(g) == want
        assert _ball_rows(g) == want

    @pytest.mark.parametrize(
        "edges,n,distance,spheres",
        [
            ([(u, v) for u in range(256) for v in range(u + 1, 256)], 256,
             lambda u, v: int(u != v), [[255]] * 256),
            # the centre's sphere of 299 vertices makes every sphere row a tuple
            ([(0, v) for v in range(1, 300)], 300,
             lambda u, v: 0 if u == v else 1 if 0 in (u, v) else 2,
             [[299, 0]] + [[1, 298]] * 299),
        ],
        ids=["complete:256", "star:300"],
    )
    def test_shift_beyond_255_vertices(self, edges, n, distance, spheres):
        g = build_graph(n, edges)
        rows, diameter, got = _shift(g)
        assert [list(row) for row in rows] == [
            [distance(u, v) for v in range(n)] for u in range(n)
        ]
        assert diameter == len(spheres[0])
        assert {type(row) for row in got} == {tuple if n == 300 else bytes}
        assert [list(row) for row in got] == spheres

    def test_shift_wide_spheres_past_ecc_far(self):
        # a hub of 260 leaves makes every sphere row a tuple; where the
        # diameter is longer than ecc(far), the rows padded to ecc(far) as
        # they were made are padded again
        rng = random.Random(1)
        longer = 0
        for _ in range(15):
            k = rng.randint(4, 9)
            edges = {(rng.randrange(v), v) for v in range(1, k)}
            edges |= {(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.35}
            hub = rng.randrange(k)
            g = build_graph(k + 260, edges | {(hub, v) for v in range(k, k + 260)})
            want = _bfs_rows(g)
            rows, diameter, spheres = _shift(g)
            assert [list(row) for row in rows] == want
            assert {type(row) for row in spheres} == {tuple}
            assert [list(row) for row in spheres] == counted_spheres(want)
            longer += diameter > max(want[want[0].index(max(want[0]))])
        assert longer

    def test_ball_rows_share_one_int_per_distance(self):
        g, _ = generate(parse_family_spec("path:255"))
        rows, _, _ = graphs._ball_rows(g)
        assert len({id(d) for row in rows for d in row}) == 255


class TestOrbitRows:
    """The shift kernel on family graphs, which copy rows along the orbits
    of their automorphisms, against the same adjacency without them."""

    SMALL = [
        "path:2", "path:9", "path:30", "cycle:3", "cycle:9", "cycle:31",
        "complete:2", "complete:3", "complete:12", "grid:2x2", "grid:4x5",
        "grid:5x5", "prism:3", "prism:8", "product:(cycle:5)x(cycle:5)",
        "product:(complete:4)x(complete:5)", "product:(path:3)x(cycle:6)",
        "product:(product:(path:2)x(path:3))x(product:(path:2)x(path:3))",
        "multipartite:1,5", "multipartite:3,2,3", "multipartite:1,1,1",
    ]

    @staticmethod
    def as_lists(result):
        rows, diameter, spheres = result
        return [list(row) for row in rows], diameter, [list(row) for row in spheres]

    @pytest.mark.parametrize("spec", SMALL)
    def test_small_against_floyd_warshall(self, spec):
        g = generate(parse_family_spec(spec))[0]
        got = self.as_lists(_shift(g))
        want = floyd_warshall(g)
        assert got == (want, max(map(max, want)), counted_spheres(want))
        assert got == self.as_lists(_shift(Graph(g.n, g.adj)))
        assert all_pairs_distances(g) == all_pairs_distances(Graph(g.n, g.adj))

    @pytest.mark.parametrize(
        "spec",
        [
            "path:600", "cycle:120", "complete:300", "prism:40", "grid:12x30",
            "multipartite:150,120,150",
        ],
    )
    def test_large_against_the_bare_adjacency(self, spec):
        g = generate(parse_family_spec(spec))[0]
        dm, bare = all_pairs_distances(g), all_pairs_distances(Graph(g.n, g.adj))
        assert dm == bare
        assert list(map(type, dm.spheres)) == list(map(type, bare.spheres))

    def test_vertex_transitive_rows_share_one_sphere_row(self):
        dm = all_pairs_distances(generate(parse_family_spec("cycle:120"))[0])
        assert len(set(map(id, dm.spheres))) == 1
        assert len({id(d) for row in dm.dist for d in row}) == dm.diameter + 1

    def test_a_non_automorphism_is_refused(self):
        g = generate(parse_family_spec("cycle:120"))[0]
        r = tuple(range(120))
        for s in [r[1:2] + r[:1] + r[2:], r[:-1] + (0,), r[:-1], r + (120,)]:
            with pytest.raises(AssertionError, match="not an automorphism"):
                all_pairs_distances(Graph(g.n, g.adj, (s,)))


class TestSphereRows:
    """Both kernels' sphere rows against a direct count over Floyd-Warshall
    distances or closed forms."""

    @staticmethod
    def kernel_spheres(g):
        """The sphere rows of ball growth and of the shift kernel, as lists."""
        by_shift = _shift(g)[2]
        by_balls = graphs._ball_rows(g)[2]
        assert {type(row) for row in by_balls + by_shift} == {bytes}
        return [list(row) for row in by_balls], [list(row) for row in by_shift]

    def test_every_connected_graph_up_to_5(self):
        for g in connected_corpus_up_to(5):
            want = counted_spheres(floyd_warshall(g))
            assert self.kernel_spheres(g) == (want, want)
            assert [list(row) for row in all_pairs_distances(g).spheres] == want

    @pytest.mark.parametrize("n", [20, 50, 80])
    @pytest.mark.parametrize("p", [0.05, 0.25, 0.8])
    def test_random_gnp(self, n, p):
        g = _connected_gnp(n, p, random.Random(n * 1000 + int(p * 100)))
        want = counted_spheres(floyd_warshall(g))
        assert self.kernel_spheres(g) == (want, want)

    def test_255_vertex_star(self):
        # the centre's sphere of 254 vertices is the most a byte holds
        g = build_graph(255, [(0, v) for v in range(1, 255)])
        want = [[254, 0]] + [[1, 253]] * 254
        assert self.kernel_spheres(g) == (want, want)

    def test_bfs_sphere_of_256_or_more_keeps_tuples(self):
        g = build_graph(300, [(0, v) for v in range(1, 300)])
        spheres = all_pairs_distances(g).spheres
        assert spheres == ((299, 0),) + ((1, 298),) * 299

    def test_bfs_beyond_255_vertices_keeps_bytes(self):
        g, _ = generate(parse_family_spec("path:300"))
        dm = all_pairs_distances(g)
        want = [[int(0 <= v - i) + int(v + i < 300) for i in range(1, 300)] for v in range(300)]
        assert {type(row) for row in dm.spheres} == {bytes}
        assert [list(row) for row in dm.spheres] == want


def _kernel(monkeypatch, g):
    """The kernel ``all_pairs_distances`` picks for ``g``: ball growth, or
    the shift kernel, a BFS from each vertex that starts from its parent's
    row."""
    calls = []
    real = graphs._ball_rows
    monkeypatch.setattr(graphs, "_ball_rows", lambda g: calls.append(g) or real(g))
    all_pairs_distances(g)
    return "balls" if calls else "bfs"


class _CountedAdj(tuple):
    """An adjacency tuple that counts the lists read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def _adjacency_reads(g):
    """How many adjacency lists the shift kernel reads on ``g``, with the
    BFS rows of 0 and of a vertex farthest from it."""
    counted = graphs.Graph(g.n, _CountedAdj(g.adj))
    _shift(counted)
    return counted.adj.reads


class TestKernelSelection:
    @pytest.mark.parametrize(
        "spec",
        [
            # 32 * ecc(0) <= n + 2m
            "complete:30",
            "product:(cycle:7)x(cycle:7)",
            "product:(complete:4)x(complete:5)",
            "product:(petersen)x(path:2)",
            # the 5-cube
            "product:(product:(product:(product:(path:2)x(path:2))x(path:2))x(path:2))x(path:2)",
            # chosen by the row of a vertex x farthest from 0, 16 * ecc(x) <= n + 2m
            "grid:12x12",
            "petersen",
        ],
    )
    def test_ball_growth(self, monkeypatch, spec):
        assert _kernel(monkeypatch, generate(parse_family_spec(spec))[0]) == "balls"

    def test_ball_growth_on_random_batch_graphs(self, monkeypatch):
        rng = random.Random(0)
        for _ in range(10):
            g = _connected_gnp(30, 0.25, rng)
            assert _kernel(monkeypatch, g) == "balls"

    # prism:8 sits just past the boundary, 16 * ecc(x) = 80 > n + 2m = 64
    @pytest.mark.parametrize(
        "spec", ["cycle:120", "path:600", "complete:256", "prism:8", "grid:4x5", "cycle:20"]
    )
    def test_bfs(self, monkeypatch, spec):
        assert _kernel(monkeypatch, generate(parse_family_spec(spec))[0]) == "bfs"

    @staticmethod
    def _bfs_sources(monkeypatch, g):
        """The sources of the full BFS rows ``all_pairs_distances`` takes on
        ``g``, after checking its rows against a BFS from every vertex."""
        want = _bfs_rows(g)
        sources = []
        real = graphs._bfs_row
        monkeypatch.setattr(
            graphs, "_bfs_row", lambda g, v, steps: sources.append(v) or real(g, v, steps)
        )
        assert [list(row) for row in all_pairs_distances(g).dist] == want
        return sources

    @pytest.mark.parametrize("spec", ["cycle:120", "petersen", "path:200", "path:600"])
    def test_full_bfs_only_from_0_and_far(self, monkeypatch, spec):
        # a full BFS row is taken from vertex 0, then from the first vertex
        # farthest from it; the shift kernel's root, which minimises the
        # larger of the two distances, shifts from an all-unreached row
        g = generate(parse_family_spec(spec))[0]
        first = graphs._bfs_row(g, 0, list(range(g.n + 1)))
        far = first.index(max(first))
        assert self._bfs_sources(monkeypatch, g) == [0, far]

    def test_ball_growth_at_32_times_ecc_0(self, monkeypatch):
        # the star K_{1,9} centred at 0 plus the edges (2, 3) and (4, 5):
        # n + 2m = 32 = 32 * ecc(0), so ball growth takes it at once
        g = build_graph(10, [(0, v) for v in range(1, 10)] + [(2, 3), (4, 5)])
        assert self._bfs_sources(monkeypatch, g) == [0]

    def test_ball_growth_at_16_times_ecc_far(self, monkeypatch):
        # the same star centred at 1, so that 0 is a leaf: 32 * ecc(0) = 64
        # > n + 2m = 32, and the first vertex farthest from 0, vertex 2,
        # has 16 * ecc(2) = 32
        edges = [(1, v) for v in range(10) if v != 1] + [(2, 3), (4, 5)]
        assert _kernel(monkeypatch, build_graph(10, edges)) == "balls"

    @pytest.mark.parametrize("n", [256, 600])
    def test_complete_graph_row_reads_its_own_adjacency_only(self, n):
        # the BFS of each row stops after the new source's neighbours, so a
        # row costs O(n): the full BFS rows of 0 and x stop once the first
        # list read finds every vertex, and every row reads its own list
        # twice (parent, then lowering), the root's once
        g = generate(FamilySpec("complete", (n,)))[0]
        assert _adjacency_reads(g) <= 5 * n

    @pytest.mark.parametrize(
        "spec,reads", [("cycle:120", 7494), ("prism:40", 3391), ("complete:256", 513)]
    )
    def test_exact_adjacency_reads(self, spec, reads):
        # each row's BFS stops once no vertex has D >= D[x] + 2; a stop one
        # level later reads more lists on cycles and prisms
        assert _adjacency_reads(generate(parse_family_spec(spec))[0]) == reads

    @pytest.mark.parametrize("spec,reads", [("complete:300", 1), ("path:50", 49)])
    def test_bfs_row_stops_once_every_vertex_is_found(self, spec, reads):
        # from 0, complete:300 finds every vertex at its first list, path:50
        # at its 49th
        g = generate(parse_family_spec(spec))[0]
        counted = graphs.Graph(g.n, _CountedAdj(g.adj))
        assert graphs._bfs_row(counted, 0, list(range(g.n + 1))) == _bfs_rows(g)[0]
        assert counted.adj.reads == reads

    @pytest.mark.parametrize("n", [301, 600])
    def test_path_rows_lower_only_the_far_side(self, n):
        # moving the source one step away from the central root brings
        # closer only the vertices beyond it, about n^2 / 4 reads in all; a
        # BFS that lowered vertices already at their distance would read
        # about n per row
        g = generate(FamilySpec("path", (n,)))[0]
        assert _adjacency_reads(g) <= n * n // 4 + 5 * n
