import pytest
from hypothesis import given, settings, strategies as st

from idindex.graphs import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyInputError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    all_pairs_distances,
    build_graph,
    is_connected,
    parse_edge_list,
)
from idindex.families import FamilySpec, generate, random_connected_graph

from corpus import all_connected_graphs, floyd_warshall

import random


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
