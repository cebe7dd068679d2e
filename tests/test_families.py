import itertools
import random

import pytest

import idindex.families as families
from idindex.families import (
    FamilySpec,
    InvalidSpecError,
    generate,
    parse_family_spec,
    random_connected_graph,
)
from idindex.graphs import MAX_VERTICES, GraphError, all_pairs_distances


class TestParseFamilySpec:
    @pytest.mark.parametrize(
        "text,kind,params",
        [
            ("path:7", "path", (7,)),
            ("cycle:6", "cycle", (6,)),
            ("complete:4", "complete", (4,)),
            ("multipartite:1,2,3", "multipartite", (1, 2, 3)),
            ("grid:3x4", "grid", (3, 4)),
            ("prism:5", "prism", (5,)),
            ("petersen", "petersen", ()),
            ("caterpillar:2,4,2,2,4,2", "caterpillar", (2, 4, 2, 2, 4, 2)),
        ],
    )
    def test_grammar(self, text, kind, params):
        spec = parse_family_spec(text)
        assert spec.kind == kind
        assert spec.params == params

    def test_product_grammar(self):
        spec = parse_family_spec("product:(cycle:5)x(path:2)")
        assert spec.kind == "product"
        assert spec.params == (FamilySpec("cycle", (5,)), FamilySpec("path", (2,)))

    def test_nested_product(self):
        spec = parse_family_spec("product:(product:(path:2)x(path:3))x(path:2)")
        inner = FamilySpec("product", (FamilySpec("path", (2,)), FamilySpec("path", (3,))))
        assert spec.params == (inner, FamilySpec("path", (2,)))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "path",
            "path:",
            "path:0",
            "path:x",
            "path:1,2",
            "cycle:2",
            "prism:2",
            "complete:0",
            "grid:3",
            "grid:0x2",
            "grid:3x4x5",
            "multipartite:3",
            "multipartite:1,0",
            "caterpillar:0,1",
            "caterpillar:1,0",
            "caterpillar:-1",
            "petersen:5",
            "torus:3",
            "product:(cycle:5)",
            "product:cycle:5xpath:2",
            "product:(cycle:5)x(path:2",
            "product:path:2x(path:2)",  # no leading "("
            "product:(path:2)(path:2)",  # no "x" after the first factor
            "product:(path:2x(path:2)",  # the first factor never closes
            "product:(path:2)xpath:2",  # a right factor without parentheses
            "product:(path:2))((path:2)",  # ")(" between the factors
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_family_spec(text)
        kind, _, rest = text.partition(":")
        if kind == "product":  # every malformed product here has the wrong shape
            assert str(excinfo.value) == f"product wants (A)x(B), got {rest!r}"

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("caterpillar", ()),
            FamilySpec("product", (1, 2)),
            # would label as plain "petersen", which parses to another spec
            FamilySpec("petersen", (3,)),
        ],
    )
    def test_generate_rejects_unparsed_specs(self, spec):
        # specs built directly, not through the grammar, are validated too
        with pytest.raises(InvalidSpecError):
            generate(spec)

    @pytest.mark.parametrize(
        "text",
        [
            "path:7",
            "grid:3x4",
            "petersen",
            "multipartite:1,2,3",
            "caterpillar:2,0,2",
            "product:(cycle:5)x(path:2)",
            "product:(product:(product:(path:2)x(cycle:3))x(path:2))x(petersen)",
        ],
    )
    def test_label_round_trip(self, text):
        spec = parse_family_spec(text)
        assert spec.label() == text
        assert parse_family_spec(spec.label()) == spec


class TestShapes:
    def test_path(self):
        g, roles = generate(FamilySpec("path", (4,)))
        assert g.n == 4 and len(list(g.edges())) == 3
        assert roles == (("path", 0), ("path", 1), ("path", 2), ("path", 3))

    def test_cycle(self):
        g, _ = generate(FamilySpec("cycle", (5,)))
        assert g.n == 5 and len(list(g.edges())) == 5
        assert all(len(g.adj[v]) == 2 for v in range(5))

    def test_complete(self):
        g, _ = generate(FamilySpec("complete", (6,)))
        assert len(list(g.edges())) == 15

    def test_single_vertex(self):
        g, _ = generate(FamilySpec("path", (1,)))
        assert g.n == 1 and len(list(g.edges())) == 0

    def test_multipartite_blocks_consecutive(self):
        g, roles = generate(FamilySpec("multipartite", (1, 2, 3)))
        assert g.n == 6
        # parts occupy consecutive ids, in the given order
        assert [r[:2] for r in roles] == [
            ("part", 0),
            ("part", 1),
            ("part", 1),
            ("part", 2),
            ("part", 2),
            ("part", 2),
        ]
        # edges exactly between distinct parts
        assert len(list(g.edges())) == 1 * 2 + 1 * 3 + 2 * 3
        assert 2 not in g.adj[1] and 1 in g.adj[0]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4), (4, 4)])
    def test_grid_counts(self, m, n):
        g, _ = generate(FamilySpec("grid", (m, n)))
        assert g.n == m * n
        assert len(list(g.edges())) == m * (n - 1) + n * (m - 1)

    def test_grid_2x2_is_a_4cycle(self):
        g, _ = generate(FamilySpec("grid", (2, 2)))
        c4, _ = generate(FamilySpec("cycle", (4,)))
        for perm in itertools.permutations(range(4)):
            mapped = {frozenset((perm[u], perm[v])) for u, v in g.edges()}
            if mapped == {frozenset(e) for e in c4.edges()}:
                return
        raise AssertionError("grid 2x2 not isomorphic to cycle 4")

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_prism_equals_cycle_times_path(self, n):
        g, _ = generate(FamilySpec("prism", (n,)))
        prod, _ = generate(
            FamilySpec(
                "product", (FamilySpec("cycle", (n,)), FamilySpec("path", (2,)))
            )
        )
        assert g.adj == prod.adj  # exact adjacency, not just isomorphism

    def test_product_numbering(self):
        # pair (g, h) gets id h * |G| + g
        spec = FamilySpec("product", (FamilySpec("path", (3,)), FamilySpec("path", (2,))))
        g, roles = generate(spec)
        assert g.n == 6
        assert roles[4] == ("product", ("path", 1), ("path", 1))
        assert 1 in g.adj[4] and 3 in g.adj[4] and 5 in g.adj[4]

    def test_petersen(self):
        g, roles = generate(FamilySpec("petersen"))
        assert g.n == 10 and len(list(g.edges())) == 15
        assert all(len(g.adj[v]) == 3 for v in range(10))
        assert roles[0] == ("outer", 0) and roles[9] == ("inner", 4)

    def test_caterpillar_layout(self):
        g, roles = generate(FamilySpec("caterpillar", (2, 3, 2, 0, 3)))
        assert g.n == 5 + 10
        # spine first, then leaves grouped by spine index ascending
        assert [r[0] for r in roles] == ["spine"] * 5 + ["leaf"] * 10
        assert roles[5] == ("leaf", 0, 0)
        assert roles[14] == ("leaf", 4, 2)
        assert set(g.adj[5]) == {0}

    def test_caterpillar_degree_split(self):
        g, roles = generate(FamilySpec("caterpillar", (1, 2, 0, 1)))
        for v, role in enumerate(roles):
            if role[0] == "spine":
                assert len(g.adj[v]) >= 2
            else:
                assert len(g.adj[v]) == 1

    def test_caterpillar_single_spine_is_star(self):
        g, _ = generate(FamilySpec("caterpillar", (3,)))
        assert g.n == 4
        assert len(g.adj[0]) == 3 and all(len(g.adj[v]) == 1 for v in range(1, 4))

    def test_every_vertex_has_one_role(self):
        for text in ["path:5", "grid:3x3", "petersen", "caterpillar:1,2,1",
                     "multipartite:2,2", "prism:4"]:
            g, roles = generate(parse_family_spec(text))
            assert len(roles) == g.n

    @pytest.mark.parametrize(
        "text",
        [
            "path:1",
            "path:9",
            "cycle:3",
            "complete:5",
            "multipartite:2,3,5",
            "grid:4x2",
            "prism:6",
            "petersen",
            "caterpillar:2,4,2,2,4,2",
            "product:(cycle:4)x(cycle:3)",
        ],
    )
    def test_generated_graphs_are_connected(self, text):
        g, _ = generate(parse_family_spec(text))
        all_pairs_distances(g)  # raises if disconnected


class TestVertexLimit:
    # (largest spec of its kind within the limit, smallest above it)
    EDGES = [
        ("path:2000", "path:2001"),
        ("cycle:2000", "cycle:2001"),
        ("complete:2000", "complete:2001"),
        ("prism:1000", "prism:1001"),
        ("grid:40x50", "grid:41x50"),
        ("multipartite:1000,1000", "multipartite:1000,1001"),
        ("caterpillar:1,1995,1", "caterpillar:1,1996,1"),
        ("product:(path:40)x(path:50)", "product:(path:40)x(path:51)"),
    ]

    @pytest.mark.parametrize("within,above", EDGES)
    def test_checked_on_the_parameters(self, within, above):
        assert MAX_VERTICES == 2000
        assert families._vertex_count(parse_family_spec(within)) == MAX_VERTICES
        with pytest.raises(GraphError, match=r"^graph needs 20\d\d vertices, limit 2000$"):
            parse_family_spec(above)

    @pytest.mark.parametrize(
        "text",
        [
            "path:1",
            "cycle:7",
            "complete:4",
            "multipartite:1,2,3",
            "grid:3x5",
            "prism:4",
            "petersen",
            "caterpillar:2,0,3",
            "product:(product:(path:2)x(cycle:3))x(multipartite:1,2)",
        ],
    )
    def test_count_matches_the_generated_graph(self, text):
        spec = parse_family_spec(text)
        assert families._vertex_count(spec) == generate(spec)[0].n

    def test_random_graph_draws_nothing_above_the_limit(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(GraphError, match="^graph needs 2001 vertices, limit 2000$"):
            random_connected_graph(MAX_VERTICES + 1, rng)
        assert rng.getstate() == state
