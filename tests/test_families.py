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
from idindex import graphs
from idindex.graphs import (
    MAX_VERTICES,
    Graph,
    GraphError,
    all_pairs_distances,
    build_graph,
    parse_edge_list,
)


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
        else:
            assert kind in str(excinfo.value)

    # int() takes each of these; the grammar's parameters are -?[0-9]+ in ASCII
    @pytest.mark.parametrize(
        "text",
        ["path:1_0", "path:+3", "path:\u0663", "path:\uff13", "path:\u00b2", "path:-",
         "path:--3", "grid:3x+4", "path: 4", "multipartite:1, 2", "caterpillar:1,-0_1"],
    )
    def test_rejects_integers_outside_the_grammar(self, text):
        with pytest.raises(InvalidSpecError) as excinfo:
            parse_family_spec(text)
        assert str(excinfo.value) == f"non-integer parameter in {text!r}"

    @pytest.mark.parametrize(
        "text,spec,message",
        [
            ("path:0", ("path", (0,)), "path needs 1 parameter >= 1"),
            ("cycle:2", ("cycle", (2,)), "cycle needs 1 parameter >= 3"),
            ("multipartite:3", ("multipartite", (3,)), "multipartite needs at least 2 parameters >= 1"),
            ("caterpillar:-1", ("caterpillar", (-1,)), "caterpillar needs at least 1 parameter >= 0"),
            ("caterpillar:1,0", ("caterpillar", (1, 0)), "caterpillar needs a leaf at each end of its spine"),
            ("grid:3x4x5", ("grid", (3, 4, 5)), "grid needs 2 parameters >= 1"),
            ("petersen:5", ("petersen", (5,)), "petersen needs 0 parameters"),
        ],
    )
    def test_record_refuses_what_the_parser_splits(self, text, spec, message):
        # the parser only splits; the spec made from its split breaks the
        # rule of its kind's record, the same as when it is made directly
        for make in (lambda: parse_family_spec(text), lambda: FamilySpec(*spec)):
            with pytest.raises(InvalidSpecError) as excinfo:
                make()
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "spec",
        [
            ("caterpillar", ()),
            ("product", (1, 2)),
            # would label as plain "petersen", which parses to another spec
            ("petersen", (3,)),
            # parameters are a tuple of exact ints, bools excluded
            ("path", ("3",)),
            ("cycle", (None,)),
            ("multipartite", ([1], 2)),
            ("path", (2.5,)),
            ("grid", (True, 2)),
            ("path", [3]),
            ("product", None),
        ],
    )
    def test_generate_rejects_unparsed_specs(self, spec):
        # specs built directly, not through the grammar, are validated too:
        # making one raises
        with pytest.raises(InvalidSpecError):
            generate(FamilySpec(*spec))

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
            "cycle:6",
            "complete:4",
            "prism:5",
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
        assert families.vertex_count(parse_family_spec(within)) == MAX_VERTICES
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
        assert families.vertex_count(spec) == generate(spec)[0].n

    def test_random_graph_draws_nothing_above_the_limit(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(GraphError, match="^graph needs 2001 vertices, limit 2000$"):
            random_connected_graph(MAX_VERTICES + 1, rng)
        assert rng.getstate() == state


def _orbit(g, v):
    """The orbit of ``v`` under the group ``g.automorphisms`` generates."""
    orbit = {v}
    todo = [v]
    for u in todo:
        for s in g.automorphisms:
            if s[u] not in orbit:
                orbit.add(s[u])
                todo.append(s[u])
    return orbit


class TestAutomorphisms:
    # products of equal factors, of unequal factors and of nested factors
    PRODUCTS = [
        "grid:1x1", "grid:1x6", "grid:2x2", "grid:3x3", "grid:4x6", "grid:5x5",
        "prism:3", "prism:4", "prism:9",
        "product:(cycle:5)x(cycle:5)",
        "product:(complete:4)x(complete:4)",
        "product:(complete:4)x(complete:5)",
        "product:(path:3)x(cycle:4)",
        "product:(petersen)x(path:2)",
        "product:(multipartite:1,2)x(path:3)",
        "product:(product:(path:2)x(path:2))x(product:(path:2)x(path:2))",
        "product:(product:(cycle:3)x(path:2))x(complete:3)",
        "product:(path:2)x(product:(path:2)x(product:(path:2)x(path:2)))",
    ]
    SPECS = [
        *(f"path:{n}" for n in range(1, 51)),
        *(f"cycle:{n}" for n in range(3, 51)),
        *(f"complete:{n}" for n in range(1, 31)),
        # one part, equal parts apart and together, all parts of one vertex
        "multipartite:1,5", "multipartite:3,2,3", "multipartite:2,2,3,2",
        "multipartite:1,1,1,1", "multipartite:4,1,4,1,2",
        *PRODUCTS,
    ]

    def test_every_generator_passes_the_check(self):
        for text in self.SPECS:
            g, _ = generate(parse_family_spec(text))
            graphs._check_automorphisms(g)
            # and, on the edge set, the same question asked another way
            edges = {frozenset(e) for e in g.edges()}
            for s in g.automorphisms:
                assert type(s) is tuple and sorted(s) == list(range(g.n)), text
                assert s != tuple(range(g.n)), text  # no identity
                assert {frozenset((s[u], s[v])) for u, v in edges} == edges, text

    @pytest.mark.parametrize(
        "text,orbits",
        [
            ("path:1", 1),
            ("path:6", 3),
            ("path:7", 4),
            ("cycle:9", 1),
            ("complete:2", 1),
            ("complete:7", 1),
            ("prism:5", 1),
            ("product:(cycle:5)x(cycle:5)", 1),
            ("product:(complete:4)x(complete:5)", 1),
            # corners, edge cells and the centre
            ("grid:3x3", 3),
            # without the swap of unequal factors: corners, two kinds of side
            # cell, inner cells
            ("grid:3x4", 4),
            ("product:(product:(path:2)x(path:2))x(product:(path:2)x(path:2))", 1),
            # one orbit per part size
            ("multipartite:2,3", 2),
            ("multipartite:3,2,3", 2),
            ("multipartite:1,1,1,1", 1),
            ("multipartite:4,1,4,1,2", 3),
        ],
    )
    def test_orbits(self, text, orbits):
        g, _ = generate(parse_family_spec(text))
        assert len({frozenset(_orbit(g, v)) for v in range(g.n)}) == orbits

    def test_complete_graph_symmetric_group(self):
        # the transposition (0 1) and the rotation generate every permutation
        g, _ = generate(FamilySpec("complete", (4,)))
        group = {tuple(range(4))}
        todo = list(group)
        for p in todo:
            for s in g.automorphisms:
                q = tuple(s[x] for x in p)
                if q not in group:
                    group.add(q)
                    todo.append(q)
        assert len(group) == 24

    @pytest.mark.parametrize(
        "text", ["petersen", "caterpillar:2,0,3"]
    )
    def test_other_kinds_carry_none(self, text):
        assert generate(parse_family_spec(text))[0].automorphisms == ()

    def test_random_and_parsed_graphs_carry_none(self):
        assert random_connected_graph(8, random.Random(0)).automorphisms == ()
        assert parse_edge_list("0 1\n1 2\n2 0\n").automorphisms == ()

    def test_complete_adjacency_equals_build_graph(self):
        for n in range(1, 41):
            g, _ = generate(FamilySpec("complete", (n,)))
            built = build_graph(n, itertools.combinations(range(n), 2))
            assert g.adj == built.adj

    def test_multipartite_adjacency_equals_build_graph(self):
        # every list of 2 to 4 part sizes from 1 to 5, from the edge list
        # that joins each pair of vertices in different parts
        for k in (2, 3, 4):
            for sizes in itertools.product(range(1, 6), repeat=k):
                g, roles = generate(FamilySpec("multipartite", sizes))
                part = [p for p, m in enumerate(sizes) for _ in range(m)]
                n = len(part)
                pairs = itertools.combinations(range(n), 2)
                edges = [(u, v) for u, v in pairs if part[u] != part[v]]
                assert g.adj == build_graph(n, edges).adj
                assert roles == tuple(("part", p, part[:v].count(p)) for v, p in enumerate(part))

    @pytest.mark.parametrize("text", ["path:5", "cycle:6", "complete:4", "grid:3x3"])
    def test_equality_hash_and_repr_ignore_automorphisms(self, text):
        g, _ = generate(parse_family_spec(text))
        parsed = parse_edge_list("".join(f"{u} {v}\n" for u, v in g.edges()))
        bare = Graph(g.n, g.adj)
        assert g.automorphisms and not parsed.automorphisms
        assert g == parsed == bare
        assert hash(g) == hash(parsed) == hash(bare)
        assert repr(g) == repr(parsed) == repr(bare)
