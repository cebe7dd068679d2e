import itertools

import pytest

import idindex.constructions as constructions
import idindex.families as families
from idindex.constructions import (
    SpecMismatchError,
    construct_assignment,
    expected_id_index,
    universal_assignment,
)
from idindex.families import FamilySpec, generate, parse_family_spec
from idindex.graphs import all_pairs_distances
from idindex.solvers import id_index_exact
from idindex.strings_codes import NoRedVertexError, is_distinguishing, string_table

from corpus import (
    NotZeroOneError,
    ZeroScaleError,
    affine_transform,
    normalize_two_valued,
    ranks_to_coloring,
)


def spec_for(text):
    return parse_family_spec(text)


def table_for(spec, f):
    g, _ = generate(spec)
    return string_table(all_pairs_distances(g), f)


class TestMultipartiteRoute:
    def test_strictly_increasing_parts(self):
        f = construct_assignment(spec_for("multipartite:1,2,3"))
        assert f == (1, 1, 2, 1, 2, 3)
        assert len(set(f)) == 3
        assert is_distinguishing(table_for(spec_for("multipartite:1,2,3"), f))

    def test_balanced_bipartite_uses_shifted_run(self):
        f = construct_assignment(spec_for("multipartite:2,2"))
        assert f == (1, 2, 2, 3)
        assert len(set(f)) == 3

    def test_balanced_bipartite_strings(self):
        f = construct_assignment(spec_for("multipartite:2,2"))
        table = table_for(spec_for("multipartite:2,2"), f)
        assert table == [(5, 2), (5, 1), (3, 3), (3, 2)]

    @pytest.mark.parametrize("text", ["multipartite:1,1,2", "multipartite:3,2",
                                      "multipartite:2,2,3", "multipartite:2,2,2"])
    def test_no_route_for_other_shapes(self, text):
        with pytest.raises(SpecMismatchError):
            construct_assignment(spec_for(text))

    @pytest.mark.parametrize(
        "text", ["multipartite:1,2", "multipartite:2,3,4", "multipartite:3,3"]
    )
    def test_value_count_matches_known_optimum(self, text):
        spec = spec_for(text)
        f = construct_assignment(spec)
        assert len(set(f)) == expected_id_index(spec)
        assert is_distinguishing(table_for(spec, f))


class TestCaterpillarRoute:
    def test_symmetric_example_ranks(self):
        spec = spec_for("caterpillar:2,4,2,2,4,2")
        f = construct_assignment(spec)
        # spine: 2 then all 1; per spine vertex, leaves count up from 1
        assert f[:6] == (2, 1, 1, 1, 1, 1)
        assert f[6:8] == (1, 2)
        assert f[8:12] == (1, 2, 3, 4)
        assert len(set(f)) == 4

    def test_quoted_strings_of_middle_spine(self):
        spec = spec_for("caterpillar:2,4,2,2,4,2")
        f = construct_assignment(spec)
        table = table_for(spec, f)
        assert table[2] == (5, 16, 14, 3, 0, 0, 0)
        assert table[3] == (5, 15, 15, 3, 0, 0, 0)

    def test_identifies_and_matches_formula(self):
        for text in ["caterpillar:1,1", "caterpillar:3,3", "caterpillar:2,0,2",
                     "caterpillar:1,2,2,1", "caterpillar:2,4,2,2,4,2"]:
            spec = spec_for(text)
            f = construct_assignment(spec)
            assert is_distinguishing(table_for(spec, f))
            assert len(set(f)) == expected_id_index(spec)

    def test_ranks_follow_the_generated_layout(self):
        # spine vertex 0 gets 2, the other spine vertices 1, and leaf j of a
        # spine vertex j + 1, read from the roles generate returns
        for counts in [(1,), (1, 1), (3, 3), (2, 0, 2), (1, 2, 2, 1), (2, 4, 2, 2, 4, 2),
                       (5, 0, 0, 1, 0, 0, 5)]:
            spec = FamilySpec("caterpillar", counts)
            _, roles = generate(spec)
            expected = tuple(
                (2 if role[1] == 0 else 1) if role[0] == "spine" else role[2] + 1
                for role in roles
            )
            assert construct_assignment(spec) == expected

    def test_rejects_asymmetric_counts(self):
        with pytest.raises(SpecMismatchError):
            construct_assignment(spec_for("caterpillar:1,2"))
        with pytest.raises(SpecMismatchError):
            construct_assignment(spec_for("caterpillar:2,4,2,2,5,2"))

    def test_separation_shape(self):
        # the mechanics the route relies on, checked on one instance:
        # leaf first coordinates stay below every spine first coordinate,
        # and the far end of the diameter is reachable only from end leaves
        spec = spec_for("caterpillar:2,4,2,2,4,2")
        g, roles = generate(spec)
        f = construct_assignment(spec)
        table = string_table(all_pairs_distances(g), f)
        n_spine = 6
        for v, role in enumerate(roles):
            if role[0] == "spine":
                assert table[v][0] >= 2
                assert table[v][-1] == 0
            elif role[1] == 0:
                assert table[v][0] == 2  # neighbours the rank-2 spine end
                assert all(x > 0 for x in table[v])
            elif role[1] == n_spine - 1:
                assert all(x > 0 for x in table[v])
            else:
                assert table[v][0] == 1


class TestUniversalRoute:
    def test_powers_of_two(self):
        f = construct_assignment(spec_for("cycle:4"))
        assert f == (2, 4, 8, 16)

    def test_direct_form_matches_spec_route(self):
        assert universal_assignment(4) == construct_assignment(spec_for("cycle:4"))

    def test_direct_form_on_arbitrary_graphs(self):
        import random

        from idindex.graphs import all_pairs_distances as apd

        from corpus import random_connected_graph

        rng = random.Random(12)
        for n in (1, 5, 9):
            g = random_connected_graph(n, rng)
            table = string_table(apd(g), universal_assignment(n))
            assert is_distinguishing(table)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("path:2000", 2000),
            ("product:(petersen)x(path:2)", 20),
            ("multipartite:1,2,3", 6),
            ("multipartite:3,3", 6),
            ("caterpillar:2,4,2,2,4,2", 22),
        ],
    )
    def test_builds_no_graph(self, monkeypatch, text, n):
        # every route reads the spec alone: the universal route its vertex
        # count, the others their parameters in the layout of families
        def no_graph(spec):
            raise AssertionError(f"built {spec.label()}")

        spec = spec_for(text)
        # constructions imports no generate of its own to patch
        assert not hasattr(constructions, "generate")
        monkeypatch.setattr(families, "generate", no_graph)
        ranks = construct_assignment(spec)
        assert len(ranks) == n
        if spec.kind not in ("multipartite", "caterpillar"):
            assert ranks == universal_assignment(n)

    @pytest.mark.parametrize("text", ["cycle:4", "petersen", "grid:2x3", "path:7"])
    def test_identifies_with_all_distinct_values(self, text):
        spec = spec_for(text)
        f = construct_assignment(spec)
        g, _ = generate(spec)
        assert len(set(f)) == g.n
        assert is_distinguishing(table_for(spec, f))


class TestAffine:
    def test_transform(self):
        f = affine_transform((1, 2), 3, 5)
        assert f == (8, 11)

    def test_negative_scale(self):
        f = affine_transform((1, 2), -1, 0)
        assert f == (-1, -2)

    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScaleError):
            affine_transform((1, 2), 0, 7)

    def test_preserved_on_shared_sphere_sizes(self):
        # every vertex of the prism sees the same number at each distance,
        # so affine changes cannot create or destroy collisions
        spec = spec_for("prism:5")
        g, _ = generate(spec)
        dm = all_pairs_distances(g)
        f = construct_assignment(spec)
        for scale, offset in [(2, 0), (1, 9), (-3, 4), (7, -2)]:
            moved = affine_transform(f, scale, offset)
            assert is_distinguishing(string_table(dm, moved)) == is_distinguishing(
                string_table(dm, f)
            )

    def test_normalize_two_valued(self):
        assert normalize_two_valued((3, 7, 7)) == (0, 1, 1)
        assert normalize_two_valued((-5, 11)) == (0, 1)

    @pytest.mark.parametrize("ranks", [(4, 4), (1, 2, 3)])
    def test_normalize_rejects_other_value_counts(self, ranks):
        with pytest.raises(ValueError):
            normalize_two_valued(ranks)


class TestColoringBridge:
    def test_round_trip_all_small_colorings(self):
        for n in range(1, 6):
            for r in range(1, n + 1):
                for red in itertools.combinations(range(n), r):
                    indicator = tuple(1 if v in red else 0 for v in range(n))
                    assert ranks_to_coloring(indicator) == frozenset(red)

    def test_ranks_must_be_zero_one(self):
        with pytest.raises(NotZeroOneError):
            ranks_to_coloring((0, 2, 1))

    def test_all_zero_ranks_name_no_coloring(self):
        with pytest.raises(NoRedVertexError):
            ranks_to_coloring((0, 0))


class TestExpectedIdIndex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("path:2", 2),
            ("path:9", 2),
            ("cycle:3", 3),
            ("cycle:5", 3),
            ("cycle:6", 2),
            ("cycle:12", 2),
            ("complete:2", 2),
            ("complete:7", 7),
            ("multipartite:2,2", 3),
            ("multipartite:3,3", 4),
            ("multipartite:2,3", 3),
            ("multipartite:1,2,3", 3),
            ("multipartite:2,3,7", 7),
            ("grid:2x2", 3),
            ("grid:3x4", 2),
            ("grid:1x5", 2),
            ("prism:3", 3),
            ("prism:5", 3),
            ("prism:6", 2),
            ("petersen", 3),
            ("caterpillar:1,1", 2),
            ("caterpillar:2,0,2", 2),
            ("caterpillar:2,4,2,2,4,2", 4),
        ],
    )
    def test_known_values(self, text, value):
        assert expected_id_index(spec_for(text)) == value

    @pytest.mark.parametrize(
        "text",
        [
            "path:1",
            "complete:1",
            "grid:1x1",
            "multipartite:3,2",
            "multipartite:1,1,2",
            "multipartite:2,2,2",
            "caterpillar:1,2",
            "product:(cycle:5)x(path:2)",
        ],
    )
    def test_uncovered_specs(self, text):
        assert expected_id_index(spec_for(text)) is None

    def test_agrees_with_solver_on_small_cases(self):
        for text in ["path:4", "cycle:5", "cycle:7", "complete:4",
                     "multipartite:2,2", "multipartite:1,3", "grid:2x2",
                     "prism:4", "caterpillar:1,1", "caterpillar:2,1,2"]:
            spec = spec_for(text)
            g, _ = generate(spec)
            assert expected_id_index(spec) == id_index_exact(g).k

    def test_covered_exactly_where_a_route_exists(self):
        # every multipartite spec of 2-4 parts of sizes 1-3 and every
        # caterpillar of up to 4 spine vertices with up to 2 leaves each
        specs = [
            FamilySpec("multipartite", sizes)
            for parts in range(2, 5)
            for sizes in itertools.product(range(1, 4), repeat=parts)
        ] + [
            FamilySpec("caterpillar", counts)
            for spine in range(1, 5)
            for counts in itertools.product(range(3), repeat=spine)
            if counts[0] and counts[-1]
        ]
        for spec in specs:
            expected = expected_id_index(spec)
            try:
                ranks = construct_assignment(spec)
            except SpecMismatchError:
                assert expected is None, spec
            else:
                assert len(set(ranks)) == expected, spec
