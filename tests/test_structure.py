import itertools
import math
from collections import Counter
from pathlib import Path

import pytest

from idindex.families import parse_family_spec, generate
from idindex.graphs import all_pairs_distances, build_graph, parse_edge_list
from idindex.strings_codes import string_table
from idindex.structure import counting_lower_bound, distance_profile, tuplet_classes

from corpus import (
    InvalidMultiplicitiesError,
    all_connected_graphs,
    connected_corpus_up_to,
    geometric_pool,
    id_index_oracle,
    multipartite_binomial_bound,
    random_corpus,
    reference_counting_bound,
    reference_id_number,
)


def graph_for(text):
    g, _ = generate(parse_family_spec(text))
    return g


class TestTupletClasses:
    def test_complete_graph_one_clique_class(self):
        tc = tuplet_classes(graph_for("complete:4"))
        assert len(tc.classes) == 1
        assert tc.classes[0].members == (0, 1, 2, 3)
        assert tc.classes[0].kind == "clique"
        assert tc.max_size == 4

    def test_star_leaves_independent(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tc = tuplet_classes(g)
        by_members = {c.members: c.kind for c in tc.classes}
        assert by_members == {(0,): None, (1, 2, 3, 4): "independent"}

    def test_cycle6_all_singletons(self):
        tc = tuplet_classes(graph_for("cycle:6"))
        assert tc.max_size == 1
        assert all(c.kind is None for c in tc.classes)

    def test_path3_endpoints_independent(self):
        tc = tuplet_classes(graph_for("path:3"))
        assert {c.members for c in tc.classes} == {(0, 2), (1,)}

    def test_path5_all_singletons(self):
        assert tuplet_classes(graph_for("path:5")).max_size == 1

    def test_k112_mixed_kinds(self):
        # parts {0}, {1}, {2, 3}: the two singleton parts are adjacent twins
        tc = tuplet_classes(graph_for("multipartite:1,1,2"))
        by_members = {c.members: c.kind for c in tc.classes}
        assert by_members == {(0, 1): "clique", (2, 3): "independent"}

    def test_classes_sorted_by_smallest_member(self):
        tc = tuplet_classes(graph_for("multipartite:2,2,2"))
        firsts = [c.members[0] for c in tc.classes]
        assert firsts == sorted(firsts)

    def test_class_index_covers_all_vertices(self):
        # the classes partition 0..n-1: every vertex in exactly one class
        g = graph_for("caterpillar:2,4,2,2,4,2")
        tc = tuplet_classes(g)
        members = [v for c in tc.classes for v in c.members]
        assert sorted(members) == list(range(g.n))

    def test_members_are_ascending(self):
        # the greedy bound numbers each class's members in this order
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        for g in graphs + random_corpus(200):
            for c in tuplet_classes(g).classes:
                assert list(c.members) == sorted(c.members)

    def test_relation_is_transitive_on_small_corpus(self):
        # grouping by neighborhood equality is an equivalence; check the
        # resulting classes really are maximal (no cross-class twins)
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                tc = tuplet_classes(g)
                idx = {v: ci for ci, c in enumerate(tc.classes) for v in c.members}
                for u, v in itertools.combinations(range(g.n), 2):
                    open_eq = (set(g.adj[u]) - {v}) == (set(g.adj[v]) - {u})
                    closed_eq = open_eq and (v in g.adj[u])
                    plain_open = g.adj[u] == g.adj[v]
                    same = idx[u] == idx[v]
                    assert same == (plain_open or closed_eq)

    def test_twins_share_distances_to_others(self):
        g = graph_for("multipartite:2,3,5")
        dm = all_pairs_distances(g)
        tc = tuplet_classes(g)
        for cls in tc.classes:
            for u, v in itertools.combinations(cls.members, 2):
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    assert dm.dist[u][w] == dm.dist[v][w]


class TestLowerBound:
    @pytest.mark.parametrize(
        "text,bound",
        [
            ("complete:5", 5),
            ("multipartite:2,3", 3),
            ("cycle:7", 1),
            ("path:1", 1),
            ("caterpillar:2,4,2,2,4,2", 4),
        ],
    )
    def test_examples(self, text, bound):
        assert tuplet_classes(graph_for(text)).max_size == bound


def spheres_for(g):
    return string_table(all_pairs_distances(g), (1,) * g.n)


def library_counting_bound(g):
    return counting_lower_bound(spheres_for(g), tuplet_classes(g).max_size)


def unshortened_counting_bound(g):
    """``counting_lower_bound`` with every group's product formed, including
    those of groups no larger than ``k``."""
    groups = Counter(spheres_for(g))
    k = tuplet_classes(g).max_size
    while any(
        m > k * math.prod(math.comb(s + k - 1, k - 1) for s in [s for s in row if s][:-1])
        for row, m in groups.items()
    ):
        k += 1
    return k


# every graph with a golden file or a search pin under tests/golden
GOLDEN_SPECS = [
    "petersen",
    "product:(complete:4)x(complete:4)",
    "product:(product:(product:(product:(path:2)x(path:2))x(path:2))x(path:2))"
    "x(path:2)",
    "prism:6",
    "prism:8",
    "grid:4x5",
    "caterpillar:2,4,2,2,4,2",
    "cycle:20",
    "path:6",
    "multipartite:1,1,2",
    "cycle:120",
    "grid:12x12",
    "path:600",
]


class TestCountingBound:
    @pytest.mark.parametrize(
        "text,bound",
        [
            ("product:(complete:4)x(complete:4)", 3),
            ("product:(complete:4)x(complete:5)", 3),
            ("product:(complete:5)x(complete:5)", 3),
            ("petersen", 3),
            ("product:(petersen)x(path:2)", 2),
            ("product:(product:(product:(product:(path:2)x(path:2))x(path:2))"
             "x(path:2))x(path:2)", 2),
            ("product:(cycle:5)x(cycle:5)", 2),
            ("path:1", 1),
        ],
    )
    def test_examples(self, text, bound):
        g = graph_for(text)
        assert library_counting_bound(g) == bound
        assert reference_counting_bound(g) == bound
        if bound >= 3 and g.n <= 10:  # the brute force tries 2^n red sets
            assert reference_id_number(g) is None

    @pytest.mark.parametrize("text", GOLDEN_SPECS + ["random12_seed3.txt"])
    def test_golden_graphs_match_unshortened_bound(self, text):
        if text.endswith(".txt"):
            g = parse_edge_list((Path(__file__).parent / "golden" / text).read_text())
        else:
            g = graph_for(text)
        assert library_counting_bound(g) == unshortened_counting_bound(g)

    def test_between_twin_bound_and_answer(self):
        for g in list(connected_corpus_up_to(5)) + random_corpus(200):
            bound = library_counting_bound(g)
            assert bound == reference_counting_bound(g)
            assert bound == unshortened_counting_bound(g)
            assert tuplet_classes(g).max_size <= bound
            assert bound <= id_index_oracle(g, geometric_pool(g.n))
            if bound >= 3:
                assert reference_id_number(g) is None


class TestDistanceProfile:
    @pytest.mark.parametrize(
        "text,counts",
        [
            ("cycle:6", (2, 2, 1)),
            ("cycle:7", (2, 2, 2)),
            ("petersen", (3, 6)),
            ("complete:4", (3,)),
            ("prism:4", (3, 3, 1)),
            ("path:1", ()),
        ],
    )
    def test_present(self, text, counts):
        assert distance_profile(spheres_for(graph_for(text))) == counts

    @pytest.mark.parametrize("text", ["path:3", "grid:2x3", "caterpillar:1,1"])
    def test_absent(self, text):
        assert distance_profile(spheres_for(graph_for(text))) is None


class TestBinomialBound:
    @pytest.mark.parametrize(
        "mult,expected",
        [
            ({2: 4}, 4),      # four parts of size 2: need C(k,2) >= 4
            ({1: 1, 3: 1}, 3),
            ({1: 2}, 2),
            ({1: 5}, 5),      # C(k,1) = k must reach 5
            ({5: 1, 1: 1}, 5),
            ({2: 1, 3: 1}, 3),
        ],
    )
    def test_values(self, mult, expected):
        assert multipartite_binomial_bound(mult) == expected

    def test_bound_is_tight(self):
        # one fewer value must fail to host some size class
        from math import comb

        for mult in ({2: 4}, {1: 2, 2: 3, 3: 2}, {4: 3}):
            k = multipartite_binomial_bound(mult)
            assert all(comb(k, s) >= c for s, c in mult.items())
            assert any(comb(k - 1, s) < c for s, c in mult.items())

    @pytest.mark.parametrize(
        "mult",
        [
            {},
            {1: 1},          # fewer than two parts in total
            {0: 2},
            {-1: 3},
            {2: -1},
            {2.0: 2},
            {2: True},
        ],
    )
    def test_rejects(self, mult):
        with pytest.raises(InvalidMultiplicitiesError):
            multipartite_binomial_bound(mult)
