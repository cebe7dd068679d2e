import gc
import json
import random
import weakref
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idindex import cli, solvers
from idindex.families import generate, parse_family_spec
from idindex.graphs import all_pairs_distances, build_graph
from idindex.solvers import (
    BudgetExceededError,
    Partition,
    certificate_ranks,
    greedy_upper_bound,
    id_index_exact,
    id_number_exact,
    to_restricted_growth,
)
from idindex.strings_codes import code_table, is_distinguishing, string_table
from idindex.structure import counting_lower_bound, tuplet_classes

from corpus import (
    NoDistinguishingAssignmentError,
    TooLargeError,
    all_connected_graphs,
    connected_corpus_up_to,
    floyd_warshall,
    geometric_pool,
    id_index_oracle,
    partition_distinguishes,
    random_connected_graph,
    random_corpus,
    reference_id_number,
    reference_partition_distinguishes,
    restricted_growth_strings,
)


GOLDEN = Path(__file__).parent / "golden"


def graph_for(text):
    g, _ = generate(parse_family_spec(text))
    return g


def brute_force_id_index(g):
    """First feasible restricted-growth string per level, level by level."""
    dm = all_pairs_distances(g)
    for k in range(1, g.n + 1):
        for rgs in restricted_growth_strings(g.n, k):
            ok, _ = partition_distinguishes(dm, Partition(rgs, k))
            if ok:
                return k, rgs
    raise AssertionError("all-singletons must distinguish")


class TestPartition:
    def test_valid_forms(self):
        Partition((0,), 1)
        Partition((0, 0, 0), 1)
        Partition((0, 1, 0, 2), 3)

    @pytest.mark.parametrize(
        "assignment,k",
        [
            ((), 0),
            ((1,), 1),          # labels must start at 0
            ((0, 2), 2),        # label 2 before label 1
            ((0, 1), 1),        # k disagrees with labels used
            ((0, 0), 2),
            ((0, -1), 1),
        ],
    )
    def test_invalid_forms(self, assignment, k):
        with pytest.raises(ValueError):
            Partition(assignment, k)

    def test_to_restricted_growth_relabels(self):
        p = to_restricted_growth(["b", "a", "b", "c"])
        assert p == Partition((0, 1, 0, 2), 3)

    def test_partition_of_ranks(self):
        p = to_restricted_growth((5, 3, 5, 7))
        assert p == Partition((0, 1, 0, 2), 3)


class TestRestrictedGrowthStrings:
    def stirling2(self, n, k):
        if n == 0:
            return 1 if k == 0 else 0
        if k == 0:
            return 0
        return k * self.stirling2(n - 1, k) + self.stirling2(n - 1, k - 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_stirling_numbers(self, n):
        for k in range(1, n + 1):
            got = sum(1 for _ in restricted_growth_strings(n, k))
            assert got == self.stirling2(n, k)

    def test_lexicographic_order_and_validity(self):
        out = list(restricted_growth_strings(5, 3))
        assert out == sorted(out)
        assert len(set(out)) == len(out)
        for rgs in out:
            Partition(rgs, 3)  # raises unless well-formed

    def test_infeasible_k(self):
        assert list(restricted_growth_strings(2, 3)) == []


class TestPartitionDistinguishes:
    def test_path3_two_classes(self):
        dm = all_pairs_distances(graph_for("path:3"))
        assert partition_distinguishes(dm, Partition((0, 0, 1), 2)) == (True, None)

    def test_triangle_needs_singletons(self):
        dm = all_pairs_distances(graph_for("complete:3"))
        assert partition_distinguishes(dm, Partition((0, 1, 2), 3)) == (True, None)
        for k in (1, 2):
            for rgs in restricted_growth_strings(3, k):
                ok, pair = partition_distinguishes(dm, Partition(rgs, k))
                assert not ok and pair is not None

    def test_cycle4_resists_two_classes(self):
        dm = all_pairs_distances(graph_for("cycle:4"))
        for k in (1, 2):
            for rgs in restricted_growth_strings(4, k):
                ok, _ = partition_distinguishes(dm, Partition(rgs, k))
                assert not ok

    def test_collision_pair_is_lex_least(self):
        dm = all_pairs_distances(graph_for("cycle:4"))
        ok, pair = partition_distinguishes(dm, Partition((0, 0, 0, 0), 1))
        assert not ok and pair == (0, 1)

    def test_size_mismatch_rejected(self):
        dm = all_pairs_distances(graph_for("path:3"))
        with pytest.raises(ValueError):
            partition_distinguishes(dm, Partition((0, 1), 2))


class TestCertificateRanks:
    def test_geometric_values(self):
        assert certificate_ranks(Partition((0, 0, 1), 2)) == (1, 1, 4)
        assert certificate_ranks(Partition((0,), 1)) == (1,)
        assert certificate_ranks(Partition((0, 1, 2), 3)) == (1, 4, 16)

    def test_base_size_scales_with_vertex_count(self):
        p = Partition((0, 1) + (0,) * 8, 2)
        assert certificate_ranks(p)[1] == 11


class TestReduction:
    def test_partition_feasibility_equals_certificate_ranks_exhaustive(self):
        # up to n=5: every partition of every connected graph gets the same
        # verdict and lex-least colliding pair from the certificate-rank
        # strings as from the per-class sphere counts
        checked = 0
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                dm = all_pairs_distances(g)
                for k in range(1, n + 1):
                    for rgs in restricted_growth_strings(n, k):
                        p = Partition(rgs, k)
                        expected = reference_partition_distinguishes(dm, p)
                        assert partition_distinguishes(dm, p) == expected
                        checked += 1
        assert checked == 38_449

    @settings(derandomize=True, max_examples=60)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=7, max_size=7),
    )
    def test_distinguishing_ranks_imply_distinguishing_partition(self, n, seed, vals):
        g = random_connected_graph(n, random.Random(seed))
        dm = all_pairs_distances(g)
        f = tuple(vals[:n])
        if is_distinguishing(string_table(dm, f)):
            ok, _ = partition_distinguishes(dm, to_restricted_growth(f))
            assert ok


class TestIdIndexExact:
    @pytest.mark.parametrize(
        "text,k",
        [
            ("path:2", 2),
            ("path:5", 2),
            ("cycle:4", 3),
            ("cycle:6", 2),
            ("complete:4", 4),
            ("multipartite:2,3", 3),
            ("multipartite:1,1,2", 2),
            ("grid:2x2", 3),
            ("grid:3x4", 2),
            ("prism:4", 3),
            ("prism:6", 2),
            ("petersen", 3),
            ("caterpillar:2,4,2,2,4,2", 4),
        ],
    )
    def test_known_values(self, text, k):
        assert id_index_exact(graph_for(text)).k == k

    def test_single_vertex_convention(self):
        cert = id_index_exact(graph_for("path:1"))
        assert cert.k == 1
        assert cert.note == "by convention"
        assert cert.infeasibility.certified_by == "vacuous"
        assert cert.strings == [()]

    def test_certificate_invariants(self):
        for text in ["path:4", "cycle:5", "petersen", "multipartite:1,2,2",
                     "caterpillar:1,2,1"]:
            g = graph_for(text)
            cert = id_index_exact(g)
            dm = all_pairs_distances(g)
            assert len(set(cert.ranks)) == cert.k
            assert cert.partition == to_restricted_growth(cert.ranks)
            assert cert.partition.k == cert.k
            assert is_distinguishing(string_table(dm, cert.ranks))
            assert cert.strings == string_table(dm, cert.ranks)
            assert cert.lower_bound <= cert.k
            assert cert.infeasibility is not None
            assert cert.infeasibility.level == cert.k - 1

    def test_witness_kind_tracks_lower_bound(self):
        at_bound = id_index_exact(graph_for("complete:4"))
        assert at_bound.infeasibility.certified_by == "tuplet-bound"
        above_bound = id_index_exact(graph_for("cycle:4"))
        assert above_bound.infeasibility.certified_by == "exhaustive-search"
        assert above_bound.infeasibility.nodes > 0
        at_counting_bound = id_index_exact(graph_for("petersen"))
        assert at_counting_bound.infeasibility.certified_by == "counting-bound"
        assert at_counting_bound.infeasibility.nodes == 0

    def test_returns_lex_least_witness(self):
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                cert = id_index_exact(g)
                k, rgs = brute_force_id_index(g)
                assert cert.k == k
                assert cert.partition.assignment == rgs

    def test_budget_gives_bracket(self):
        g = graph_for("prism:5")
        with pytest.raises(BudgetExceededError) as exc:
            id_index_exact(g, max_nodes=5)
        e = exc.value
        assert e.lower is not None and e.upper is not None
        assert e.lower <= 3 <= e.upper  # true value stays inside the bracket
        assert e.nodes > 0

    def test_json_shape(self, capsys):
        assert cli.run(["compute", "--family", "path:3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {
            "k",
            "partition",
            "ranks",
            "strings",
            "lower_bound",
            "exhausted_k_minus_1",
            "nodes_searched",
        }
        assert obj["k"] == 2
        assert all(isinstance(r, str) for r in obj["ranks"])
        assert obj["exhausted_k_minus_1"] is True


class TestSearchPins:
    """Node counts and witnesses of the search that starts at the counting
    bound: a change of the pair-difference format must leave them alone."""

    @pytest.mark.parametrize("spec", ["cycle:120", "grid:12x12", "path:600"])
    def test_large_diameter(self, spec):
        # diameters 60, 22 and 599: the pair integers run to hundreds of digits
        pin = json.loads((GOLDEN / "search_large_diameter.json").read_text())[spec]
        cert = id_index_exact(graph_for(spec))
        assert cert.k == pin["k"]
        assert cert.nodes_searched == pin["nodes_searched"]
        assert list(cert.partition.assignment) == pin["partition"]

    def test_random_corpus(self):
        pins = json.loads((GOLDEN / "search_random_corpus.json").read_text())
        for g, pin in zip(random_corpus(200), pins, strict=True):
            cert = id_index_exact(g)
            assert (cert.k, cert.nodes_searched, list(cert.partition.assignment)) == (
                pin["k"], pin["nodes_searched"], pin["partition"]
            )
            red = id_number_exact(g)
            got = (None, None) if red is None else (len(red), sorted(red))
            assert got == (pin["id_number"], pin["red"])


class TestImpliedLastClass:
    """The partition search watches only pairs with equal sphere rows, so
    once a pair is complete its fields sum to zero over all ``k`` classes:
    any one class's field is zero exactly when the other ``k - 1`` are.
    The search leaves class 0 implied, not the last class, and walks the
    same tree as one that counts every class.  The search never counts
    label 0, so that walk uses a rule whose labels are shifted up by 1."""

    @staticmethod
    def every_class_counted(n, k, w, used):
        return tuple([(c + 1, u, f) for c, u, f in solvers._partition_labels(n, k, w, used)])

    def test_counting_k_minus_1_classes_walks_the_same_tree(self):
        graphs = [g for g in connected_corpus_up_to(5) if g.n > 1] + random_corpus(200)
        for g in graphs:
            dm = all_pairs_distances(g)
            tc = tuplet_classes(g)
            watcher = solvers._PairWatcher(dm, tc, dm.spheres)
            start = counting_lower_bound(dm.spheres, tc.max_size)
            for k in range(start, id_index_exact(g).k + 1):
                _, full, full_nodes, _ = watcher.search(self.every_class_counted, [(k, k)], 2_000)
                _, implied, nodes, _ = watcher.search(
                    solvers._partition_labels, [(k, k - 1)], 2_000
                )
                assert nodes == full_nodes
                if full is None:
                    assert implied is None
                else:
                    assert implied == [c - 1 for c in full]


class TestOneBudgetAcrossLevels:
    """Both searches spend one node budget over all their levels, and the
    exhaustive-search witness counts the nodes of level ``k - 1`` alone."""

    @staticmethod
    def exhaustive_witnesses():
        graphs = [g for g in connected_corpus_up_to(5) if g.n > 1] + random_corpus(200)
        for g in graphs:
            cert = id_index_exact(g)
            if cert.infeasibility.certified_by == "exhaustive-search":
                yield g, cert

    def test_red_set_sizes(self):
        # prism:8 spends 24, 192, 962 and 36 nodes on red-set sizes 1 to 4
        g = graph_for("prism:8")
        with pytest.raises(BudgetExceededError) as exc:
            id_number_exact(g, max_nodes=1_213)
        assert str(exc.value) == "node budget 1213 exhausted at red-set size 4"
        assert exc.value.nodes == 1_214
        assert len(id_number_exact(g, max_nodes=1_214)) == 4
        # size 1 spends the whole budget, so size 2 runs out at its first node
        with pytest.raises(BudgetExceededError) as exc:
            id_number_exact(g, max_nodes=24)
        assert str(exc.value) == "node budget 24 exhausted at red-set size 2"
        assert exc.value.nodes == 25

    @pytest.mark.parametrize(
        "spec, sizes, red",
        [
            ("grid:4x5", [34, 322, 21], [0, 1, 3]),
            ("cycle:20", [38, 397, 21], [0, 1, 3]),
            (
                "product:(cycle:5)x(cycle:5)",
                [40, 548, 3_656, 21_922, 90_712, 1_068],
                [0, 1, 2, 5, 15, 24],
            ),
        ],
        ids=["grid:4x5", "cycle:20", "C5xC5"],
    )
    def test_red_set_nodes_per_size(self, spec, sizes, red):
        g = graph_for(spec)
        total = sum(sizes)
        assert sorted(id_number_exact(g, max_nodes=total)) == red
        with pytest.raises(BudgetExceededError) as exc:
            id_number_exact(g, max_nodes=total - 1)
        assert str(exc.value) == f"node budget {total - 1} exhausted at red-set size {len(red)}"
        assert exc.value.nodes == total
        # each size below the answer spends exactly its nodes, so a budget
        # of sizes 1..r runs out at the first node of size r + 1
        for r in range(1, len(sizes)):
            budget = sum(sizes[:r])
            with pytest.raises(BudgetExceededError) as exc:
                id_number_exact(g, max_nodes=budget)
            assert str(exc.value) == f"node budget {budget} exhausted at red-set size {r + 1}"
            assert exc.value.nodes == budget + 1

    def test_partition_levels(self):
        witnesses = list(self.exhaustive_witnesses())
        assert len(witnesses) == 84
        for g, cert in witnesses:
            assert id_index_exact(g, max_nodes=cert.nodes_searched) == cert
            # level k - 1 alone spends infeasibility.nodes, so level k runs out
            for budget in (cert.nodes_searched - 1, cert.infeasibility.nodes):
                with pytest.raises(BudgetExceededError) as exc:
                    id_index_exact(g, max_nodes=budget)
                assert exc.value.lower == cert.k
                assert exc.value.nodes == budget + 1
                assert str(exc.value).startswith(
                    f"node budget {budget} exhausted; answer in [{cert.k}, "
                )

    def test_witness_nodes_are_the_level_below(self):
        rule, budget = solvers._partition_labels, solvers.DEFAULT_MAX_NODES
        for g, cert in self.exhaustive_witnesses():
            dm = all_pairs_distances(g)
            watcher = solvers._PairWatcher(dm, tuplet_classes(g), dm.spheres)
            levels = [(j, j - 1) for j in range(1, cert.k + 1)]
            # each level alone, in a fresh search; no level below k has a labelling
            alone = [watcher.search(rule, [level], budget) for level in levels]
            assert [r[:2] for r in alone[:-1]] == [(None, None)] * (cert.k - 1)
            assert alone[-2][2] == cert.infeasibility.nodes
            # one search over all of them counts every level's nodes and
            # keeps the count of the level below the answer apart
            level, labels, nodes, last = watcher.search(rule, levels, budget)
            assert (level, nodes, last) == (cert.k, sum(r[2] for r in alone), alone[-2][2])
            assert tuple(labels) == cert.partition.assignment


class TestRedSetLookAhead:
    """Once the last red is placed no field changes, so the search tests
    every watched pair at once.  The look-ahead only prunes branches that
    would fail: it finds the same red set at the same size, in no more
    nodes than the same rule with no placement marked ``final``."""

    @staticmethod
    def no_final(n, r, w, used):
        return tuple([(c, u, False) for c, u, _ in solvers._red_set_labels(n, r, w, used)])

    def test_same_labels_in_no_more_nodes(self):
        rule, budget = solvers._red_set_labels, solvers.DEFAULT_MAX_NODES
        pruned = 0
        for g in list(connected_corpus_up_to(5)) + random_corpus(200):
            dm = all_pairs_distances(g)
            watcher = solvers._PairWatcher(dm, tuplet_classes(g), [0] * g.n)
            levels = [(r, 1) for r in range(1, g.n + 1)]
            level, labels, nodes, _ = watcher.search(self.no_final, levels, budget)
            got_level, got, got_nodes, _ = watcher.search(rule, levels, budget)
            assert (got_level, got) == (level, labels)
            assert got_nodes <= nodes
            pruned += got_nodes < nodes
        # it saves nodes on 923 of the 972 graphs
        assert pruned == 923

    def test_only_the_last_red_is_final(self):
        # the kernel's whole-integer test reads packed[0] alone, so only
        # the one-class red-set rule may mark a placement final
        for n in range(1, 9):
            for w in range(n):
                for level in range(1, n + 1):
                    # used labels before w that can still reach the level
                    for used in range(max(0, level - (n - w)), min(w, level) + 1):
                        options = solvers._red_set_labels(n, level, w, used)
                        marked = [(c, u) for c, u, final in options if final]
                        assert marked == ([(1, level)] if used + 1 == level else [])
                        if w == 0 or used >= 1:
                            for _, _, final in solvers._partition_labels(n, level, w, used):
                                assert not final


class TestFirstUsePacking:
    """A vertex's packed delta is built the first time it takes a nonzero
    label, and kept."""

    @pytest.fixture
    def packs(self, monkeypatch):
        calls = []
        pack = solvers._Deltas.__missing__

        def spy(deltas, w):
            calls.append(w)
            return pack(deltas, w)

        monkeypatch.setattr(solvers._Deltas, "__missing__", spy)
        return calls

    @pytest.mark.parametrize(
        "spec, packed",
        [
            # witness 0^116 1011: one vertex more took class 1 on a branch
            # that was taken back
            ("cycle:120", 4),
            # witness 0^132 1 0^9 11
            ("grid:12x12", 3),
            # fields of 97 bytes: only the last vertex ever takes class 1
            ("path:600", 1),
        ],
    )
    def test_large_diameter(self, packs, spec, packed):
        cert = id_index_exact(graph_for(spec))
        assert len(packs) == packed
        assert {v for v, c in enumerate(cert.partition.assignment) if c} <= set(packs)

    def test_each_delta_is_packed_once(self, packs):
        graphs = random_corpus(200) + [graph_for(t) for t in ["petersen", "prism:8"]]
        # fields of 74 and 97 bytes; their red-set tables exceed the entry limit
        wide = [graph_for(t) for t in ["grid:2x300", "path:600"]]
        for g in graphs + wide:
            packs.clear()
            cert = id_index_exact(g)
            assert len(packs) == len(set(packs))
            assert {v for v, c in enumerate(cert.partition.assignment) if c} <= set(packs)
        for g in graphs:
            packs.clear()
            red = id_number_exact(g)
            assert len(packs) == len(set(packs))
            assert (red or frozenset()) <= set(packs)

    def test_only_vertices_given_a_nonzero_label_are_packed(self, packs):
        rng = random.Random(11)
        for g in random_corpus(60):
            # vertices of `offered` try label 1, then 0; the others take 0
            offered = {v for v in range(g.n) if rng.random() < 0.5}

            def rule(n, level, w, used):
                if w in offered:
                    return ((1, used, False), (0, used, False))
                return ((0, used, False),)

            dm = all_pairs_distances(g)
            watcher = solvers._PairWatcher(dm, tuplet_classes(g), [0] * g.n)
            packs.clear()
            watcher.search(rule, [(0, 1)], 2_000)
            assert set(packs) <= offered
            assert len(packs) == len(set(packs))


class TestPackedFields:
    """White box: the packed integer of a class holds, in pair ``p``'s
    field, ``bias`` plus the pair's count differences as mixed-radix
    digits, distance ``i`` in radix ``S_i + 1``."""

    def test_fields_decode_to_count_differences(self):
        rng = random.Random(5)
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                dist = floyd_warshall(g)
                diameter = max(map(max, dist))
                # digit i-1 (distance i) in radix S_i + 1, for S_i the
                # largest sphere at distance i
                place = [1]
                for i in range(1, diameter + 1):
                    place.append(place[-1] * (max(row.count(i) for row in dist) + 1))
                dm = all_pairs_distances(g)
                # a constant key watches every non-twin pair
                tc = tuplet_classes(g)
                watcher = solvers._PairWatcher(dm, tc, [0] * n)
                twin = {v: ci for ci, c in enumerate(tc.classes) for v in c.members}
                assert sorted(watcher.pairs) == [
                    (u, v) for u in range(n) for v in range(u + 1, n) if twin[u] != twin[v]
                ]
                delta_of = watcher.delta_of
                memo = delta_of.__self__
                assert delta_of == memo.__getitem__
                bias, width = watcher.bias, watcher.width
                assert bias == place[diameter] - 1
                assert width > (2 * bias).bit_length()  # a guard bit on top
                placed = set()
                for _ in range(2):
                    k = rng.randint(1, 3)
                    labels = [rng.randrange(-1, k) for _ in range(n)]  # -1: unplaced
                    placed.update(w for w in range(n) if labels[w] >= 0)
                    for c in range(k):
                        y = watcher.bias_all
                        for w in range(n):
                            if labels[w] == c:
                                y += delta_of(w)
                        counts = [
                            [sum(labels[w] == c for w in range(n) if dist[x][w] == i)
                             for i in range(diameter + 1)]
                            for x in range(n)
                        ]
                        for p, (u, v) in enumerate(watcher.pairs):
                            field = y >> p * width & ((1 << width) - 1)
                            assert 0 <= field <= 2 * bias
                            assert field - bias == sum(
                                (counts[u][i] - counts[v][i]) * place[i - 1]
                                for i in range(1, diameter + 1)
                            )
                        assert y >> len(watcher.pairs) * width == 0
                # the memo keeps what it packed, and packs the same again
                assert all(d == memo.__missing__(w) for w, d in dict(memo).items())
                assert set(memo) == placed

    @pytest.mark.parametrize(
        "spec, width",
        [
            # spheres (5, 10, 10, 5, 1): radices 6, 11, 11, 6, 2 where one
            # base of 11 took 24 bits
            ("product:(product:(product:(product:(path:2)x(path:2))x(path:2))x(path:2))"
             "x(path:2)", 16),
            # radix 3 to distance 299, radix 2 beyond, where one base of 3
            # took 952 bits
            ("path:600", 776),
        ],
        ids=["cube5", "path:600"],
    )
    def test_width(self, spec, width):
        g = graph_for(spec)
        dm = all_pairs_distances(g)
        assert solvers._PairWatcher(dm, tuplet_classes(g), dm.spheres).width == width


class TestWatcherLifetime:
    """A watcher and its deltas form no reference cycle, so both searches
    free their watcher on return without the cyclic garbage collector."""

    def test_freed_by_reference_counting(self, monkeypatch):
        made = []
        init = solvers._PairWatcher.__init__

        def recording_init(self, *args):
            init(self, *args)
            made.append(weakref.ref(self))

        monkeypatch.setattr(solvers._PairWatcher, "__init__", recording_init)
        enabled = gc.isenabled()
        gc.disable()
        try:
            for text in ["petersen", "prism:8", "cycle:120", "path:600"]:
                g, _ = generate(parse_family_spec(text))
                for search in (id_index_exact, id_number_exact):
                    try:
                        search(g)
                    except BudgetExceededError:  # the watcher was refused
                        pass
                    assert [ref() for ref in made] == [None] * len(made), (text, search)
        finally:
            if enabled:
                gc.enable()
        assert len(made) == 6


class TestWatchLimit:
    """The refusal's entry count is the number of pairs the watcher builds
    times ``n``, and the limit is inclusive."""

    @pytest.mark.parametrize("key_name", ["spheres", "constant"])
    def test_count_matches_the_pairs_built(self, monkeypatch, key_name):
        limit = solvers._MAX_WATCH_ENTRIES
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        for g in graphs + random_corpus(200):
            dm = all_pairs_distances(g)
            tc = tuplet_classes(g)
            key = dm.spheres if key_name == "spheres" else [0] * g.n
            monkeypatch.setattr(solvers, "_MAX_WATCH_ENTRIES", limit)
            entries = len(solvers._PairWatcher(dm, tc, key).pairs) * g.n
            monkeypatch.setattr(solvers, "_MAX_WATCH_ENTRIES", entries - 1)
            with pytest.raises(BudgetExceededError) as excinfo:
                solvers._PairWatcher(dm, tc, key)
            assert str(excinfo.value) == (
                f"pair tables need {entries} entries, limit {entries - 1}"
            )
            monkeypatch.setattr(solvers, "_MAX_WATCH_ENTRIES", entries)
            solvers._PairWatcher(dm, tc, key)


class TestIdIndexOracle:
    def test_path3(self):
        assert id_index_oracle(graph_for("path:3"), [1, 4, 16]) == 2

    def test_triangle(self):
        assert id_index_oracle(graph_for("complete:3"), geometric_pool(3)) == 3

    def test_cycle4(self):
        assert id_index_oracle(graph_for("cycle:4"), [1, 5, 25, 125]) == 3

    def test_rejects_large_graph(self):
        with pytest.raises(TooLargeError):
            id_index_oracle(graph_for("path:9"), geometric_pool(9))

    def test_limit_is_configurable(self):
        k = id_index_oracle(graph_for("path:9"), geometric_pool(9), max_n=9)
        assert k == 2

    def test_rejects_duplicate_pool(self):
        with pytest.raises(ValueError):
            id_index_oracle(graph_for("path:2"), [1, 1])

    def test_exhausted_pool_reports_failure(self):
        with pytest.raises(NoDistinguishingAssignmentError):
            id_index_oracle(graph_for("path:2"), [1])

    def test_matches_exact_on_small_corpus(self):
        for n in range(2, 5):
            for g in all_connected_graphs(n):
                assert id_index_oracle(g, geometric_pool(g.n)) == id_index_exact(g).k


class TestMonotoneFeasibility:
    def test_levels_above_optimum_stay_feasible(self):
        for text in ["path:4", "cycle:5", "multipartite:2,2"]:
            g = graph_for(text)
            dm = all_pairs_distances(g)
            start = id_index_exact(g).k
            for k in range(start, g.n + 1):
                assert any(
                    partition_distinguishes(dm, Partition(rgs, k))[0]
                    for rgs in restricted_growth_strings(g.n, k)
                )


class TestIdNumberExact:
    def test_path2(self):
        assert id_number_exact(graph_for("path:2")) == frozenset({0})

    def test_path3(self):
        red = id_number_exact(graph_for("path:3"))
        assert red is not None and len(red) == 1

    @pytest.mark.parametrize("text", ["cycle:4", "multipartite:1,1,2", "petersen"])
    def test_non_id_graphs(self, text):
        assert id_number_exact(graph_for(text)) is None

    def test_path6_single_red_endpoint(self):
        assert id_number_exact(graph_for("path:6")) == frozenset({0})

    def test_first_hit_is_minimum(self):
        from itertools import combinations

        g = graph_for("cycle:6")
        red = id_number_exact(g)
        assert red is not None and len(red) == 3
        dm = all_pairs_distances(g)
        for r in range(1, len(red)):
            for smaller in combinations(range(6), r):
                table = code_table(dm, frozenset(smaller))
                assert not is_distinguishing(table)
        assert is_distinguishing(code_table(dm, red))

    def test_matches_reference(self):
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        for g in graphs + random_corpus(200):
            red = id_number_exact(g)
            assert (None if red is None else tuple(sorted(red))) == reference_id_number(g)

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            id_number_exact(graph_for("prism:8"), max_nodes=1)

    def test_size_budget(self, monkeypatch):
        # cycle:6 watches all 15 pairs, 90 table entries
        monkeypatch.setattr(solvers, "_MAX_WATCH_ENTRIES", 89)
        with pytest.raises(BudgetExceededError):
            id_number_exact(graph_for("cycle:6"))
        with pytest.raises(BudgetExceededError):
            id_index_exact(graph_for("cycle:6"))
        monkeypatch.setattr(solvers, "_MAX_WATCH_ENTRIES", 90)
        assert len(id_number_exact(graph_for("cycle:6"))) == 3


class TestGreedyUpperBound:
    def test_complete_graph_needs_all_singletons(self):
        assert greedy_upper_bound(graph_for("complete:5")).k == 5

    def test_witness_is_verified(self):
        for text in ["cycle:7", "petersen", "caterpillar:2,4,2,2,4,2"]:
            g = graph_for(text)
            dm = all_pairs_distances(g)
            cert = greedy_upper_bound(g, seed=3)
            assert is_distinguishing(string_table(dm, cert.ranks))
            assert cert.partition.k == cert.k
            assert cert.infeasibility is None

    def test_deterministic_per_seed(self):
        g = graph_for("prism:6")
        assert greedy_upper_bound(g, seed=9) == greedy_upper_bound(g, seed=9)

    def test_never_beats_exact(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_connected_graph(rng.randrange(3, 8), rng)
            k = greedy_upper_bound(g, seed=1).k
            cert = id_index_exact(g)
            assert cert.lower_bound <= cert.k <= k


class TestLowerBoundConsistency:
    def test_twin_bound_never_exceeds_answer(self):
        for n in range(2, 6):
            for g in all_connected_graphs(n):
                cert = id_index_exact(g)
                assert tuplet_classes(g).max_size <= cert.k
