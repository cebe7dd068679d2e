import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idindex.cli as cli
from idindex.families import generate, parse_family_spec
from idindex.graphs import all_pairs_distances, build_graph
from idindex.strings_codes import (
    MissingRankError,
    NoRedVertexError,
    code_table,
    first_collision,
    is_distinguishing,
    string_table,
)

from idindex.constructions import universal_assignment

from corpus import (
    connected_corpus_up_to,
    floyd_warshall,
    random_connected_graph,
    random_corpus,
    summed_strings,
)


def dm_for(text):
    g, _ = generate(parse_family_spec(text))
    return g, all_pairs_distances(g)


class TestStringTable:
    def test_two_vertices(self):
        g, dm = dm_for("path:2")
        assert string_table(dm, (1, 2)) == [(2,), (1,)]

    def test_path3_distinct_under_two_values(self):
        g, dm = dm_for("path:3")
        table = string_table(dm, (1, 1, 2))
        assert table == [(1, 2), (3, 0), (1, 1)]
        assert is_distinguishing(table)

    def test_cycle6_constant_ranks_collide(self):
        g, dm = dm_for("cycle:6")
        table = string_table(dm, (1,) * 6)
        assert all(row == (2, 2, 1) for row in table)
        assert first_collision(table) == (0, 1)

    def test_collision_pair_is_lex_least(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dm = all_pairs_distances(g)
        # v0/v2 and v1/v3 both collide; (0, 2) is reported
        table = string_table(dm, (1, 2, 1, 2))
        assert first_collision(table) == (0, 2)

    def test_entries_sum_over_spheres(self):
        g, dm = dm_for("petersen")
        rng = random.Random(5)
        f = tuple(rng.randrange(1, 50) for _ in range(10))
        table = string_table(dm, f)
        for v in range(g.n):
            for i in range(1, dm.diameter + 1):
                expected = sum(f[u] for u in range(g.n) if dm.dist[v][u] == i)
                assert table[v][i - 1] == expected

    def test_short_assignment_rejected(self):
        g, dm = dm_for("path:3")
        with pytest.raises(MissingRankError) as exc:
            string_table(dm, (1, 2))
        assert exc.value.vertex == 2

    def test_long_assignment_rejected(self):
        g, dm = dm_for("path:2")
        with pytest.raises(ValueError):
            string_table(dm, (1, 2, 3))

    def test_single_vertex_empty_string(self):
        g, dm = dm_for("path:1")
        table = string_table(dm, (7,))
        assert table == [()]
        assert is_distinguishing(table)



def per_pair_sums(dm, ranks):
    """Strings by the definition: one sum per vertex and distance."""
    n = len(dm.dist)
    return [
        tuple(
            sum(ranks[w] for w in range(n) if dm.dist[v][w] == i)
            for i in range(1, dm.diameter + 1)
        )
        for v in range(n)
    ]


class TestStringTableOracle:
    BIG = 10**299 + 7  # 300 digits

    @pytest.mark.parametrize(
        "spec", ["path:1", "path:2", "cycle:7", "petersen", "grid:3x4", "product:(cycle:5)x(path:2)"]
    )
    @pytest.mark.parametrize("kind", ["zero", "negative", "big", "mixed"])
    def test_matches_per_pair_sums(self, spec, kind):
        g, dm = dm_for(spec)
        rng = random.Random(f"{spec}/{kind}")
        draw = {
            "zero": lambda: 0,
            "negative": lambda: rng.randrange(-50, 0),
            "big": lambda: self.BIG * rng.randrange(1, 9),
            "mixed": lambda: rng.choice([0, -1, 1, -self.BIG, self.BIG + 1]),
        }[kind]
        ranks = tuple(draw() for _ in range(g.n))
        assert string_table(dm, ranks) == per_pair_sums(dm, ranks)

    def test_random_graphs(self):
        rng = random.Random(11)
        for n in range(2, 12):
            g = random_connected_graph(n, rng)
            dm = all_pairs_distances(g)
            ranks = tuple(rng.randrange(-(10**300), 10**300) for _ in range(n))
            assert string_table(dm, ranks) == per_pair_sums(dm, ranks)


def rank_vectors(n, rng):
    """Rank vectors that exercise every way a table can start from the most
    common rank: 1, 0, another value, or one of several tied values."""
    odd = rng.randrange(n)
    # certificate ranks: class c gets (n + 1)^c, with class 0 the largest
    labels = [0 if rng.random() < 0.7 else rng.randrange(1, 3) for _ in range(n)]
    # a tie: two values alternate, and an odd n gives the last vertex a third
    tied = [-7 if v % 2 else 2**70 for v in range(n - n % 2)] + [3] * (n % 2)
    return {
        "equal": (5,) * n,
        "ones": (1,) * n,
        "one_odd": tuple(9 if v == odd else 1 for v in range(n)),
        "certificate": tuple((n + 1) ** c for c in labels),
        "distinct": universal_assignment(n),
        "zeros": (0,) * n,
        "negative": tuple(rng.randrange(-9, 0) for _ in range(n)),
        "above_2_64": tuple(2**64 + rng.randrange(3) for _ in range(n)),
        "tie": tuple(tied),
    }


class TestStringTableAgainstSums:
    """``string_table`` against plain per-entry sums over Floyd-Warshall
    distances, which share no code with the library."""

    @staticmethod
    def check(g, rng):
        dist = floyd_warshall(g)
        dm = all_pairs_distances(g)
        for name, ranks in rank_vectors(g.n, rng).items():
            assert string_table(dm, ranks) == summed_strings(dist, ranks), (g, name)
        red = frozenset(v for v in range(g.n) if rng.random() < 0.3) or {0}
        for reds in (red, frozenset(range(g.n)) - red or red):
            indicator = tuple(int(v in reds) for v in range(g.n))
            assert code_table(dm, reds) == summed_strings(dist, indicator), (g, reds)

    def test_every_connected_graph_up_to_5(self):
        rng = random.Random(24)
        for g in connected_corpus_up_to(5):
            self.check(g, rng)

    def test_random_corpus(self):
        rng = random.Random(25)
        for g in random_corpus(120):
            self.check(g, rng)


class TestCodeTable:
    def test_path3_one_red_end(self):
        g, dm = dm_for("path:3")
        table = code_table(dm, frozenset({0}))
        assert table == [(0, 0), (1, 0), (0, 1)]
        assert is_distinguishing(table)

    def test_indicator_matches_string_route(self):
        g, dm = dm_for("prism:4")
        red = frozenset({0, 3, 5})
        indicator = tuple(1 if v in red else 0 for v in range(g.n))
        assert code_table(dm, red) == string_table(dm, indicator)

    def test_no_red_rejected(self):
        g, dm = dm_for("cycle:4")
        with pytest.raises(NoRedVertexError):
            code_table(dm, frozenset())

    def test_wrong_size_rejected(self):
        g, dm = dm_for("cycle:4")
        for red in ({4}, {7}, {0, -1}):
            with pytest.raises(ValueError, match="outside 0..n-1"):
                code_table(dm, frozenset(red))

    def test_cycle4_has_no_id_coloring(self):
        # the antipodal symmetry defeats every red set
        g, dm = dm_for("cycle:4")
        for mask in range(1, 16):
            red = frozenset(v for v in range(4) if mask >> v & 1)
            assert not is_distinguishing(code_table(dm, red))


def verify_ranks(tmp_path, capsys, payload):
    """Run ``verify --ranks`` on path:3 with ``payload`` as the ranks file."""
    path = tmp_path / "ranks.json"
    path.write_text(json.dumps(payload))
    code = cli.run(["verify", "--family", "path:3", "--ranks", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


class TestSerialization:
    """JSON carries ranks and strings as decimal strings; the CLI reads and
    writes that form."""

    def test_json_round_trip_preserves_big_ints(self, tmp_path, capsys):
        big = 23**40
        payload = {"ranks": ["1", str(big), "-7"]}
        code, out, err = verify_ranks(tmp_path, capsys, payload)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["ranks"] == ["1", str(big), "-7"]
        assert obj["strings"][0] == [str(big), "-7"]

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"ranks": ["1", "two"]},
            {"ranks": 3},
            {"ranks": [1.9, 2, 3]},
            {"ranks": [True, "2", "3"]},
            {"ranks": "123"},
        ],
    )
    def test_from_json_rejects_garbage(self, tmp_path, capsys, payload):
        code, out, err = verify_ranks(tmp_path, capsys, payload)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_string_table_json_uses_decimal_strings(self, tmp_path, capsys):
        payload = {"ranks": [str(10**30), "1", "1"]}
        code, out, err = verify_ranks(tmp_path, capsys, payload)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["diameter"] == 2
        assert obj["strings"][1] == [str(10**30 + 1), "0"]


@st.composite
def graph_and_ranks(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    g = random_connected_graph(n, random.Random(seed))
    ranks = draw(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n)
    )
    return g, tuple(ranks)


class TestProperties:
    @settings(derandomize=True, max_examples=60)
    @given(graph_and_ranks())
    def test_row_sum_identity(self, gr):
        # summing a vertex's string gives the total rank of everyone else
        g, f = gr
        dm = all_pairs_distances(g)
        total = sum(f)
        for v, row in enumerate(string_table(dm, f)):
            assert sum(row) == total - f[v]

    @settings(derandomize=True, max_examples=60)
    @given(graph_and_ranks(), st.integers(min_value=1, max_value=9))
    def test_scaling_preserves_collisions(self, gr, scale):
        g, f = gr
        dm = all_pairs_distances(g)
        scaled = tuple(scale * r for r in f)
        assert is_distinguishing(string_table(dm, f)) == is_distinguishing(
            string_table(dm, scaled)
        )

    @settings(derandomize=True, max_examples=40)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=30))
    def test_constant_ranks_distinguish_iff_sphere_sizes_do(self, n, value):
        g = random_connected_graph(n, random.Random(n * 7919 + value))
        dm = all_pairs_distances(g)
        table = string_table(dm, (value,) * n)
        counts = {
            tuple(
                sum(1 for u in range(n) if dm.dist[v][u] == i)
                for i in range(1, dm.diameter + 1)
            )
            for v in range(n)
        }
        assert is_distinguishing(table) == (len(counts) == n)
